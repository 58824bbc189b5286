"""Batching timestamp authority: per-round Merkle trees over client hashes,
collectively signed timestamp records, and self-verifying receipts.

Clients submit 32-byte hashes; once per round the queue is swapped out,
rolled into a Merkle tree, and the record (round, wall time, tree root,
previous-record hash) is signed through a collective signing round with a
late-bound statement. Each client gets back the record, the signature, and
an inclusion proof. In scalable mode every witness batches its own clients
into a local tree and the global tree commits all local trees transitively,
so composed (local then global) proofs still verify against the one root.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from . import merkle, multisig
from .merkle import InclusionProof, MerkleTree
from .multisig import CollectiveSignature, VerifyResult
from .roster import AuthorityCertificate, WitnessRoster
from .topology import TreeTopology

RECORD_SIZE = 8 + 8 + 32 + 32
GENESIS_HASH = b"\x00" * 32
RECEIPT_MAGIC = b"TSR1"


class TimestampError(ValueError):
    pass


@dataclass(frozen=True)
class TimestampRecord:
    round_number: int
    wall_time: int  # seconds, authority clock
    merkle_root: bytes
    prev_record_hash: bytes

    def pack(self) -> bytes:
        return self._packed

    # Packed once per record: every receipt of a batch shares the record.
    # A record that fails the check caches nothing and raises on each pack.
    @cached_property
    def _packed(self) -> bytes:
        if len(self.merkle_root) != 32 or len(self.prev_record_hash) != 32:
            raise TimestampError("record digests must be 32 bytes")
        return (self.round_number.to_bytes(8, "big")
                + self.wall_time.to_bytes(8, "big")
                + self.merkle_root + self.prev_record_hash)

    def record_hash(self) -> bytes:
        return hashlib.sha256(b"cosi/stamp-record/v1" + self.pack()).digest()


def unpack_record(data: bytes) -> TimestampRecord:
    if len(data) != RECORD_SIZE:
        raise TimestampError(f"timestamp record must be {RECORD_SIZE} bytes")
    return TimestampRecord(
        round_number=int.from_bytes(data[:8], "big"),
        wall_time=int.from_bytes(data[8:16], "big"),
        merkle_root=data[16:48],
        prev_record_hash=data[48:80],
    )


@dataclass(frozen=True, slots=True)
class StampReceipt:
    record: TimestampRecord
    signature: CollectiveSignature
    proof: InclusionProof

    def to_bytes(self) -> bytes:
        sig = self.signature.to_bytes()
        proof = self.proof.encode()
        return (RECEIPT_MAGIC + self.record.pack()
                + len(sig).to_bytes(4, "big") + sig
                + len(proof).to_bytes(4, "big") + proof)

    @classmethod
    def from_bytes(cls, data: bytes, witness_count: int) -> "StampReceipt":
        if data[:4] != RECEIPT_MAGIC:
            raise TimestampError("bad receipt magic")
        off = 4
        record = unpack_record(data[off:off + RECORD_SIZE])
        off += RECORD_SIZE
        siglen = int.from_bytes(data[off:off + 4], "big")
        off += 4
        signature = CollectiveSignature.from_bytes(data[off:off + siglen], witness_count)
        off += siglen
        prooflen = int.from_bytes(data[off:off + 4], "big")
        off += 4
        proof = InclusionProof.decode(data[off:off + prooflen])
        off += prooflen
        if off != len(data):
            raise TimestampError("trailing bytes in receipt")
        return cls(record=record, signature=signature, proof=proof)


def _check_hash(digest: bytes) -> bytes:
    if len(digest) != 32:
        raise TimestampError("submitted hashes must be 32 bytes")
    return digest


class TimestampAuthority:
    """Round-batched timestamping over a collective-signing backend.

    `signer` runs one signing round over the serialized record with a
    late-bound statement and returns the collective signature (or raises /
    returns None on round failure, in which case tickets are retained).
    """

    def __init__(self, signer: Callable[[bytes], Optional[CollectiveSignature]]):
        self.signer = signer
        self._lock = threading.Lock()
        self._queue: list[bytes] = []
        self.next_round = 1
        self.prev_hash = GENESIS_HASH
        self.records: list[TimestampRecord] = []

    def submit(self, digest: bytes) -> int:
        """Queue a hash; the ticket is its position in the upcoming round."""
        digest = _check_hash(digest)
        with self._lock:
            self._queue.append(digest)
            return len(self._queue) - 1

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._queue)

    def round_close(self, clock: float) -> tuple[TimestampRecord, dict[bytes, StampReceipt]]:
        """Swap the queue, sign this round's record, and build receipts."""
        with self._lock:
            batch, self._queue = self._queue, []
        tree = MerkleTree(batch)
        record = TimestampRecord(
            round_number=self.next_round,
            wall_time=int(clock),
            merkle_root=tree.root,
            prev_record_hash=self.prev_hash,
        )
        cause = None
        try:
            signature = self.signer(record.pack())
        except Exception as exc:
            signature, cause = None, exc
        if signature is None:
            with self._lock:
                self._queue = batch + self._queue  # retain for the next round
            raise TimestampError(
                f"signing failed for round {record.round_number}") from cause
        self.next_round += 1
        self.prev_hash = record.record_hash()
        self.records.append(record)
        receipts = {}
        for i, digest in enumerate(batch):
            receipts[digest] = StampReceipt(record=record, signature=signature,
                                            proof=tree.prove(i))
        return record, receipts


def verify_receipt(cert: AuthorityCertificate | WitnessRoster, digest: bytes,
                   receipt: StampReceipt, predicate,
                   prev_record: TimestampRecord | None = None) -> VerifyResult:
    """Inclusion proof, then the collective signature, then chain linkage."""
    _check_hash(digest)
    if not merkle.verify_inclusion(receipt.record.merkle_root, digest, receipt.proof):
        return VerifyResult(ok=False, crypto_ok=False, predicate_ok=False,
                            reason="inclusion proof does not reach the record root")
    result = multisig.verify_collective(cert, receipt.record.pack(),
                                        receipt.signature, predicate)
    if not result.ok:
        return result
    if prev_record is not None:
        if receipt.record.prev_record_hash != prev_record.record_hash():
            return VerifyResult(ok=False, crypto_ok=False, predicate_ok=result.predicate_ok,
                                reason="record does not chain to the supplied predecessor")
        if receipt.record.round_number != prev_record.round_number + 1:
            return VerifyResult(ok=False, crypto_ok=False, predicate_ok=result.predicate_ok,
                                reason="round numbers not consecutive")
    return result


def verify_record_chain(records: Sequence[TimestampRecord]) -> bool:
    """Contiguous records must chain by hash and count rounds one by one."""
    prev = None
    for rec in records:
        if prev is not None:
            if rec.prev_record_hash != prev.record_hash():
                return False
            if rec.round_number != prev.round_number + 1:
                return False
        prev = rec
    return True


def time_check(nonce: bytes, receipt: StampReceipt,
               cert: AuthorityCertificate | WitnessRoster, predicate,
               local_clock: float, tolerance: float = 60.0) -> bool:
    """Coarse-grained time check: the receipt must commit our fresh nonce and
    carry a wall time within `tolerance` of the local clock."""
    result = verify_receipt(cert, nonce, receipt, predicate)
    if not result.ok:
        return False
    return abs(receipt.record.wall_time - local_clock) <= tolerance


# ---------------------------------------------------------------------------
# Scalable mode: per-witness local trees committed by one global tree
# ---------------------------------------------------------------------------

class GlobalStampTree:
    """Global timestamp tree mirroring the spanning tree.

    Each witness folds its local tree root together with its children's
    subtree roots (digest-level tree, interior hashing only); the resulting
    root transitively commits every request. Client proofs compose: the
    local-tree path, then the witness-to-root path.
    """

    def __init__(self, topology: TreeTopology, local_hashes: dict[int, list[bytes]]):
        self.topology = topology
        self.local_trees: dict[int, MerkleTree] = {}
        self.node_trees: dict[int, merkle.DigestTree] = {}
        for node in topology.postorder(topology.root):
            local = MerkleTree([_check_hash(h) for h in local_hashes.get(node, [])])
            self.local_trees[node] = local
            digests = [local.root] + [self.node_trees[c].root
                                      for c in topology.children[node]]
            self.node_trees[node] = merkle.DigestTree(digests)
        self.root = self.node_trees[topology.root].root

    def witness_to_root_proof(self, witness: int) -> InclusionProof:
        """Path from a witness's local tree root up to the global root."""
        proof = self.node_trees[witness].prove(0)
        node = witness
        while node != self.topology.root:
            parent = self.topology.parent[node]
            slot = 1 + self.topology.children[parent].index(node)
            proof = proof.compose(self.node_trees[parent].prove(slot))
            node = parent
        return proof

    def prove_request(self, witness: int, leaf_index: int) -> InclusionProof:
        """Composed proof for one client hash at one witness."""
        return self.local_trees[witness].prove(leaf_index).compose(
            self.witness_to_root_proof(witness))


def scalable_collect(local_queues: dict[int, list[bytes]],
                     topology: TreeTopology) -> GlobalStampTree:
    return GlobalStampTree(topology, local_queues)
