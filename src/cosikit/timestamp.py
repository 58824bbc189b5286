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
from itertools import repeat
from typing import Callable, Optional, Sequence

from . import merkle, multisig
from .group import Reader
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
        if len(self.merkle_root) != 32 or len(self.prev_record_hash) != 32:
            raise TimestampError("record digests must be 32 bytes")
        return (self.round_number.to_bytes(8, "big")
                + self.wall_time.to_bytes(8, "big")
                + self.merkle_root + self.prev_record_hash)

    def record_hash(self) -> bytes:
        return hashlib.sha256(b"cosi/stamp-record/v1" + self.pack()).digest()

    def _receipt_head(self, signature: CollectiveSignature) -> bytes:
        """What every receipt of this record and signature starts with: the
        magic, the packed record and the length-prefixed signature.

        Built once for the last signature asked for, which is compared by
        identity and held, so a batch's receipts share one head and a receipt
        with another signature gets its own."""
        memo = self.__dict__.get("_head")
        if memo is None or memo[0] is not signature:
            sig = signature.to_bytes()
            memo = (signature, RECEIPT_MAGIC + self.pack() + len(sig).to_bytes(4, "big") + sig)
            self.__dict__["_head"] = memo  # frozen: bypass __setattr__, as cached_property does
        return memo[1]


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
        proof = self.proof.data  # the proof's wire form
        return b"".join((self.record._receipt_head(self.signature),
                         len(proof).to_bytes(4, "big"), proof))

    @classmethod
    def from_bytes(cls, data: bytes, witness_count: int) -> "StampReceipt":
        r = Reader(data, witness_count)
        if r.take(4) != RECEIPT_MAGIC:
            raise TimestampError("bad receipt magic")
        record = unpack_record(r.take(RECORD_SIZE))
        signature = CollectiveSignature.from_bytes(r.take(r.u32()), witness_count)
        proof = InclusionProof.decode(r.take(r.u32()))
        if r.off != len(data):
            raise TimestampError("trailing bytes in receipt")
        return cls(record=record, signature=signature, proof=proof)

    @classmethod
    def _bulk(cls, record: TimestampRecord, signature: CollectiveSignature,
              proofs: list[InclusionProof]) -> list["StampReceipt"]:
        """`[cls(record, signature, p) for p in proofs]` without the frozen
        `__init__`: each receipt is allocated bare and its slots set through
        their descriptors, which the frozen `__setattr__` does not guard."""
        receipts = list(map(object.__new__, repeat(cls, len(proofs))))
        set_record = cls.record.__set__
        set_signature = cls.signature.__set__
        set_proof = cls.proof.__set__
        for receipt, proof in zip(receipts, proofs):
            set_record(receipt, record)
            set_signature(receipt, signature)
            set_proof(receipt, proof)
        return receipts


def _check_hash(digest: bytes) -> bytes:
    if len(digest) != 32:
        raise TimestampError("submitted hashes must be 32 bytes")
    return digest


class TimestampAuthority:
    """Round-batched timestamping over a collective-signing backend.

    `signer` runs one signing round over the serialized record with a
    late-bound statement and returns the collective signature (or raises /
    returns None on round failure, in which case the batch is retained and
    goes ahead of any hash submitted since).
    """

    def __init__(self, signer: Callable[[bytes], Optional[CollectiveSignature]]):
        self.signer = signer
        self._lock = threading.Lock()
        self._queue: list[bytes] = []
        self.next_round = 1
        self.prev_hash = GENESIS_HASH

    def submit(self, digest: bytes) -> None:
        """Queue a hash for the next round that closes."""
        if len(digest) != 32:
            raise TimestampError("submitted hashes must be 32 bytes")
        with self._lock:
            self._queue.append(digest)

    def drop_pending(self) -> list[bytes]:
        """Empties the queue, a failed round's retained batch included, and
        returns the hashes it held."""
        with self._lock:
            batch, self._queue = self._queue, []
        return batch

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._queue)

    def round_close(self, clock: float) -> tuple[TimestampRecord, dict[bytes, StampReceipt]]:
        """Swap the queue, sign this round's record, and build receipts.

        Every audit path comes from one walk over the tree (`proofs`), and
        the receipts, built in bulk, share the record and signature, so
        encoding them builds their common head once. A repeated hash maps to
        the receipt of its last position."""
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
        receipts = StampReceipt._bulk(record, signature, tree.proofs())
        return record, dict(zip(batch, receipts))


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
        reason = _chain_fault(prev_record, receipt.record)
        if reason:
            return VerifyResult(ok=False, crypto_ok=False, predicate_ok=result.predicate_ok,
                                reason=reason)
    return result


def _chain_fault(prev: TimestampRecord, rec: TimestampRecord) -> str:
    """Why `rec` does not follow `prev` in the record chain, or "" if it does."""
    if rec.prev_record_hash != prev.record_hash():
        return "record does not chain to the supplied predecessor"
    if rec.round_number != prev.round_number + 1:
        return "round numbers not consecutive"
    return ""


def verify_record_chain(records: Sequence[TimestampRecord]) -> bool:
    """Contiguous records must chain by hash and count rounds one by one."""
    return not any(map(_chain_fault, records, records[1:]))


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
