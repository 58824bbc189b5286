"""Batching timestamp authority: per-round Merkle trees over client hashes,
collectively signed timestamp records, and self-verifying receipts.

Clients submit 32-byte hashes; once per round the queue is swapped out,
rolled into a Merkle tree, and the record (round, wall time, tree root,
previous-record hash) is signed through a collective signing round with a
late-bound statement. Each client gets back a receipt: the record, the
signature, and an inclusion proof. A receipt is held as its wire bytes, which
a round builds in one pass over the tree, and its proof is read back from
them. In scalable mode every witness batches its own clients
into a local tree and the global tree commits all local trees transitively,
so composed (local then global) proofs still verify against the one root.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import merkle, multisig
from .group import Reader
from .merkle import InclusionProof, MerkleTree
from .multisig import CollectiveSignature, VerifyResult
from .roster import CompactAnchor, WitnessRoster
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


def unpack_record(data: bytes) -> TimestampRecord:
    if len(data) != RECORD_SIZE:
        raise TimestampError(f"timestamp record must be {RECORD_SIZE} bytes")
    return TimestampRecord(
        round_number=int.from_bytes(data[:8], "big"),
        wall_time=int.from_bytes(data[8:16], "big"),
        merkle_root=data[16:48],
        prev_record_hash=data[48:80],
    )


def _receipt_head(record: TimestampRecord, signature: CollectiveSignature,
                  proof_size: int) -> bytes:
    """What a receipt's wire bytes hold before its proof: the magic, the
    packed record, the length-prefixed signature and the proof's length."""
    sig = signature.to_bytes()
    return b"".join((RECEIPT_MAGIC, record.pack(), len(sig).to_bytes(4, "big"), sig,
                     proof_size.to_bytes(4, "big")))


_SIG_LEN_AT = len(RECEIPT_MAGIC) + RECORD_SIZE  # offset of the signature's u32 length


@dataclass(frozen=True, slots=True, init=False)
class StampReceipt:
    """A record, its collective signature and one client's inclusion proof,
    held as the receipt's wire bytes (`data`): the magic, the packed record,
    the u32-length-prefixed signature, then the u32-length-prefixed proof.

    `proof` is read from the tail of `data` on each access, so a receipt
    holds its audit path once, and `to_bytes` returns `data` itself."""

    record: TimestampRecord
    signature: CollectiveSignature
    data: bytes

    def __init__(self, record: TimestampRecord, signature: CollectiveSignature,
                 proof: InclusionProof):
        head = _receipt_head(record, signature, len(proof.data))
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "data", head + proof.data)

    @property
    def proof(self) -> InclusionProof:
        data = self.data
        sig_len = int.from_bytes(data[_SIG_LEN_AT:_SIG_LEN_AT + 4], "big")
        return InclusionProof(data[_SIG_LEN_AT + 4 + sig_len + 4:])

    def __repr__(self) -> str:
        return (f"StampReceipt(record={self.record!r}, signature={self.signature!r}, "
                f"proof={self.proof!r})")

    def to_bytes(self) -> bytes:
        return self.data

    @classmethod
    def from_bytes(cls, data: bytes, witness_count: int) -> "StampReceipt":
        data = bytes(data)
        r = Reader(data, witness_count)
        if r.take(4) != RECEIPT_MAGIC:
            raise TimestampError("bad receipt magic")
        record = unpack_record(r.take(RECORD_SIZE))
        signature = CollectiveSignature.from_bytes(r.take(r.u32()), witness_count)
        InclusionProof.decode(r.take(r.u32()))  # its length and side-byte checks
        if r.off != len(data):
            raise TimestampError("trailing bytes in receipt")
        return cls._bulk(record, signature, [data])[0]

    @classmethod
    def _bulk(cls, record: TimestampRecord, signature: CollectiveSignature,
              items: list[bytes]) -> list["StampReceipt"]:
        """`items[i]`, each a receipt's wire bytes for this record and
        signature, becomes that receipt for every i, without the frozen
        `__init__`: each receipt is allocated bare and its slots set through
        their descriptors, which the frozen `__setattr__` does not guard. In
        place, so no second list of the receipts' size is held; returns
        `items`."""
        new = object.__new__
        set_record, set_signature, set_data = (
            cls.record.__set__, cls.signature.__set__, cls.data.__set__)
        for i, data in enumerate(items):
            receipt = new(cls)
            set_record(receipt, record)
            set_signature(receipt, signature)
            set_data(receipt, data)
            items[i] = receipt
        return items


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
        # Submitters append on the right, taking no lock: a deque's append,
        # popleft and extendleft are each atomic. A drain pops the count of
        # hashes it saw from the left, so one submitted meanwhile waits for
        # the next drain; drains, and putting a batch back, take `_drain_lock`.
        self._queue: deque[bytes] = deque()
        self._drain_lock = threading.Lock()
        self.next_round = 1
        self.prev_hash = GENESIS_HASH

    def submit(self, digest: bytes) -> None:
        """Queue a hash for the next round that closes."""
        if len(digest) != 32:
            raise TimestampError("submitted hashes must be 32 bytes")
        self._queue.append(digest)

    def _drain(self) -> list[bytes]:
        """The hashes queued so far, oldest first, taken off the queue."""
        with self._drain_lock:
            pop = self._queue.popleft
            return [pop() for _ in range(len(self._queue))]

    def drop_pending(self) -> list[bytes]:
        """Empties the queue, a failed round's retained batch included, and
        returns the hashes it held."""
        return self._drain()

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    def round_close(self, clock: float) -> tuple[TimestampRecord, dict[bytes, StampReceipt]]:
        """Drain the queue, sign this round's record, and build receipts.

        Every proof has the tree's `proof_size`, so all of a round's receipts
        start with one head. One walk over the tree (`paths`) writes each
        receipt's wire bytes as that head and the leaf's audit path, and the
        receipts are built in bulk over them. A repeated hash maps to the
        receipt of its last position."""
        batch = self._drain()
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
            with self._drain_lock:  # retain for the next round, ahead of later hashes
                self._queue.extendleft(reversed(batch))
            raise TimestampError(
                f"signing failed for round {record.round_number}") from cause
        self.next_round += 1
        self.prev_hash = record.record_hash()
        head = _receipt_head(record, signature, tree.proof_size)
        receipts = StampReceipt._bulk(record, signature, tree.paths(head))
        return record, dict(zip(batch, receipts))


def verify_receipt(anchor: WitnessRoster | CompactAnchor, digest: bytes,
                   receipt: StampReceipt, predicate,
                   prev_record: TimestampRecord | None = None) -> VerifyResult:
    """Inclusion proof, then the collective signature, then chain linkage."""
    _check_hash(digest)
    if not merkle.verify_inclusion(receipt.record.merkle_root, digest, receipt.proof):
        return VerifyResult(ok=False, crypto_ok=False, predicate_ok=False,
                            reason="inclusion proof does not reach the record root")
    result = multisig.verify_collective(anchor, receipt.record.pack(),
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
               anchor: WitnessRoster | CompactAnchor, predicate,
               local_clock: float, tolerance: float = 60.0) -> bool:
    """Coarse-grained time check: the receipt must commit our fresh nonce and
    carry a wall time within `tolerance` of the local clock."""
    result = verify_receipt(anchor, nonce, receipt, predicate)
    if not result.ok:
        return False
    return abs(receipt.record.wall_time - local_clock) <= tolerance


# ---------------------------------------------------------------------------
# Scalable mode: per-witness local trees committed by one global tree
# ---------------------------------------------------------------------------

class GlobalStampTree(merkle.TreeOfTrees):
    """Global timestamp tree mirroring the spanning tree.

    Each witness folds its local tree root together with its children's
    subtree roots (digest-level tree, interior hashing only); the resulting
    root transitively commits every request. Client proofs compose: the
    local-tree path, then the witness-to-root path (`prove`).
    """

    def __init__(self, topology: TreeTopology, local_hashes: dict[int, list[bytes]]):
        self.local_trees = {
            node: MerkleTree([_check_hash(h) for h in local_hashes.get(node, [])])
            for node in topology.members}
        super().__init__(topology, {node: tree.root for node, tree in self.local_trees.items()})

    def prove_request(self, witness: int, leaf_index: int) -> InclusionProof:
        """Composed proof for one client hash at one witness."""
        return self.local_trees[witness].prove(leaf_index).compose(self.prove(witness))
