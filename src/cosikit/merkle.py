"""Binary Merkle trees with audit-path inclusion proofs.

Used for the roster key tree and the per-round timestamp trees. Leaves and
interior nodes are hashed under distinct domain tags; a level with an odd
node count duplicates its last node. Proof steps record which side the
sibling sits on, so the leaf index is fully determined by the path and
composed proofs (sub-tree proof followed by outer-tree proof) remain plain
concatenations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .group import TAG_EMPTY_TREE, TAG_MERKLE_LEAF, TAG_MERKLE_NODE

DIGEST_SIZE = 32

SIBLING_LEFT = 0
SIBLING_RIGHT = 1
_SIDE_BYTE = (bytes([SIBLING_LEFT]), bytes([SIBLING_RIGHT]))
_SIDE_BYTES = b"".join(_SIDE_BYTE)
_STEP_SIZE = 1 + DIGEST_SIZE  # side byte, then the sibling digest


def leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(TAG_MERKLE_LEAF + data).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(TAG_MERKLE_NODE + left + right).digest()


def empty_tree_root() -> bytes:
    """Sentinel root for a round with no leaves."""
    return hashlib.sha256(TAG_EMPTY_TREE).digest()


@dataclass(frozen=True)
class AuditStep:
    side: int  # SIBLING_LEFT or SIBLING_RIGHT
    digest: bytes

    def __post_init__(self):
        if self.side not in (SIBLING_LEFT, SIBLING_RIGHT):
            raise ValueError("bad audit step side")
        if len(self.digest) != DIGEST_SIZE:
            raise ValueError("bad audit step digest length")


@dataclass(frozen=True, slots=True)
class InclusionProof:
    """Audit path from a leaf to the root, bottom-up, held in its wire form:
    a 2-byte step count, then per step a side byte and the sibling digest."""

    data: bytes

    @property
    def path(self) -> tuple[AuditStep, ...]:
        d = self.data
        return tuple(AuditStep(d[off], d[off + 1:off + _STEP_SIZE])
                     for off in range(2, len(d), _STEP_SIZE))

    @property
    def leaf_index(self) -> int:
        # A left-side sibling means this node was the right child at that level.
        sides = self.data[2::_STEP_SIZE]
        return sum(1 << k for k, side in enumerate(sides) if side == SIBLING_LEFT)

    def compose(self, outer: "InclusionProof") -> "InclusionProof":
        """Proof for a leaf of an inner tree whose root is a leaf of an outer tree."""
        count = int.from_bytes(self.data[:2], "big") + int.from_bytes(outer.data[:2], "big")
        return InclusionProof(count.to_bytes(2, "big") + self.data[2:] + outer.data[2:])

    def encode(self) -> bytes:
        return self.data

    @classmethod
    def decode(cls, data: bytes) -> "InclusionProof":
        data = bytes(data)
        if len(data) < 2:
            raise ValueError("truncated inclusion proof")
        if len(data) != 2 + int.from_bytes(data[:2], "big") * _STEP_SIZE:
            raise ValueError("bad inclusion proof length")
        if data[2::_STEP_SIZE].translate(None, _SIDE_BYTES):
            raise ValueError("bad audit step side")
        return cls(data)


def fold_proof(leaf_digest: bytes, proof: InclusionProof) -> bytes:
    """Recompute the root implied by a leaf digest and an audit path."""
    cur, data = leaf_digest, proof.data
    for off in range(2, len(data), _STEP_SIZE):
        sibling = data[off + 1:off + _STEP_SIZE]
        if data[off] == SIBLING_RIGHT:
            cur = node_hash(cur, sibling)
        else:
            cur = node_hash(sibling, cur)
    return cur


def verify_inclusion(root: bytes, leaf_data: bytes, proof: InclusionProof,
                     index: int | None = None) -> bool:
    if index is not None and index != proof.leaf_index:
        return False
    return fold_proof(leaf_hash(leaf_data), proof) == root


class DigestTree:
    """Merkle tree whose leaves are already digests (no leaf hashing).

    Lets sub-tree roots be committed by an outer tree while keeping composed
    audit paths pure interior-hash folds. A single-digest tree is that digest
    itself with an empty path.

    Every node below the root keeps the audit step it is to its sibling, as
    wire bytes, so a proof is one join of a step per level.
    """

    def __init__(self, digests: list[bytes]):
        for d in digests:
            if len(d) != DIGEST_SIZE:
                raise ValueError("digest tree leaves must be digests")
        self.leaf_count = len(digests)
        # _steps[k][j]: side byte and digest of node j of level k, as its
        # sibling's audit step (a left child sits on its sibling's left)
        self._steps: list[list[bytes]] = []
        if self.leaf_count == 0:
            self.root = empty_tree_root()
            return
        level = list(digests)
        while len(level) > 1:
            if len(level) % 2 == 1:
                level.append(level[-1])
            self._steps.append([_SIDE_BYTE[j & 1] + d for j, d in enumerate(level)])
            level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        self.root = level[0]
        self._count = len(self._steps).to_bytes(2, "big")

    def prove(self, index: int) -> InclusionProof:
        if not 0 <= index < self.leaf_count:
            raise IndexError("leaf index out of range")
        return InclusionProof(self._count + b"".join(
            [steps[(index >> k) ^ 1] for k, steps in enumerate(self._steps)]))


class MerkleTree(DigestTree):
    """Merkle tree over an ordered list of leaf byte strings: the digest tree
    over their leaf hashes."""

    def __init__(self, leaves: list[bytes]):
        super().__init__([leaf_hash(leaf) for leaf in leaves])

    # Bound on this class too, so that MerkleTree.prove can be wrapped (as
    # perfbench's tracer does) without touching DigestTree.prove.
    prove = DigestTree.prove
