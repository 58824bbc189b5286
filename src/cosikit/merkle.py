"""Binary Merkle trees with audit-path inclusion proofs.

Used for the roster key tree and the per-round timestamp trees. Leaves and
interior nodes are hashed under distinct domain tags; a level with an odd
node count duplicates its last node. Proof steps record which side the
sibling sits on, so the leaf index is fully determined by the path and
composed proofs (sub-tree proof followed by outer-tree proof) remain plain
concatenations. A tree proves one leaf (`prove`) or all of them in leaf
order from one walk. The walk (`paths`) returns every leaf's path bytes
behind a prefix the caller gives: a timestamp round passes its receipts'
common head, so each receipt's wire bytes are built whole and no proof object
is made per leaf.
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
    wire bytes. `prove` joins one step per level for a single leaf; `paths`
    builds every leaf's path in one walk that concatenates each node's path
    to the root once.
    """

    def __init__(self, digests: list[bytes]):
        for d in digests:
            if len(d) != DIGEST_SIZE:
                raise ValueError("digest tree leaves must be digests")
        self._build(list(digests))

    def _build(self, level: list[bytes]) -> None:
        """Hash the levels above `level`, a list of digests it may extend."""
        self.leaf_count = len(level)
        # _steps[k][j]: side byte and digest of node j of level k, as its
        # sibling's audit step (a left child sits on its sibling's left)
        self._steps: list[list[bytes]] = []
        if self.leaf_count == 0:
            self.root = empty_tree_root()
            self._count = b"\x00\x00"
            return
        sha256, tag = hashlib.sha256, TAG_MERKLE_NODE
        left_side, right_side = _SIDE_BYTE
        while len(level) > 1:
            if len(level) % 2 == 1:
                level.append(level[-1])
            lefts, rights = level[0::2], level[1::2]
            steps = [b""] * len(level)
            steps[0::2] = [left_side + d for d in lefts]
            steps[1::2] = [right_side + d for d in rights]
            self._steps.append(steps)
            level = [sha256(tag + left + right).digest() for left, right in zip(lefts, rights)]
        self.root = level[0]
        self._count = len(self._steps).to_bytes(2, "big")

    @property
    def proof_size(self) -> int:
        """Bytes in every leaf's proof: all leaves sit at the same depth."""
        return 2 + len(self._steps) * _STEP_SIZE

    def prove(self, index: int) -> InclusionProof:
        if not 0 <= index < self.leaf_count:
            raise IndexError("leaf index out of range")
        return InclusionProof(self._count + b"".join(
            [steps[(index >> k) ^ 1] for k, steps in enumerate(self._steps)]))

    def paths(self, prefix: bytes) -> list[bytes]:
        """`prefix + prove(i).data` for every leaf i, in leaf order.

        One walk over the leaf pairs (the level-1 nodes) keeps, per level
        k >= 1, the current pair's path from level k up to the root. Pair m's
        node changes only on the levels up to one above the lowest set bit of
        m, so only those suffixes are rebuilt: each node's suffix is
        concatenated once, and the walk holds O(depth) bytes strings besides
        its result. Both leaves of a pair end in the same suffix.
        """
        steps, head = self._steps, prefix + self._count
        depth = len(steps)
        if depth == 0:  # no leaf, or one leaf with an empty path
            return [head] * self.leaf_count
        suffix = [b""] * (depth + 1)  # suffix[depth] is the root's empty path
        bottom = steps[0]
        paths = []
        for m in range((self.leaf_count + 1) // 2):
            k = (m & -m).bit_length() if m else depth - 1
            while k > 0:
                suffix[k] = steps[k][(m >> (k - 1)) ^ 1] + suffix[k + 1]
                k -= 1
            up = suffix[1]
            paths.append(head + bottom[2 * m + 1] + up)
            paths.append(head + bottom[2 * m] + up)
        del paths[self.leaf_count:]  # the path of an odd leaf count's duplicate
        return paths


class MerkleTree(DigestTree):
    """Merkle tree over an ordered list of leaf byte strings: the digest tree
    over their leaf hashes."""

    def __init__(self, leaves: list[bytes]):
        # Leaf hashes are digests by construction: no length check.
        sha256, tag = hashlib.sha256, TAG_MERKLE_LEAF
        self._build([sha256(tag + leaf).digest() for leaf in leaves])

    # Bound on this class too, so that MerkleTree.prove can be wrapped (as
    # perfbench's tracer does) without touching DigestTree.prove.
    prove = DigestTree.prove
