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


@dataclass(frozen=True)
class InclusionProof:
    """Audit path from a leaf to the root, bottom-up."""

    path: tuple[AuditStep, ...]

    @property
    def leaf_index(self) -> int:
        # A left-side sibling means this node was the right child at that level.
        idx = 0
        for k, step in enumerate(self.path):
            if step.side == SIBLING_LEFT:
                idx |= 1 << k
        return idx

    def compose(self, outer: "InclusionProof") -> "InclusionProof":
        """Proof for a leaf of an inner tree whose root is a leaf of an outer tree."""
        return InclusionProof(self.path + outer.path)

    def encode(self) -> bytes:
        return len(self.path).to_bytes(2, "big") + b"".join(
            [_SIDE_BYTE[step.side] + step.digest for step in self.path])

    @classmethod
    def decode(cls, data: bytes) -> "InclusionProof":
        if len(data) < 2:
            raise ValueError("truncated inclusion proof")
        count = int.from_bytes(data[:2], "big")
        need = 2 + count * (1 + DIGEST_SIZE)
        if len(data) != need:
            raise ValueError("bad inclusion proof length")
        steps = []
        off = 2
        for _ in range(count):
            side = data[off]
            digest = data[off + 1:off + 1 + DIGEST_SIZE]
            steps.append(AuditStep(side, digest))
            off += 1 + DIGEST_SIZE
        return cls(tuple(steps))


def fold_proof(leaf_digest: bytes, proof: InclusionProof) -> bytes:
    """Recompute the root implied by a leaf digest and an audit path."""
    cur = leaf_digest
    for step in proof.path:
        if step.side == SIBLING_RIGHT:
            cur = node_hash(cur, step.digest)
        else:
            cur = node_hash(step.digest, cur)
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

    Proofs share their audit steps: `prove` memoizes, per node, the path from
    that node up to the root, so every leaf below a node reuses one tuple and
    each node's step is built at most once per tree.
    """

    def __init__(self, digests: list[bytes]):
        for d in digests:
            if len(d) != DIGEST_SIZE:
                raise ValueError("digest tree leaves must be digests")
        self.leaf_count = len(digests)
        self.levels: list[list[bytes]] = []
        self._paths: list[dict[int, tuple[AuditStep, ...]]] = []  # see _path
        if self.leaf_count == 0:
            self.root = empty_tree_root()
            return
        level = list(digests)
        self.levels.append(level)
        while len(level) > 1:
            if len(level) % 2 == 1:
                level = level + [level[-1]]
                self.levels[-1] = level
            level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
            self.levels.append(level)
        self.root = level[0]
        self._paths = [{} for _ in self.levels[1:]]

    def prove(self, index: int) -> InclusionProof:
        if not 0 <= index < self.leaf_count:
            raise IndexError("leaf index out of range")
        return InclusionProof(self._path(0, index))

    def _path(self, k: int, idx: int) -> tuple[AuditStep, ...]:
        """Audit path from node `idx` of level `k` up to the root, memoized."""
        if k == len(self._paths):
            return ()
        path = self._paths[k].get(idx)
        if path is None:
            level = self.levels[k]
            if idx % 2 == 0:
                step = AuditStep(SIBLING_RIGHT, level[idx + 1])
            else:
                step = AuditStep(SIBLING_LEFT, level[idx - 1])
            path = self._paths[k][idx] = (step,) + self._path(k + 1, idx // 2)
        return path


class MerkleTree(DigestTree):
    """Merkle tree over an ordered list of leaf byte strings: the digest tree
    over their leaf hashes."""

    def __init__(self, leaves: list[bytes]):
        super().__init__([leaf_hash(leaf) for leaf in leaves])

    # Bound on this class too, so that MerkleTree.prove can be wrapped (as
    # perfbench's tracer does) without touching DigestTree.prove.
    prove = DigestTree.prove
