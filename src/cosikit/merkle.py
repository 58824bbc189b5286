"""Binary Merkle trees with audit-path inclusion proofs.

Used for the roster key tree, the per-round timestamp trees and the commit
tree. Leaves and interior nodes are hashed under distinct domain tags; a level
with an odd node count duplicates its last node. Proof steps record which side
the sibling sits on, so the leaf index is fully determined by the path and
composed proofs (sub-tree proof followed by outer-tree proof) remain plain
concatenations. A tree proves one leaf (`prove`) or all of them in leaf
order from one walk. The walk (`paths`) returns every leaf's path bytes
behind a prefix the caller gives: a timestamp round passes its receipts'
common head, so each receipt's wire bytes are built whole and no proof object
is made per leaf.

A tree of trees (`TreeOfTrees`) nests digest trees along a spanning tree:
each node's tree is over its own digest, then its children's roots in child
order, and a node's proof is its own path composed with each ancestor's. The
commit tree applies it to individual commits and the scalable timestamp tree
to local batch roots; a signing node, which needs only its own tree's root,
folds it with `digest_root`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .group import TAG_EMPTY_TREE, TAG_MERKLE_LEAF, TAG_MERKLE_NODE, DecodeError

DIGEST_SIZE = 32

SIBLING_LEFT = 0
SIBLING_RIGHT = 1
_SIDE_BYTE = (bytes([SIBLING_LEFT]), bytes([SIBLING_RIGHT]))
_SIDE_BYTES = b"".join(_SIDE_BYTE)
STEP_SIZE = 1 + DIGEST_SIZE  # side byte, then the sibling digest


def leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(TAG_MERKLE_LEAF + data).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(TAG_MERKLE_NODE + left + right).digest()


def empty_tree_root() -> bytes:
    """Sentinel root for a round with no leaves."""
    return hashlib.sha256(TAG_EMPTY_TREE).digest()


@dataclass(frozen=True, slots=True)
class InclusionProof:
    """Audit path from a leaf to the root, bottom-up, held in its wire form:
    a 2-byte step count, then per step a side byte and the sibling digest."""

    data: bytes

    @property
    def step_count(self) -> int:
        return int.from_bytes(self.data[:2], "big")

    @property
    def leaf_index(self) -> int:
        # A left-side sibling means this node was the right child at that level.
        sides = self.data[2::STEP_SIZE]
        return sum(1 << k for k, side in enumerate(sides) if side == SIBLING_LEFT)

    def compose(self, outer: "InclusionProof") -> "InclusionProof":
        """Proof for a leaf of an inner tree whose root is a leaf of an outer tree."""
        count = self.step_count + outer.step_count
        return InclusionProof(count.to_bytes(2, "big") + self.data[2:] + outer.data[2:])

    def encode(self) -> bytes:
        return self.data

    @classmethod
    def decode(cls, data: bytes) -> "InclusionProof":
        data = bytes(data)
        if len(data) < 2:
            raise DecodeError("truncated inclusion proof")
        if len(data) != 2 + int.from_bytes(data[:2], "big") * STEP_SIZE:
            raise DecodeError("bad inclusion proof length")
        if data[2::STEP_SIZE].translate(None, _SIDE_BYTES):
            raise DecodeError("bad audit step side")
        return cls(data)


def fold_proof(leaf_digest: bytes, proof: InclusionProof) -> bytes:
    """Recompute the root implied by a leaf digest and an audit path."""
    cur, data = leaf_digest, proof.data
    for off in range(2, len(data), STEP_SIZE):
        sibling = data[off + 1:off + STEP_SIZE]
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


def _level_above(level: list[bytes]) -> list[bytes]:
    """The digests one level above `level`, which an odd count pads in place
    by duplicating its last digest."""
    if len(level) % 2 == 1:
        level.append(level[-1])
    sha256, tag = hashlib.sha256, TAG_MERKLE_NODE
    return [sha256(tag + left + right).digest() for left, right in zip(level[0::2], level[1::2])]


def digest_root(digests: list[bytes]) -> bytes:
    """`DigestTree(digests).root` for one or more digests, folded level by
    level with no audit steps kept: a single digest is its own root."""
    level = list(digests)
    while len(level) > 1:
        level = _level_above(level)
    return level[0]


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
        left_side, right_side = _SIDE_BYTE
        while len(level) > 1:
            above = _level_above(level)
            steps = [b""] * len(level)
            steps[0::2] = [left_side + d for d in level[0::2]]
            steps[1::2] = [right_side + d for d in level[1::2]]
            self._steps.append(steps)
            level = above
        self.root = level[0]
        self._count = len(self._steps).to_bytes(2, "big")

    @property
    def proof_size(self) -> int:
        """Bytes in every leaf's proof: all leaves sit at the same depth."""
        return 2 + len(self._steps) * STEP_SIZE

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


class TreeOfTrees:
    """Digest trees nested along a spanning tree, built in post-order: each
    node's tree is over its own digest, then its children's roots in the
    topology's child order, and the root node's root commits every digest. A
    node without children is its own digest, as a one-digest tree is."""

    def __init__(self, topology, own: dict[int, bytes]):
        self.topology = topology
        self.node_trees: dict[int, DigestTree] = {}
        for node in topology.postorder(topology.root):
            self.node_trees[node] = DigestTree(
                [own[node]] + [self.node_trees[c].root for c in topology.children[node]])
        self.root = self.node_trees[topology.root].root

    def prove(self, node: int) -> InclusionProof:
        """Path from `node`'s own digest up to the root: its place in its own
        tree, then its tree's place in each ancestor's."""
        topo = self.topology
        proof = self.node_trees[node].prove(0)
        while node != topo.root:
            parent = topo.parent[node]
            proof = proof.compose(
                self.node_trees[parent].prove(1 + topo.children[parent].index(node)))
            node = parent
        return proof
