"""Deterministic spanning trees over roster indices.

The tree is laid out breadth-first from the well-known roster order with the
leader at the root, so every participant derives an identical topology with
no communication. Pruning removes failed nodes and re-attaches their
children to the nearest live ancestor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable


class TopologyError(ValueError):
    pass


class LeaderFailedError(TopologyError):
    """The failure set includes the root: signal for a view change."""


@dataclass(frozen=True)
class TreeTopology:
    size: int
    branching: int
    root: int
    parent: tuple  # parent[i] is None for the root and for absent nodes
    children: tuple  # children[i] is a tuple of roster indices
    absent: frozenset[int]

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(range(self.size)) - self.absent

    def node_depth(self, index: int) -> int:
        d = 0
        while self.parent[index] is not None:
            index = self.parent[index]
            d += 1
        return d

    @property
    def depth(self) -> int:
        return max(self.node_depth(i) for i in self.members)

    def postorder(self, start: int) -> list[int]:
        """`start` and its transitive descendants, each node after its children."""
        order, stack = [], [start]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(self.children[n])
        return order[::-1]

    def descendants(self, index: int) -> frozenset[int]:
        """Transitive descendants of `index`, including itself."""
        return self._subtrees[index][0]

    def height(self, index: int) -> int:
        """Levels below `index`: 0 for a leaf."""
        return self._subtrees[index][1]

    @cached_property
    def _subtrees(self) -> list[tuple[frozenset[int], int]]:
        """(descendants, height) of every node, from one post-order pass; a
        node outside the tree is its own subtree."""
        table = [(frozenset((i,)), 0) for i in range(self.size)]
        for n in self.postorder(self.root):
            kids = [table[c] for c in self.children[n]]
            if kids:
                table[n] = (frozenset((n,)).union(*(k[0] for k in kids)),
                            1 + max(k[1] for k in kids))
        return table

    def digest(self) -> bytes:
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        body = b"".join(
            i.to_bytes(4, "big")
            + (0xFFFFFFFF if self.parent[i] is None else self.parent[i]).to_bytes(4, "big")
            for i in sorted(self.members)
        )
        head = self.size.to_bytes(4, "big") + self.branching.to_bytes(4, "big") \
            + self.root.to_bytes(4, "big")
        return hashlib.sha256(b"cosi/topology/v1" + head + body).digest()

    def dump(self) -> str:
        """Indented text rendering for debugging."""
        lines = []

        def walk(node: int, depth: int) -> None:
            lines.append("  " * depth + f"{node}" + (" (leader)" if node == self.root else ""))
            for child in self.children[node]:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def build_bary_tree(size: int, branching: int, leader_index: int = 0) -> TreeTopology:
    """Regular B-ary tree over roster indices, breadth-first, leader at the root."""
    if branching < 1:
        raise TopologyError("branching factor must be >= 1")
    if size < 1:
        raise TopologyError("tree needs at least one node")
    if not 0 <= leader_index < size:
        raise TopologyError("leader index out of range")

    # position k in BFS order maps to roster index order[k]
    order = [leader_index] + [i for i in range(size) if i != leader_index]
    parent = [None] * size
    children = [[] for _ in range(size)]
    for pos in range(1, size):
        ppos = (pos - 1) // branching
        parent[order[pos]] = order[ppos]
        children[order[ppos]].append(order[pos])
    return TreeTopology(
        size=size,
        branching=branching,
        root=leader_index,
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        absent=frozenset(),
    )


def prune_and_reconnect(topology: TreeTopology, failed: Iterable[int]) -> TreeTopology:
    """Drop failed nodes; orphans re-attach to their nearest live ancestor."""
    failed = frozenset(failed)
    if topology.root in failed:
        raise LeaderFailedError("leader is in the failure set")
    out_of_range = [i for i in failed if not 0 <= i < topology.size]
    if out_of_range:
        raise TopologyError(f"failed indices out of range: {sorted(out_of_range)}")
    absent = topology.absent | failed
    orig_parent = list(topology.parent)
    parent = list(topology.parent)
    children = [list(c) for c in topology.children]

    def live_ancestor(i: int) -> int:
        # original pointers: a chain of failures resolves past every dead hop
        p = orig_parent[i]
        while p is not None and p in absent:
            p = orig_parent[p]
        if p is None:
            raise TopologyError("orphan has no live ancestor")
        return p

    for f in sorted(failed):
        p = orig_parent[f]
        if p is not None and f in children[p]:
            children[p].remove(f)
    for f in sorted(failed):
        anchor = None
        for child in list(children[f]):
            if child in absent:
                continue
            anchor = anchor if anchor is not None else live_ancestor(f)
            parent[child] = anchor
            children[anchor].append(child)
        parent[f] = None
        children[f] = []
    for f in absent:
        parent[f] = None
        children[f] = []
    # keep child lists index-sorted so every party derives identical orderings
    children = [sorted(c) for c in children]
    return TreeTopology(
        size=topology.size,
        branching=topology.branching,
        root=topology.root,
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        absent=absent,
    )


def tree_for(size: int, branching: int, leader_index: int = 0,
             failed: Iterable[int] = ()) -> TreeTopology:
    """The deterministic topology every node derives from (roster, B, failed set).

    The result is shared: equal arguments return the same immutable object,
    so callers must not try to modify it.
    """
    return _tree_for(size, branching, leader_index, frozenset(failed))


# One signing attempt derives one key and a node keeps at most 16 rounds, so
# 64 entries cover every tree in use; errors raise out and are not cached.
@lru_cache(maxsize=64)
def _tree_for(size: int, branching: int, leader_index: int,
              failed: frozenset[int]) -> TreeTopology:
    topo = build_bary_tree(size, branching, leader_index)
    if failed:
        topo = prune_and_reconnect(topo, failed)
    return topo
