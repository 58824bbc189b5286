"""Deterministic spanning trees over roster indices.

The tree is laid out breadth-first from the well-known roster order with the
leader at the root, so every participant derives an identical topology with
no communication. Pruning hangs every survivor from its nearest live
ancestor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator


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
    children: tuple  # children[i] is a tuple of roster indices, ascending
    absent: frozenset[int]

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(range(self.size)) - self.absent

    def walk(self, start: int) -> Iterator[tuple[int, int]]:
        """(node, depth below `start`) for `start` and its transitive
        descendants, depth first, each node before its children."""
        stack = [(start, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            depth += 1
            stack.extend([(c, depth) for c in reversed(self.children[node])])

    @property
    def depth(self) -> int:
        return max(d for _, d in self.walk(self.root))

    def postorder(self, start: int) -> list[int]:
        """`start` and its transitive descendants, each node after its children."""
        return [n for n, _ in self.walk(start)][::-1]

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
        return "\n".join("  " * d + f"{n}" + (" (leader)" if n == self.root else "")
                         for n, d in self.walk(self.root))


def _tree(size: int, branching: int, root: int, parent: list,
          absent: frozenset[int]) -> TreeTopology:
    """The topology with these parent pointers; children are listed in index
    order, so every party derives identical orderings."""
    children = [[] for _ in range(size)]
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)
    return TreeTopology(size=size, branching=branching, root=root, parent=tuple(parent),
                        children=tuple(map(tuple, children)), absent=absent)


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
    for pos in range(1, size):
        parent[order[pos]] = order[(pos - 1) // branching]
    return _tree(size, branching, leader_index, parent, frozenset())


def prune_and_reconnect(topology: TreeTopology, failed: Iterable[int]) -> TreeTopology:
    """Drop failed nodes; every survivor hangs from its nearest ancestor, by
    `topology`'s parent pointers, that is not absent."""
    failed = frozenset(failed)
    if topology.root in failed:
        raise LeaderFailedError("leader is in the failure set")
    out_of_range = [i for i in failed if not 0 <= i < topology.size]
    if out_of_range:
        raise TopologyError(f"failed indices out of range: {sorted(out_of_range)}")
    absent = topology.absent | failed
    parent = [None] * topology.size
    for i in topology.members - failed - {topology.root}:
        p = topology.parent[i]
        while p in absent:
            p = topology.parent[p]
        if p is None:
            raise TopologyError("orphan has no live ancestor")
        parent[i] = p
    return _tree(topology.size, topology.branching, topology.root, parent, absent)


def tree_for(size: int, branching: int, leader_index: int = 0,
             failed: Iterable[int] = ()) -> TreeTopology:
    """The deterministic topology every node derives from (roster, B, failed set).

    The result is shared: equal arguments return the same immutable object,
    so callers must not try to modify it.
    """
    return _tree_for(size, branching, leader_index, frozenset(failed))


# One signing attempt derives one key and a node keeps at most 16 rounds
# (`engine.ROUND_STATES_KEPT`), so 64 entries cover every tree in use;
# errors raise out and are not cached.
@lru_cache(maxsize=64)
def _tree_for(size: int, branching: int, leader_index: int,
              failed: frozenset[int]) -> TreeTopology:
    topo = build_bary_tree(size, branching, leader_index)
    if failed:
        topo = prune_and_reconnect(topo, failed)
    return topo
