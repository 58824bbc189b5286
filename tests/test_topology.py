import random

import pytest
from hypothesis import given, settings, strategies as st

from cosikit import simnet
from cosikit.topology import (
    LeaderFailedError,
    TopologyError,
    TreeTopology,
    build_bary_tree,
    prune_and_reconnect,
    tree_for,
)


def test_single_node():
    topo = build_bary_tree(1, 4)
    assert topo.depth == 0
    assert topo.root == 0
    assert topo.children[0] == ()


def test_complete_binary_seven():
    topo = build_bary_tree(7, 2)
    assert topo.depth == 2
    assert topo.children[0] == (1, 2)
    assert topo.children[1] == (3, 4)
    assert topo.children[2] == (5, 6)
    assert all(topo.children[i] == () for i in (3, 4, 5, 6))
    assert topo.parent[3] == 1 and topo.parent[6] == 2


def test_branching_validation():
    with pytest.raises(TopologyError):
        build_bary_tree(4, 0)
    with pytest.raises(TopologyError):
        build_bary_tree(0, 2)


def test_nonzero_leader_layout():
    topo = build_bary_tree(5, 2, leader_index=3)
    assert topo.root == 3
    assert topo.parent[3] is None
    # BFS order over roster order with the leader first: [3, 0, 1, 2, 4]
    assert topo.children[3] == (0, 1)
    assert topo.children[0] == (2, 4)


def test_determinism():
    a = build_bary_tree(33, 4, leader_index=5)
    b = build_bary_tree(33, 4, leader_index=5)
    assert a.digest() == b.digest()
    assert a == b
    c = build_bary_tree(33, 5, leader_index=5)
    assert c.digest() != a.digest()


def test_descendant_counts_consistent():
    topo = build_bary_tree(23, 3)
    for i in range(23):
        expect = 1 + sum(len(topo.descendants(c)) for c in topo.children[i])
        assert len(topo.descendants(i)) == expect
    assert len(topo.descendants(0)) == 23


def test_dump_renders_every_member():
    topo = tree_for(7, 2, 0, failed={3})
    text = topo.dump()
    lines = text.splitlines()
    assert len(lines) == 6
    assert "(leader)" in lines[0]


def test_walk_visits_each_member_once_below_its_parent():
    topo = tree_for(40, 3, 7, {8, 9, 20})
    depth = {}
    for node, d in topo.walk(topo.root):
        assert node not in depth
        assert d == (0 if node == topo.root else depth[topo.parent[node]] + 1)
        depth[node] = d
    assert set(depth) == topo.members
    assert topo.depth == max(depth.values())
    order = topo.postorder(topo.root)
    assert all(order.index(c) < order.index(n) for n in order for c in topo.children[n])
    assert next(topo.walk(2)) == (2, 0)
    assert set(topo.postorder(2)) == topo.descendants(2)


# -- pruning ---------------------------------------------------------------------

def test_prune_empty_is_identity():
    topo = build_bary_tree(7, 2)
    assert prune_and_reconnect(topo, set()) == topo


def test_prune_depth_one_node():
    topo = build_bary_tree(7, 2)
    pruned = prune_and_reconnect(topo, {1})
    # node 1's children re-attach to the root, which now has three children
    assert pruned.children[0] == (2, 3, 4)
    assert pruned.parent[3] == 0 and pruned.parent[4] == 0
    assert pruned.parent[1] is None
    assert pruned.members == frozenset({0, 2, 3, 4, 5, 6})


def test_prune_all_leaves():
    topo = build_bary_tree(7, 2)
    pruned = prune_and_reconnect(topo, {3, 4, 5, 6})
    assert pruned.members == frozenset({0, 1, 2})
    assert pruned.depth == 1


def test_prune_chain_of_failures():
    topo = build_bary_tree(15, 2)
    # both 1 and its child 3 fail: 3's children hop all the way to the root
    pruned = prune_and_reconnect(topo, {1, 3})
    assert pruned.parent[7] == 0 and pruned.parent[8] == 0
    assert pruned.parent[4] == 0
    assert set(pruned.children[0]) == {2, 4, 7, 8}


def test_prune_leader_fails():
    topo = build_bary_tree(7, 2)
    with pytest.raises(LeaderFailedError):
        prune_and_reconnect(topo, {0})


def test_prune_out_of_range():
    topo = build_bary_tree(3, 2)
    with pytest.raises(TopologyError):
        prune_and_reconnect(topo, {9})


def test_prune_orphan_without_live_ancestor():
    # a hand-built forest: 1 has no parent, so its child 2 has nowhere to go
    forest = TreeTopology(size=3, branching=2, root=0, parent=(None, None, 1),
                          children=((), (2,), ()), absent=frozenset())
    with pytest.raises(TopologyError, match="orphan has no live ancestor"):
        prune_and_reconnect(forest, {1})


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=80),
       branching=st.integers(min_value=1, max_value=6),
       data=st.data())
def test_survivors_hang_from_nearest_live_ancestor(n, branching, data):
    leader = data.draw(st.integers(min_value=0, max_value=n - 1))
    failed = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1))) - {leader}
    # oracle: BFS positions, leader first, then the rest in roster order
    order = [leader] + [i for i in range(n) if i != leader]
    position = {node: pos for pos, node in enumerate(order)}

    def nearest_live_ancestor(i):
        pos = position[i]
        while pos:
            pos = (pos - 1) // branching
            if order[pos] not in failed:
                return order[pos]
        return None

    topo = tree_for(n, branching, leader, failed)
    assert topo.parent == tuple(None if i in failed else nearest_live_ancestor(i)
                                for i in range(n))
    assert topo.children == tuple(tuple(c for c in range(n) if topo.parent[c] == i)
                                  for i in range(n))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=64),
       branching=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_prune_preserves_survivors(n, branching, seed):
    rng = random.Random(seed)
    failed = {i for i in range(1, n) if rng.random() < 0.3}
    topo = tree_for(n, branching, 0, failed)
    assert topo.members == frozenset(range(n)) - failed
    # exactly one root, acyclic, every member reachable
    seen = set()
    stack = [0]
    while stack:
        cur = stack.pop()
        assert cur not in seen
        seen.add(cur)
        stack.extend(topo.children[cur])
    assert seen == topo.members
    for m in topo.members - {0}:
        assert topo.parent[m] in topo.members


# -- shared trees ------------------------------------------------------------------

def test_tree_for_shares_one_object_per_key():
    topo = tree_for(64, 4, 3, frozenset({5, 17, 18}))
    assert tree_for(64, 4, 3, [18, 5, 17]) is topo
    assert tree_for(64, 4, 3, (5, 17, 18, 5)) is topo
    assert tree_for(64, 4, 3, frozenset({5, 17, 18})) is topo
    assert tree_for(64, 4, 3, ()) is not topo
    assert topo.members is topo.members


def test_tree_digest_pinned():
    # recorded before trees were shared: a change here changes every Announce
    pruned = tree_for(64, 4, 3, {5, 17, 18})
    assert pruned.digest().hex() == (
        "bce06237fe43543c0afbfd5ae5cbbee2b335d7ace2f2e999cf795b78f6ab514c")
    assert tree_for(64, 4, 3).digest().hex() == (
        "9f3e73866b7bdaa220983a9756909c840d540ba8ef302b6285c0c007be5e0532")
    assert pruned.digest() == prune_and_reconnect(
        build_bary_tree(64, 4, 3), {5, 17, 18}).digest()


def _seeded_failures(n, leader, seed):
    rng = random.Random(seed)
    return frozenset(i for i in range(n) if i != leader and rng.random() < 0.25)


@pytest.mark.parametrize("n, branching, leader, seed, digest", [
    (1, 1, 0, 0, "b8fd297e1616e37e02835858426f100d5c60246dc1ba8eb0bb2f89e321acfddd"),
    (9, 1, 4, 1, "0dabc2d5129e3a39632051ed6709e9dbad2b5eccd8cf75bba3884ce3a5d35d4e"),
    (40, 1, 0, 2, "67244b28b5d192ec46430ef59578ee4d12a605e1935c81729302a4c4968af4e2"),
    (40, 1, 39, 3, "53ee2cd0a9d8a7224fd2c37832013f64d67e858823f5fcff893fbcca0869d397"),
    (50, 2, 7, 4, "4280674842b13de40ea2e5df1507a6a963926940963080caf106204c4d10134c"),
    (64, 3, 63, 5, "41e0ae9ed6cff11b544dba4aa6f1617e51123c658a9116c726930e4ac77e94df"),
    (100, 4, 17, 6, "170dad9c3215b8ad959563483c4e7a2e4137e5814ff9ddd1ba2b45f974650f54"),
    (128, 16, 5, 7, "80c00ff03a06d1e12179d0d116a98d647fd4f84728a074945a2087ab95b9f78b"),
    (257, 8, 200, 8, "bd307e18dac5069d4bbc0d1c2b5a54ae8657bdca2993ff35d124c5b99e90b30c"),
])
def test_pruned_tree_digests_pinned(n, branching, leader, seed, digest):
    # recorded before pruning became one pass: a change here changes every Announce
    failed = _seeded_failures(n, leader, seed)
    assert tree_for(n, branching, leader, failed).digest().hex() == digest


def test_tree_for_errors_raised_on_every_call():
    for _ in range(2):
        with pytest.raises(LeaderFailedError):
            tree_for(16, 4, 3, {3, 7})
        with pytest.raises(TopologyError):
            tree_for(16, 4, 3, {16})


def test_round_states_share_one_topology(round_states):
    sim = simnet.CosiSim(simnet.SimConfig(seed=5, n=64, branching=4))
    _, result = sim.run_round(0)
    assert result is not None and result.ok
    states = round_states(sim)
    assert sorted(i for i, _ in states) == list(range(64))
    assert {id(st.topology) for _, st in states} == {id(tree_for(64, 4, 0))}
