import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cosikit import merkle
from cosikit.merkle import (
    DigestTree,
    InclusionProof,
    MerkleTree,
    SIBLING_LEFT,
    SIBLING_RIGHT,
    empty_tree_root,
    fold_proof,
    leaf_hash,
    node_hash,
    verify_inclusion,
)


def reference_path(digests, index):
    """Audit path built bottom-up from scratch, duplicating the last node of
    every odd-sized level, as (side, sibling digest) pairs."""
    level, path = list(digests), []
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        if index % 2:
            path.append((SIBLING_LEFT, level[index - 1]))
        else:
            path.append((SIBLING_RIGHT, level[index + 1]))
        level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        index //= 2
    return tuple(path)


def test_single_leaf_root_is_leaf_hash():
    tree = MerkleTree([b"only"])
    assert tree.root == leaf_hash(b"only")
    proof = tree.prove(0)
    assert proof.encode() == b"\x00\x00"
    assert verify_inclusion(tree.root, b"only", proof)


def test_empty_tree_sentinel():
    tree = MerkleTree([])
    assert tree.root == empty_tree_root()
    with pytest.raises(IndexError):
        tree.prove(0)


def test_five_leaves_all_verify():
    leaves = [bytes([i]) * 3 for i in range(5)]
    tree = MerkleTree(leaves)
    for i, leaf in enumerate(leaves):
        proof = tree.prove(i)
        assert verify_inclusion(tree.root, leaf, proof, index=i)
        assert proof.leaf_index == i


def test_wrong_index_rejected():
    leaves = [bytes([i]) for i in range(5)]
    tree = MerkleTree(leaves)
    proof = tree.prove(2)
    assert not verify_inclusion(tree.root, leaves[2], proof, index=3)
    # replaying some other leaf's data under this proof fails too
    assert not verify_inclusion(tree.root, leaves[3], proof)


def test_perturbed_leaf_rejected():
    leaves = [bytes([i]) for i in range(7)]
    tree = MerkleTree(leaves)
    for i in range(7):
        proof = tree.prove(i)
        assert not verify_inclusion(tree.root, leaves[i] + b"x", proof)


def test_root_changes_with_any_leaf():
    leaves = [bytes([i]) for i in range(6)]
    base = MerkleTree(leaves).root
    for i in range(6):
        mutated = list(leaves)
        mutated[i] = b"\xff" + leaves[i]
        assert MerkleTree(mutated).root != base


def test_proof_encoding_roundtrip():
    tree = MerkleTree([bytes([i]) for i in range(9)])
    for i in range(9):
        proof = tree.prove(i)
        again = InclusionProof.decode(proof.encode())
        assert again == proof
    with pytest.raises(ValueError):
        InclusionProof.decode(tree.prove(1).encode()[:-1])


def test_proofs_match_reference_for_every_size_and_index():
    for size in range(1, 71):
        leaves = [i.to_bytes(2, "big") for i in range(size)]
        tree = MerkleTree(leaves)
        digests = [leaf_hash(x) for x in leaves]
        order = list(range(size))
        random.Random(size).shuffle(order)  # the memo must not depend on order
        for i in order:
            proof = tree.prove(i)
            assert proof.encode() == encode_steps(reference_path(digests, i)), (size, i)
            assert InclusionProof.decode(proof.encode()) == proof
            assert verify_inclusion(tree.root, leaves[i], proof, index=i)
            assert tree.prove(i) == proof


def encode_steps(steps):
    return len(steps).to_bytes(2, "big") + b"".join(
        bytes([side]) + digest for side, digest in steps)


def test_decode_rejects_bad_side_or_length_before_folding(monkeypatch):
    good = MerkleTree([bytes([i]) for i in range(5)]).prove(3).encode()

    def no_folding(left, right):
        raise AssertionError("a malformed proof reached the fold")

    monkeypatch.setattr(merkle, "node_hash", no_folding)
    bad_side = bytearray(good)
    bad_side[2 + 33] = 2  # the second step's side byte
    for data, match in [(bytes(bad_side), "side"), (good[:-1], "length"),
                        (good + b"\x00", "length"), (b"\x00\x01", "length"),
                        (b"\x00", "truncated")]:
        with pytest.raises(ValueError, match=match):
            InclusionProof.decode(data)


@settings(max_examples=60, deadline=None)
@given(size=st.integers(min_value=1, max_value=300),
       picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=2))
def test_proof_bytes_match_reference_and_compose_concatenates(size, picks):
    digests = [leaf_hash(i.to_bytes(2, "big")) for i in range(size)]
    tree = DigestTree(digests)
    i, j = (pick % size for pick in picks)
    inner, outer = reference_path(digests, i), reference_path(digests, j)
    assert tree.prove(i).encode() == encode_steps(inner)
    composed = tree.prove(i).compose(tree.prove(j))
    assert composed.encode() == encode_steps(inner + outer)
    assert composed.step_count == len(inner) + len(outer)


def test_proof_bytes_pinned():
    # recorded before proofs shared their steps: every byte must stay
    tree = MerkleTree([bytes([i]) for i in range(11)])
    encoded = [tree.prove(i).encode() for i in range(11)]
    assert hashlib.sha256(b"".join(encoded)).hexdigest() == (
        "5d11cd179e1b595760f84bbc24f92b83a3534e8c33666be8b868aa1e5d5a1415")
    assert encoded[10].hex() == (
        "000401cfc37e23d3706e2e59c408b2b67864d91e28b5d6df3197596477ad284371bb8c00"
        "0781a3ae42406a2847a44544e720a4a770185559897e4120cbacfa33822356af019d00e1"
        "038b8180cb821aa5f5154afcff9fbdeac701f6210928bb926cc0fbe838007dc7935eba7b"
        "f6e797977c7b7f62e854ff4de2e59b2a8ef72fdc234b8c524ea7")


def test_digest_tree_composition():
    inner_leaves = [b"a", b"b", b"c"]
    inner = MerkleTree(inner_leaves)
    other = MerkleTree([b"x"]).root
    outer = DigestTree([inner.root, other])
    composed = inner.prove(1).compose(outer.prove(0))
    assert fold_proof(leaf_hash(b"b"), composed) == outer.root
    # single-digest tree is the digest itself
    solo = DigestTree([inner.root])
    assert solo.root == inner.root
    assert solo.prove(0).encode() == b"\x00\x00"


def test_compose_is_associative():
    t1 = MerkleTree([b"p", b"q"])
    t2 = DigestTree([t1.root, b"\x01" * 32])
    t3 = DigestTree([t2.root, b"\x02" * 32, b"\x03" * 32])
    p1, p2, p3 = t1.prove(0), t2.prove(0), t3.prove(0)
    assert p1.compose(p2).compose(p3) == p1.compose(p2.compose(p3))
    assert fold_proof(leaf_hash(b"p"), p1.compose(p2).compose(p3)) == t3.root


@settings(max_examples=60, deadline=None)
@given(leaves=st.lists(st.binary(min_size=0, max_size=24), min_size=1, max_size=40),
       pick=st.integers(min_value=0, max_value=10**6))
def test_every_proof_verifies(leaves, pick):
    tree = MerkleTree(leaves)
    i = pick % len(leaves)
    proof = tree.prove(i)
    assert verify_inclusion(tree.root, leaves[i], proof)
    assert proof.leaf_index == i


@settings(max_examples=40, deadline=None)
@given(digests=st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=16),
       pick=st.integers(min_value=0, max_value=10**6))
def test_digest_tree_proofs(digests, pick):
    tree = DigestTree(digests)
    i = pick % len(digests)
    assert merkle.fold_proof(digests[i], tree.prove(i)) == tree.root


def assert_proofs_match_prove(tree):
    assert tree.paths(b"") == [tree.prove(i).data for i in range(tree.leaf_count)]


@pytest.mark.parametrize("size", [*range(71), 1023, 1024, 1025])
def test_proofs_walk_matches_prove(size):
    assert_proofs_match_prove(MerkleTree([i.to_bytes(2, "big") for i in range(size)]))


@pytest.mark.parametrize("size", [0, 1, 2, 3, 7, 64])
def test_paths_walk_prefixes_every_proof(size):
    tree = MerkleTree([i.to_bytes(2, "big") for i in range(size)])
    prefix = b"a receipt's head"
    paths = tree.paths(prefix)
    assert paths == [prefix + tree.prove(i).data for i in range(size)]
    assert {len(p) for p in paths} <= {len(prefix) + tree.proof_size}
    assert_proofs_match_prove(tree)


@settings(max_examples=40, deadline=None)
@given(digests=st.lists(st.binary(min_size=32, max_size=32), max_size=80))
def test_proofs_walk_matches_prove_on_random_digests(digests):
    assert_proofs_match_prove(DigestTree(digests))
    assert_proofs_match_prove(MerkleTree(digests))


def test_proofs_walk_holds_only_a_path_per_level():
    # The walk keeps one suffix per level: its peak above what it returns is
    # a few kilobytes, where materialising every level's suffixes would take
    # most of a megabyte for this tree.
    tree = MerkleTree([i.to_bytes(2, "big") for i in range(4096)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        paths = tree.paths(b"")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(paths) == 4096
    assert held > before
    assert peak - held <= 64 * 1024
