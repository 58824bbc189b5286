import hashlib
import itertools
import json
import random
from dataclasses import replace

import pytest

from conftest import count_calls, make_toy_roster, manual_round

from cosikit.group import (
    ED25519,
    TOY,
    DecodeError,
    Ed25519Group,
    KeyPair,
    SelfSignedKey,
    Signature,
    keygen,
    prove_possession,
    verify_possession,
)
from cosikit.multisig import aggregate_public_key
from cosikit.multisig import verify_collective
from cosikit.participation import Threshold, WeightedThreshold
from cosikit.roster import (
    ProvenKey,
    RosterEntry,
    RosterError,
    WitnessRoster,
    build_key_tree,
    build_roster,
    compact_certificate,
    load_roster,
    roster_from_json_obj,
    save_roster,
    verify_key,
)


def entry(i, secret, rng, weight=1):
    kp = KeyPair.from_secret(TOY, secret)
    return RosterEntry(witness_id=f"w{i}".encode(), key=prove_possession(kp, rng),
                       weight=weight)


def test_single_entry_roster(toy_rng):
    roster = build_roster([entry(0, 3, toy_rng)], 0)
    assert len(roster) == 1
    assert roster.leader_index == 0


def test_duplicate_id_rejected(toy_rng):
    a = entry(0, 3, toy_rng)
    b = RosterEntry(witness_id=a.witness_id, key=prove_possession(
        KeyPair.from_secret(TOY, 4), toy_rng))
    with pytest.raises(RosterError):
        build_roster([a, b], 0)


def test_mismatched_possession_proof_rejected(toy_rng):
    a = KeyPair.from_secret(TOY, 3)
    b = KeyPair.from_secret(TOY, 4)
    swapped = SelfSignedKey(public=b.public, proof=prove_possession(a, toy_rng).proof)
    with pytest.raises(RosterError):
        build_roster([RosterEntry(witness_id=b"x", key=swapped)], 0)


def test_leader_index_validated(toy_rng):
    with pytest.raises(RosterError):
        build_roster([entry(0, 3, toy_rng)], 1)


def test_weight_validation(toy_rng):
    with pytest.raises(RosterError):
        entry(0, 3, toy_rng, weight=-1)
    roster = make_toy_roster([3, 4], weights=[0, 2])
    assert roster.weights == (0, 2)
    assert roster.total_weight == 2


def test_roster_file_roundtrip(tmp_path, toy_rng):
    roster = make_toy_roster([3, 4, 5])
    path = tmp_path / "roster.json"
    save_roster(roster, str(path))
    again = load_roster(str(path))
    assert again.digest() == roster.digest()
    assert [e.witness_id for e in again.entries] == [e.witness_id for e in roster.entries]
    obj = json.loads(path.read_text())
    assert set(obj) == {"version", "leader", "group", "entries"}
    assert set(obj["entries"][0]) >= {"id-hex", "key-hex", "proof-hex", "weight"}


def test_roster_digest_serialises_once(monkeypatch):
    roster = make_toy_roster([3, 4, 5])
    calls = []
    canonical_bytes = WitnessRoster.canonical_bytes

    def counting(self):
        calls.append(self)
        return canonical_bytes(self)

    monkeypatch.setattr(WitnessRoster, "canonical_bytes", counting)
    digests = {roster.digest() for _ in range(5)}
    assert digests == {hashlib.sha256(canonical_bytes(roster)).digest()}
    assert calls == [roster]


def test_roster_json_rejects_bad_proof(toy_rng):
    roster = make_toy_roster([3, 4])
    obj = roster.to_json_obj()
    obj["entries"][0]["proof-hex"] = obj["entries"][1]["proof-hex"]
    with pytest.raises(RosterError):
        roster_from_json_obj(obj)


def forged_identity_key(group, rng):
    """A possession proof for the identity made without any secret: with
    R = g^v and s = v, g^s * O^c = R whatever the challenge c."""
    v = group.random_scalar(rng)
    return SelfSignedKey(public=group.identity, proof=Signature(R=group.generator ** v, s=v))


@pytest.mark.parametrize("group", [TOY, ED25519], ids=["toy", "prod"])
def test_identity_key_rejected(group):
    rng = random.Random(5)
    forged = forged_identity_key(group, rng)
    assert verify_possession(forged)
    honest = [RosterEntry(witness_id=f"w{i}".encode(),
                          key=prove_possession(KeyPair.from_secret(group, 3 + i), rng))
              for i in range(2)]
    roster = build_roster(honest, 0)
    with pytest.raises(RosterError, match="identity"):
        build_roster(honest + [RosterEntry(witness_id=b"w2", key=forged)], 0)
    obj = roster.to_json_obj()
    assert roster_from_json_obj(obj).digest() == roster.digest()
    obj["entries"].append({"id-hex": b"w2".hex(), "key-hex": forged.public.encode().hex(),
                           "proof-hex": forged.proof.encode().hex(), "weight": 1})
    with pytest.raises(RosterError, match="identity"):
        roster_from_json_obj(obj)


@pytest.fixture(scope="module")
def prod_entries():
    rng = random.Random(128)
    return [RosterEntry(witness_id=f"w{i}".encode(),
                        key=prove_possession(keygen(ED25519, rng), rng))
            for i in range(128)]


@pytest.mark.parametrize("how", ["s", "R"], ids=["tampered-s", "swapped-R"])
def test_bad_proof_in_a_large_prod_roster_named(prod_entries, how, monkeypatch):
    """The whole roster is checked as one batch; only a failed batch checks
    proofs one by one, each of them, and the error names the first bad one."""
    checked = count_calls(monkeypatch, Ed25519Group, ("check_response",))
    assert len(build_roster(prod_entries, 0)) == 128
    assert checked["check_response"] == 0
    bad = 77
    entries = list(prod_entries)
    key = entries[bad].key
    if how == "s":
        proof = Signature(key.proof.R, key.proof.s + ED25519.scalar(1))
    else:
        proof = Signature(entries[12].key.proof.R, key.proof.s)
    entries[bad] = replace(entries[bad], key=SelfSignedKey(key.public, proof))
    with pytest.raises(RosterError, match=f"failed for witness {b'w77'.hex()}$"):
        build_roster(entries, 0)
    assert checked["check_response"] == 128


def test_roster_json_rejects_mixed_order_key(mixed_generator):
    rng = random.Random(6)
    entries = [RosterEntry(witness_id=f"w{i}".encode(),
                           key=prove_possession(KeyPair.from_secret(ED25519, secret), rng))
               for i, secret in enumerate((1, 5))]  # secret 1: the key is G
    obj = build_roster(entries, 0).to_json_obj()
    assert obj["entries"][0]["key-hex"] == ED25519.generator.encode().hex()
    assert roster_from_json_obj(obj).public_key(0) == ED25519.generator
    obj["entries"][0]["key-hex"] = mixed_generator.hex()
    with pytest.raises(DecodeError, match="prime-order subgroup"):
        roster_from_json_obj(obj)


# -- key tree -------------------------------------------------------------------

def test_key_tree_single():
    roster = make_toy_roster([3])
    tree = build_key_tree(roster)
    from cosikit.merkle import leaf_hash
    assert tree.root == leaf_hash(roster.public_key(0).encode())


def test_key_tree_five_keys():
    roster = make_toy_roster([1, 2, 3, 4, 5])
    tree = build_key_tree(roster)
    for i in range(5):
        proof = tree.prove(i)
        assert verify_key(tree.root, i, roster.public_key(i), proof)
    # replayed at the wrong index
    assert not verify_key(tree.root, 1, roster.public_key(0), tree.prove(0))


def test_key_tree_root_changes_on_any_key():
    base = make_toy_roster([1, 2, 3, 4, 5])
    root = build_key_tree(base).root
    for i in range(5):
        secrets = [1, 2, 3, 4, 5]
        secrets[i] = 6 + i  # any different secret flips the committed key
        mutated = make_toy_roster(secrets)
        assert build_key_tree(mutated).root != root


# -- compact certificates ---------------------------------------------------------

def test_compact_certificate_construction():
    roster = make_toy_roster([3, 4, 5])
    anchor = compact_certificate(roster)
    assert anchor.aggregate_key == roster.aggregate_key()
    assert len(anchor) == 3


def test_verify_compact_paths():
    roster = make_toy_roster([3, 4, 5])
    anchor = compact_certificate(roster)
    tree = build_key_tree(roster)

    # absent = [] leaves the aggregate unchanged
    assert anchor.present_key(frozenset(), []) == roster.aggregate_key()
    # absent = {1} with a proven key for 1
    proven = [ProvenKey(1, roster.public_key(1), tree.prove(1))]
    adjusted = anchor.present_key(frozenset({1}), proven)
    assert adjusted == aggregate_public_key(roster, {0, 2})
    # present-list path
    proven_present = [ProvenKey(i, roster.public_key(i), tree.prove(i))
                      for i in (0, 2)]
    assert anchor.present_key(frozenset({1}), proven_present) == adjusted
    # unproven key in the list
    with pytest.raises(RosterError):
        anchor.present_key(frozenset({1}), [])
    # a bad proof
    with pytest.raises(RosterError):
        anchor.present_key(frozenset({1}),
                           [ProvenKey(1, roster.public_key(0), tree.prove(1))])


def test_compact_matches_full_for_every_subset():
    roster = make_toy_roster([2, 3, 5, 7, 9])
    anchor = compact_certificate(roster)
    tree = build_key_tree(roster)
    proven_all = [ProvenKey(i, roster.public_key(i), tree.prove(i))
                  for i in range(5)]
    for r in range(1, 6):
        for present in itertools.combinations(range(5), r):
            present = frozenset(present)
            got = anchor.present_key(frozenset(range(5)) - present, proven_all)
            assert got == aggregate_public_key(roster, present)


def test_compact_signature_verification(toy_rng):
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    anchor = compact_certificate(roster)
    tree = build_key_tree(roster)
    sig = manual_round(roster, secrets, b"compact", absent={1})
    proofs = [ProvenKey(1, roster.public_key(1), tree.prove(1))]
    res = verify_collective(anchor, b"compact", sig, Threshold(2), key_proofs=proofs)
    assert res.ok
    with pytest.raises(RosterError):
        verify_collective(anchor, b"compact", sig, Threshold(2))


def test_compact_anchor_weighs_witnesses_as_the_roster_does():
    """Weights (0, 0, 1) give an all-present signature a weight of 1, short
    of a weighted threshold of 2, under the roster and under its compact
    anchor alike: the anchor holds the roster's weights tuple itself."""
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets, weights=[0, 0, 1])
    anchor = compact_certificate(roster)
    assert anchor.weights is roster.weights and anchor.total_weight == 1
    sig = manual_round(roster, secrets, b"weighed")
    for held in (roster, anchor):
        res = verify_collective(held, b"weighed", sig, WeightedThreshold(2))
        assert res.crypto_ok and not res.predicate_ok
        assert res.reason == "predicate rejected participation set"
        assert verify_collective(held, b"weighed", sig, WeightedThreshold(1)).ok
