import copy
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_cuts_rejected, audit_path, count_calls, make_toy_roster, \
    manual_round, swap_generator

from cosikit import multisig, roster as roster_mod
from cosikit.group import ED25519, TOY, DecodeError, KeyPair, Reader, challenge_hash, \
    keygen, prove_possession
from cosikit.group import TAG_SIGN, Ed25519Group
from cosikit.multisig import (
    MODE_NO_RESTART,
    MODE_RESTART,
    CollectiveSignature,
    CommitException,
    CommitTree,
    MultisigError,
    aggregate_elements,
    aggregate_public_key,
    adjust_key_for_absent,
    collective_challenge,
    response_share,
    verify_collective,
    verify_commit_inclusion,
)
from cosikit.wire import Response, decode_frame_body, encode_message
from cosikit.participation import ParticipationSet, Threshold
from cosikit.roster import (
    CompactAnchor,
    ProvenKey,
    RosterEntry,
    RosterError,
    WitnessRoster,
    build_key_tree,
    build_roster,
    compact_certificate,
)
from cosikit.topology import tree_for


def toy_int(element):
    return int.from_bytes(element.encode(), "little")


# -- aggregation primitives ---------------------------------------------------

def test_aggregate_elements_empty_is_identity():
    assert aggregate_elements(TOY, []) == TOY.identity


def test_aggregate_elements_toy_values():
    # X(3)=8, X(4)=16; 8*16 mod 23 = 128 mod 23 = 13
    a = KeyPair.from_secret(TOY, 3).public
    b = KeyPair.from_secret(TOY, 4).public
    assert toy_int(aggregate_elements(TOY, [a, b])) == 13
    assert aggregate_elements(TOY, [a]) == a


def test_aggregate_public_key(toy_rng):
    roster = make_toy_roster([3, 4])
    assert toy_int(aggregate_public_key(roster, {0, 1})) == 13
    assert aggregate_public_key(roster, {1}) == roster.public_key(1)
    with pytest.raises(MultisigError):
        aggregate_public_key(roster, set())
    with pytest.raises(MultisigError):
        aggregate_public_key(roster, {5})


def test_adjust_key_for_absent_examples():
    full = TOY.decode_element((13).to_bytes(2, "little"))
    x4 = KeyPair.from_secret(TOY, 4).public  # 16
    assert adjust_key_for_absent(full, []) == full
    assert toy_int(adjust_key_for_absent(full, [x4])) == 8
    x3 = KeyPair.from_secret(TOY, 3).public
    assert adjust_key_for_absent(full, [x3, x4]) == TOY.identity


def test_subset_oracle_adjust_equals_aggregate():
    secrets = [2, 3, 5, 7, 9]
    roster = make_toy_roster(secrets)
    full = roster.aggregate_key()
    everyone = set(range(5))
    for r in range(0, 6):
        for absent in itertools.combinations(range(5), r):
            present = everyone - set(absent)
            adjusted = adjust_key_for_absent(
                full, [roster.public_key(i) for i in absent])
            if present:
                assert adjusted == aggregate_public_key(roster, present)
            else:
                assert adjusted == TOY.identity


def _prod_roster(n, rng):
    entries = [RosterEntry(witness_id=bytes([i]),
                           key=prove_possession(keygen(ED25519, rng), rng))
               for i in range(n)]
    return build_roster(entries, 0)


@pytest.mark.parametrize("group", ["toy", "prod"])
def test_present_key_matches_aggregate_public_key(monkeypatch, group):
    rng = random.Random(11)
    n = 8
    roster = (make_toy_roster([2, 3, 5, 7, 9, 10, 4, 6]) if group == "toy"
              else _prod_roster(n, rng))
    assert roster.aggregate_key() is roster.aggregate_key()
    # the roster multiplies present keys directly through this product
    products = []
    real = roster_mod.aggregate_elements
    monkeypatch.setattr(roster_mod, "aggregate_elements",
                        lambda g, elems: products.append(g) or real(g, elems))
    for k in (0, 1, n // 2, n - 1):
        absent = frozenset(rng.sample(range(n), k))
        present = frozenset(range(n)) - absent
        before = len(products)
        key = roster.present_key(absent)
        divided = len(products) == before
        assert key == aggregate_public_key(roster, present), k
        # the full key is divided down only while fewer are absent than present
        assert divided == (k < n - k), k
    # everyone absent, and absent indices outside the roster
    for bad in (frozenset(range(n)), frozenset({n}), frozenset({-1, 0})):
        with pytest.raises(RosterError):
            roster.present_key(bad)


def test_cached_roster_key_still_rejects_tampered_statement():
    secrets = [2, 3, 5, 7, 9]
    roster = make_toy_roster(secrets)
    sig = manual_round(roster, secrets, b"stmt", absent={3})
    assert roster.aggregate_key() is roster.aggregate_key()
    assert verify_collective(roster, b"stmt", sig, Threshold(1)).ok
    # the tampered statement is checked in the production group, where a
    # challenge cannot collide by chance as it can in the order-11 toy group
    prod_roster, prod_sig = _prod_round(random.Random(12), n=5, response_absent={2},
                                        mode=MODE_NO_RESTART)
    assert verify_collective(prod_roster, b"prod", prod_sig, Threshold(1)).ok
    assert prod_roster.aggregate_key() is prod_roster.aggregate_key()
    for _ in range(2):
        res = verify_collective(prod_roster, b"prodX", prod_sig, Threshold(1))
        assert not res.crypto_ok and res.reason == "challenge mismatch"


# -- challenges and responses --------------------------------------------------

def test_collective_challenge_modes_differ():
    commit = keygen(ED25519, random.Random(4)).public
    plain = collective_challenge(commit, b"s")
    treed = collective_challenge(commit, b"s", b"\x00" * 32)
    assert plain.value == collective_challenge(commit, b"s").value
    assert plain.value != treed.value


def test_collective_challenge_distinct_from_plain_schnorr():
    # same commit and statement, but domain tags separate the two protocols;
    # asserted in the production group where a mod-q collision cannot occur
    commit = keygen(ED25519, random.Random(5)).public
    collective = collective_challenge(commit, b"s")
    plain = challenge_hash(commit, b"s", TAG_SIGN)
    assert collective.value != plain.value


def test_response_share_examples():
    assert response_share(TOY.scalar(5), TOY.scalar(2), TOY.scalar(3)).value == 10
    v = TOY.scalar(7)
    assert response_share(v, TOY.scalar(0), TOY.scalar(9)).value == v.value


def test_three_witness_sum_matches_aggregate(toy_rng):
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    sig = manual_round(roster, secrets, b"round")
    res = verify_collective(roster, b"round", sig, Threshold(3))
    assert res.ok
    # Schnorr relation holds against the aggregate key
    agg = aggregate_public_key(roster, {0, 1, 2})
    recomputed = (TOY.generator ** sig.response) * (agg ** sig.challenge)
    assert collective_challenge(recomputed, b"round").value == sig.challenge.value


# -- verification -------------------------------------------------------------

def test_verify_collective_accepts_and_diagnoses(toy_roster3, toy_secrets3):
    sig = manual_round(toy_roster3, toy_secrets3, b"stmt")
    ok = verify_collective(toy_roster3, b"stmt", sig, Threshold(2))
    assert ok.ok and ok.crypto_ok and ok.predicate_ok
    too_strict = verify_collective(toy_roster3, b"stmt", sig, Threshold(4))
    assert not too_strict.ok
    assert too_strict.crypto_ok and not too_strict.predicate_ok
    assert "predicate" in too_strict.reason
    assert "present 3/3" in too_strict.diagnostics()


def test_empty_statement_allowed(toy_roster3, toy_secrets3):
    sig = manual_round(toy_roster3, toy_secrets3, b"")
    assert verify_collective(toy_roster3, b"", sig, Threshold(3)).ok


def test_verify_zero_participants_is_error(toy_roster3, toy_secrets3):
    sig = manual_round(toy_roster3, toy_secrets3, b"stmt")
    empty = CollectiveSignature(
        group=TOY, mode=MODE_RESTART, challenge=sig.challenge, response=sig.response,
        participation=ParticipationSet(count=3, response_present=frozenset()),
    )
    with pytest.raises(MultisigError):
        verify_collective(toy_roster3, b"stmt", empty, Threshold(0))


def test_no_restart_round_with_dropout(toy_roster3, toy_secrets3):
    sig = manual_round(toy_roster3, toy_secrets3, b"stmt",
                       response_absent={2}, mode=MODE_NO_RESTART)
    assert [e.index for e in sig.exceptions] == [2]
    ok = verify_collective(toy_roster3, b"stmt", sig, Threshold(2))
    assert ok.ok
    # tampering the listed individual commit breaks its inclusion proof
    exc = sig.exceptions[0]
    tampered = CollectiveSignature(
        group=TOY, mode=sig.mode, challenge=sig.challenge, response=sig.response,
        participation=sig.participation, commit_root=sig.commit_root,
        exceptions=(CommitException(exc.index, exc.commit * TOY.generator, exc.proof),),
    )
    bad = verify_collective(toy_roster3, b"stmt", tampered, Threshold(2))
    assert not bad.ok and not bad.crypto_ok


def test_exception_also_listed_present_rejected(toy_roster3, toy_secrets3):
    sig = manual_round(toy_roster3, toy_secrets3, b"both",
                       response_absent={2}, mode=MODE_NO_RESTART)
    listed = dataclasses.replace(sig, participation=ParticipationSet(
        count=3, response_present=frozenset({0, 1, 2})))
    back = CollectiveSignature.from_bytes(listed.to_bytes(), 3)
    assert [e.index for e in back.exceptions] == [2]
    assert back.participation.response_present == frozenset({0, 1, 2})
    res = verify_collective(toy_roster3, b"both", back, Threshold(1))
    assert not res.crypto_ok
    assert res.reason == "exceptions do not match participation sets"


def test_repeated_exception_index_rejected(toy_roster3, toy_secrets3):
    sig = manual_round(toy_roster3, toy_secrets3, b"twice",
                       response_absent={2}, mode=MODE_NO_RESTART)
    twice = dataclasses.replace(sig, exceptions=sig.exceptions * 2)
    res = verify_collective(toy_roster3, b"twice", twice, Threshold(1))
    assert not res.crypto_ok and res.reason == "duplicate commit exceptions"


def test_exception_soundness_small():
    # every nonempty absent subset of a 5-witness roster (leader present):
    # adjusted verification accepts; the full-key reading must not
    secrets = [1, 1, 1, 1, 1]
    roster = make_toy_roster(secrets)
    rng = random.Random(1)  # pinned: avoids the toy group's 1/q challenge slack
    for r in range(1, 5):
        for absent in itertools.combinations(range(1, 5), r):
            sig = manual_round(roster, secrets, b"exc", absent=set(absent), rng=rng)
            assert verify_collective(roster, b"exc", sig, Threshold(1)).ok
            forged = CollectiveSignature(
                group=TOY, mode=MODE_RESTART, challenge=sig.challenge,
                response=sig.response,
                participation=ParticipationSet(count=5,
                                               response_present=frozenset(range(5))),
            )
            res = verify_collective(roster, b"exc", forged, Threshold(1))
            assert not res.crypto_ok, (absent, res)


# -- order independence and unforgeability -------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_aggregation_order_independent(seed):
    rng = random.Random(seed)
    elems = [TOY.generator ** TOY.scalar(rng.randrange(1, 11)) for _ in range(6)]
    shuffled = list(elems)
    rng.shuffle(shuffled)
    assert aggregate_elements(TOY, elems) == aggregate_elements(TOY, shuffled)
    scalars = [TOY.random_scalar(rng) for _ in range(6)]
    total = TOY.scalar(0)
    for s in scalars:
        total = total + s
    back = TOY.scalar(0)
    for s in reversed(scalars):
        back = back + s
    assert total.value == back.value


def _prod_keys(rng, n):
    keys = [keygen(ED25519, rng) for _ in range(n)]
    entries = [RosterEntry(witness_id=bytes([i]), key=prove_possession(k, rng))
               for i, k in enumerate(keys)]
    return build_roster(entries, 0), keys


def _prod_sign(rng, keys, response_absent=frozenset(), mode=MODE_RESTART):
    """A collective signature on b"prod" by the witnesses of `keys` not in
    `response_absent`. In no-restart mode the absent ones commit and become
    commit exceptions; in restart mode they are absent from both phases."""
    n = len(keys)
    responders = frozenset(range(n)) - frozenset(response_absent)
    commit_present = frozenset(range(n)) if mode == MODE_NO_RESTART else responders
    nonces = {i: ED25519.random_scalar(rng) for i in sorted(commit_present)}
    commits = {i: ED25519.generator ** v for i, v in nonces.items()}
    agg = aggregate_elements(ED25519, commits.values())
    root = None
    exceptions = ()
    if mode == MODE_NO_RESTART:
        topo = tree_for(n, 2, 0)
        tree = CommitTree(topo, commits)
        root = tree.root
        c = collective_challenge(agg, b"prod", root)
        exceptions = tuple(CommitException(i, commits[i], tree.prove(i))
                           for i in sorted(response_absent))
    else:
        c = collective_challenge(agg, b"prod")
    total = ED25519.scalar(0)
    for i in sorted(responders):
        total = total + response_share(nonces[i], c, keys[i].secret)
    pset = ParticipationSet(count=n, response_present=responders,
                            commit_present=commit_present)
    return CollectiveSignature(group=ED25519, mode=mode, challenge=c, response=total,
                               participation=pset, commit_root=root,
                               exceptions=exceptions)


def _prod_round(rng, n=3, response_absent=frozenset(), mode=MODE_RESTART):
    roster, keys = _prod_keys(rng, n)
    return roster, _prod_sign(rng, keys, response_absent, mode)


def test_unforgeability_smoke_mutations():
    rng = random.Random(7)
    roster, sig = _prod_round(rng, n=3, response_absent={2}, mode=MODE_NO_RESTART)
    assert verify_collective(roster, b"prod", sig, Threshold(1)).ok

    def variants():
        yield CollectiveSignature(group=sig.group, mode=sig.mode,
                                  challenge=sig.challenge + ED25519.scalar(1),
                                  response=sig.response, participation=sig.participation,
                                  commit_root=sig.commit_root, exceptions=sig.exceptions)
        yield CollectiveSignature(group=sig.group, mode=sig.mode, challenge=sig.challenge,
                                  response=sig.response + ED25519.scalar(1),
                                  participation=sig.participation,
                                  commit_root=sig.commit_root, exceptions=sig.exceptions)
        # flip participation: claim the dropped witness responded
        yield CollectiveSignature(group=sig.group, mode=sig.mode, challenge=sig.challenge,
                                  response=sig.response,
                                  participation=ParticipationSet(
                                      count=3, response_present=frozenset({0, 1, 2})),
                                  commit_root=sig.commit_root, exceptions=())
        # drop a responder from the claimed set
        yield CollectiveSignature(group=sig.group, mode=sig.mode, challenge=sig.challenge,
                                  response=sig.response,
                                  participation=ParticipationSet(
                                      count=3, response_present=frozenset({0}),
                                      commit_present=frozenset({0, 2})),
                                  commit_root=sig.commit_root, exceptions=sig.exceptions)
        # tamper the exception commit
        exc = sig.exceptions[0]
        yield CollectiveSignature(group=sig.group, mode=sig.mode, challenge=sig.challenge,
                                  response=sig.response, participation=sig.participation,
                                  commit_root=sig.commit_root,
                                  exceptions=(CommitException(
                                      exc.index, exc.commit * ED25519.generator,
                                      exc.proof),))
        # tamper the commit root
        yield CollectiveSignature(group=sig.group, mode=sig.mode, challenge=sig.challenge,
                                  response=sig.response, participation=sig.participation,
                                  commit_root=bytes(32), exceptions=sig.exceptions)

    for mutant in variants():
        res = verify_collective(roster, b"prod", mutant, Threshold(1))
        assert not res.crypto_ok


# -- the roster key's fixed-base table ---------------------------------------------

def _tabled_round(seed, n=4):
    """A full-participation restart signature, verified twice, so that its
    roster's key now holds a fixed-base table."""
    roster, sig = _prod_round(random.Random(seed), n=n)
    for _ in range(2):
        assert verify_collective(roster, b"prod", sig, Threshold(n)).ok
    assert len(roster.aggregate_key()._rows) == 37
    return roster, sig


def test_roster_key_builds_its_table_on_its_second_power():
    roster, sig = _prod_round(random.Random(51), n=4)
    key = roster.aggregate_key()
    assert key._rows == 0
    assert verify_collective(roster, b"prod", sig, Threshold(4)).ok
    assert key._rows == 1  # the first power ran the ladder
    assert verify_collective(roster, b"prod", sig, Threshold(4)).ok
    rows = key._rows
    assert len(rows) == 37
    assert verify_collective(roster, b"prod", sig, Threshold(4)).ok
    assert roster.aggregate_key() is key and key._rows is rows


def test_compact_certificate_walks_the_roster_key_table(monkeypatch):
    roster, sig = _tabled_round(52)
    rows = roster.aggregate_key()._rows
    walked = []
    real = Ed25519Group._comb
    monkeypatch.setattr(Ed25519Group, "_comb",
                        lambda self, table, k: walked.append(table) or real(self, table, k))
    anchor = compact_certificate(roster)
    assert anchor.aggregate_key is roster.aggregate_key()
    assert verify_collective(anchor, b"prod", sig, Threshold(4)).ok
    # one walk of G's table and one of the roster key's, that very object
    assert len(walked) == 2 and walked[0] is ED25519.generator._rows and walked[1] is rows


def test_compact_certificate_leaves_no_table_on_the_adjusted_key(monkeypatch):
    roster, sig = _prod_round(random.Random(53), n=5, response_absent={2},
                              mode=MODE_NO_RESTART)
    keys = []
    real_present_key = CompactAnchor.present_key
    monkeypatch.setattr(CompactAnchor, "present_key",
                        lambda *args: keys.append(real_present_key(*args)) or keys[-1])
    built = []
    real_rows = Ed25519Group._fixed_base_rows
    monkeypatch.setattr(Ed25519Group, "_fixed_base_rows",
                        lambda self, base: built.append(base) or real_rows(self, base))
    tree = build_key_tree(roster)
    proofs = [ProvenKey(2, roster.public_key(2), tree.prove(2))]
    anchor = compact_certificate(roster)
    for _ in range(3):
        assert verify_collective(anchor, b"prod", sig, Threshold(4), proofs).ok
    # each verify makes its own adjusted key and powers it once, by the ladder
    assert len(keys) == 3 and all(key._rows == 1 for key in keys)
    assert roster.aggregate_key()._rows == 0 and built == []


def test_tabled_roster_key_rejects_tampering():
    roster, sig = _tabled_round(54)
    rows = roster.aggregate_key()._rows
    bumped_c = dataclasses.replace(sig, challenge=sig.challenge + ED25519.scalar(1))
    bumped_s = dataclasses.replace(sig, response=sig.response + ED25519.scalar(1))
    for anchor in (roster, compact_certificate(roster)):
        assert verify_collective(anchor, b"prod", sig, Threshold(4)).ok
        for statement, bad in ((b"prodX", sig), (b"prod", bumped_c), (b"prod", bumped_s)):
            res = verify_collective(anchor, statement, bad, Threshold(4))
            assert not res.crypto_ok and res.reason == "challenge mismatch"
    assert roster.aggregate_key()._rows is rows


def test_roster_deep_copy_shares_the_key_table():
    roster, sig = _tabled_round(55)
    twin = copy.deepcopy(roster)
    assert twin.aggregate_key() is not roster.aggregate_key()
    assert twin.aggregate_key()._rows is roster.aggregate_key()._rows
    assert verify_collective(twin, b"prod", sig, Threshold(4)).ok
    assert not verify_collective(twin, b"prodX", sig, Threshold(4)).ok


# -- the present key's slot ------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of the ladder, the table build and the table walk, counted."""
    return count_calls(monkeypatch, Ed25519Group, ("_straus", "_fixed_base_rows", "_comb"))


@pytest.fixture
def present_keys(monkeypatch):
    """Every key the roster's `present_key` hands out, in order."""
    keys = []
    real = WitnessRoster.present_key
    monkeypatch.setattr(WitnessRoster, "present_key",
                        lambda r, absent: keys.append(real(r, absent)) or keys[-1])
    return keys


def _absent_signatures(seed, *absent_sets, mode=MODE_NO_RESTART):
    """A 6-witness prod roster and one signature per absent set."""
    rng = random.Random(seed)
    roster, keys = _prod_keys(rng, 6)
    return roster, [_prod_sign(rng, keys, absent, mode) for absent in absent_sets]


def _verify_counted(roster, sig, calls):
    calls.clear()
    res = verify_collective(roster, b"prod", sig, Threshold(1))
    return res, dict(calls)


# G's power walks G's table in every verify; the present key's powers run the
# ladder, then build its table and walk it, then walk it
LADDER = {"_comb": 1, "_straus": 1}
BUILD = {"_comb": 2, "_fixed_base_rows": 1}
WALK = {"_comb": 2}


def test_repeated_absent_set_runs_ladder_then_builds_then_walks(kernel_calls,
                                                                present_keys):
    roster, (sig,) = _absent_signatures(56, {1, 4})
    steps = []
    for _ in range(4):
        res, calls = _verify_counted(roster, sig, kernel_calls)
        assert res.ok
        steps.append(calls)
    assert steps == [LADDER, BUILD, WALK, WALK]
    key = present_keys[0]
    assert all(k is key for k in present_keys) and len(present_keys) == 4
    assert len(key._rows) == 37
    assert roster.present_key(frozenset({1, 4})) is key
    # no one absent: the full key, and the slot is left as it was
    assert roster.present_key(frozenset()) is roster.aggregate_key()
    assert roster.present_key(frozenset({1, 4})) is key


def test_new_absent_set_replaces_the_slot(kernel_calls, present_keys):
    roster, (sig_a, sig_b) = _absent_signatures(57, {1, 4}, {2})
    for _ in range(2):
        assert verify_collective(roster, b"prod", sig_a, Threshold(1)).ok
    key_a = present_keys[-1]
    assert len(key_a._rows) == 37
    res, calls = _verify_counted(roster, sig_b, kernel_calls)
    assert res.ok and calls == LADDER
    key_b = present_keys[-1]
    assert key_b is not key_a and key_b._rows == 1
    assert roster.present_key(frozenset({2})) is key_b
    # the first set's key was dropped: its next power is a new key's ladder
    res, calls = _verify_counted(roster, sig_a, kernel_calls)
    assert res.ok and calls == LADDER and present_keys[-1] is not key_a


def test_alternating_absent_sets_build_no_table(kernel_calls):
    roster, sigs = _absent_signatures(58, {1, 4}, {2})
    for _ in range(3):
        for sig in sigs:
            res, calls = _verify_counted(roster, sig, kernel_calls)
            assert res.ok and calls == LADDER


@pytest.mark.parametrize("mode", [MODE_RESTART, MODE_NO_RESTART], ids=["restart", "no-restart"])
def test_tabled_present_key_rejects_tampering(mode):
    roster, (sig,) = _absent_signatures(59, {0, 3, 5}, mode=mode)
    for _ in range(2):
        assert verify_collective(roster, b"prod", sig, Threshold(3)).ok
    key = roster.present_key(frozenset({0, 3, 5}))
    rows = key._rows
    assert len(rows) == 37
    bumped_c = dataclasses.replace(sig, challenge=sig.challenge + ED25519.scalar(1))
    bumped_s = dataclasses.replace(sig, response=sig.response + ED25519.scalar(1))
    for statement, bad in ((b"prodX", sig), (b"prod", bumped_c), (b"prod", bumped_s)):
        res = verify_collective(roster, statement, bad, Threshold(3))
        assert not res.crypto_ok and res.reason == "challenge mismatch"
    assert verify_collective(roster, b"prod", sig, Threshold(3)).ok
    assert roster.present_key(frozenset({0, 3, 5})) is key and key._rows is rows


def test_roster_deep_copy_keeps_the_present_key_slot():
    roster, (sig,) = _absent_signatures(60, {2, 3})
    for _ in range(2):
        assert verify_collective(roster, b"prod", sig, Threshold(4)).ok
    key = roster.present_key(frozenset({2, 3}))
    assert len(key._rows) == 37
    twin = copy.deepcopy(roster)
    twin_key = twin.present_key(frozenset({2, 3}))
    assert twin_key is not key and twin_key._rows is key._rows
    assert verify_collective(twin, b"prod", sig, Threshold(4)).ok
    assert not verify_collective(twin, b"prodX", sig, Threshold(4)).ok


# -- commit tree ----------------------------------------------------------------

def test_commit_tree_single_node():
    topo = tree_for(1, 2, 0)
    commit = KeyPair.from_secret(TOY, 5).public
    tree = CommitTree(topo, {0: commit})
    assert tree.root == multisig.commit_leaf_digest(commit)
    assert verify_commit_inclusion(tree.root, commit, tree.prove(0))


def test_commit_tree_seven_nodes():
    topo = tree_for(7, 2, 0)
    commits = {i: KeyPair.from_secret(TOY, i + 1).public for i in range(7)}
    tree = CommitTree(topo, commits)
    for i in range(7):
        proof = tree.prove(i)
        assert verify_commit_inclusion(tree.root, commits[i], proof)
        # perturbing the leaf breaks the proof
        assert not verify_commit_inclusion(tree.root, commits[i] * TOY.generator, proof)


def test_commit_tree_rebuild_with_changed_commit():
    topo = tree_for(7, 2, 0)
    commits = {i: KeyPair.from_secret(TOY, i + 1).public for i in range(7)}
    tree = CommitTree(topo, commits)
    changed = dict(commits)
    changed[3] = commits[3] * TOY.generator
    other = CommitTree(topo, changed)
    assert other.root != tree.root
    assert not verify_commit_inclusion(other.root, commits[3], tree.prove(3))


def test_commit_tree_missing_commit_errors():
    topo = tree_for(3, 2, 0)
    with pytest.raises(MultisigError):
        CommitTree(topo, {0: TOY.generator, 1: TOY.generator})


# -- wire format ------------------------------------------------------------------

def test_wire_format_layout(toy_roster3, toy_secrets3):
    sig = manual_round(toy_roster3, toy_secrets3, b"wire")
    data = sig.to_bytes()
    assert data[:4] == b"CSG1"
    assert data[4] == TOY.group_id
    assert data[5] == MODE_RESTART
    back = CollectiveSignature.from_bytes(data, 3)
    assert back.challenge.value == sig.challenge.value
    assert back.response.value == sig.response.value
    assert back.participation.response_present == sig.participation.response_present
    assert back.to_bytes() == data


def test_wire_format_no_restart_roundtrip(toy_roster3, toy_secrets3):
    sig = manual_round(toy_roster3, toy_secrets3, b"wire",
                       response_absent={1}, mode=MODE_NO_RESTART)
    data = sig.to_bytes()
    back = CollectiveSignature.from_bytes(data, 3)
    assert back.commit_root == sig.commit_root
    assert [e.index for e in back.exceptions] == [1]
    assert back.participation.commit_present == sig.participation.commit_present
    assert back.to_bytes() == data
    res = verify_collective(toy_roster3, b"wire", back, Threshold(2))
    assert res.ok


def test_wire_format_truncation_rejected(toy_roster3, toy_secrets3):
    sig = manual_round(toy_roster3, toy_secrets3, b"wire")
    data = sig.to_bytes()
    for cut in (0, 3, 5, len(data) - 1):
        with pytest.raises(ValueError):
            CollectiveSignature.from_bytes(data[:cut], 3)
    with pytest.raises(ValueError):
        CollectiveSignature.from_bytes(b"XSG1" + data[4:], 3)
    with pytest.raises(ValueError):
        CollectiveSignature.from_bytes(data + b"\x00", 3)


def test_no_restart_signature_bytes_pinned():
    """Commit-tree proofs and exception records keep their byte layout."""
    secrets = [3, 4, 5, 6, 7, 8, 9]
    sig = manual_round(make_toy_roster(secrets), secrets, b"pinned",
                       response_absent={1, 5}, mode=MODE_NO_RESTART)
    # recorded bytes: a change here is a wire-format change
    pinned = ("435347310201295f03a5c553ceaac2ef50e226908e313634d59be4bdf69e5529"
              "19c13d6a0abf0a00070002000000015d0002000000010900000401c3661faf3e"
              "e337a9d6cdfc2bfc4b989e3516db5c90d29fb2b9014a5ccab5539b0183601dc3"
              "48b6af002db955eccdb14f285248d0c227f1a9a0949cf6a5e4d8771b00fafed9"
              "e80b16f1bf997df0aeadaed3e0b5880be8f46323b7aa4b099440d7198e012e28"
              "eee08855b1f115c6e474ac5834a21c41a067cba96206e5e5ce51d3f66dee0000"
              "00050200000400935b8473db4a4e3b33d0bdb61669e64a828a4c112d19682ede"
              "da16a31ad6bd8e0183601dc348b6af002db955eccdb14f285248d0c227f1a9a0"
              "949cf6a5e4d8771b01dc2bb8eeb38debd04ba9415a1c365c77c1b4d17e2e7633"
              "153532ba05b67f663400f76dde26d97f9ee6b122b544f141ec9494e5264fb931"
              "0eb72a5fd53180608127")
    assert sig.to_bytes().hex() == pinned
    assert CollectiveSignature.from_bytes(sig.to_bytes(), 7) == sig


def _exception_blob():
    """A 7-witness no-restart signature with exceptions for witnesses 1 and 5,
    and the offsets of its exception count and of each record's index."""
    secrets = [3, 4, 5, 6, 7, 8, 9]
    sig = manual_round(make_toy_roster(secrets), secrets, b"bounds",
                       response_absent={1, 5}, mode=MODE_NO_RESTART)
    count_at = len(dataclasses.replace(sig, exceptions=()).to_bytes()) - 2
    first = count_at + 2
    second = first + 4 + TOY.element_size + len(sig.exceptions[0].proof.encode())
    return bytearray(sig.to_bytes()), count_at, (first, second)


# the reader's own messages: frames and signatures share one bound
_RECORD_CAUSES = {"count": "records for 7 witnesses",
                  "out_of_range": "witness index 7 out of range",
                  "not_ascending": "not strictly ascending"}


@pytest.mark.parametrize("patch", ["count", "out_of_range", "not_ascending"])
def test_exception_records_checked_before_any_element_decode(monkeypatch, patch):
    calls = []
    decode = type(TOY).decode_element

    def counted(self, raw):
        calls.append(raw)
        return decode(self, raw)

    monkeypatch.setattr(type(TOY), "decode_element", counted)
    data, count_at, (first, second) = _exception_blob()
    CollectiveSignature.from_bytes(bytes(data), 7)
    assert len(calls) == 2  # one per exception commit
    calls.clear()
    if patch == "count":
        data[count_at:count_at + 2] = (65535).to_bytes(2, "big")
    elif patch == "out_of_range":
        data[first:first + 4] = (7).to_bytes(4, "big")
    else:
        data[second:second + 4] = (1).to_bytes(4, "big")
    with pytest.raises(DecodeError, match=_RECORD_CAUSES[patch]):
        CollectiveSignature.from_bytes(bytes(data), 7)
    assert calls == []


def test_every_cut_of_an_exception_signature_rejected():
    secrets = [3, 4, 5, 6, 7, 8, 9]
    sig = manual_round(make_toy_roster(secrets), secrets, b"cuts",
                       response_absent={3, 6}, mode=MODE_NO_RESTART)
    assert [len(e.proof.path) for e in sig.exceptions] == [4, 4]
    data = sig.to_bytes()
    assert CollectiveSignature.from_bytes(data, 7) == sig
    assert_cuts_rejected(lambda d: CollectiveSignature.from_bytes(d, 7), data)


def test_side_byte_other_than_0_or_1_is_a_decode_error():
    """An audit step's side byte names the sibling's side, left (0) or right
    (1); any other value is a malformed encoding, in a signature and in a
    frame alike."""
    elem = KeyPair.from_secret(TOY, 3).public
    proof = audit_path((0, b"\x04" * 32), (1, b"\x05" * 32))
    encoded = proof.encode()
    sig = CollectiveSignature(
        group=TOY, mode=MODE_NO_RESTART, challenge=TOY.scalar(5), response=TOY.scalar(7),
        participation=ParticipationSet(count=3, response_present=frozenset({0, 2}),
                                       commit_present=frozenset({0, 1, 2})),
        commit_root=b"\x01" * 32, exceptions=(CommitException(1, elem, proof),))
    frame = encode_message(Response(
        view=0, round=1, attempt=0, sender=0, aggregate_response=TOY.scalar(9),
        absent=frozenset({1}), failed=frozenset(), refused=frozenset(),
        exceptions=(CommitException(1, elem, proof),)), TOY)[4:]
    for data, decode in ((sig.to_bytes(), lambda d: CollectiveSignature.from_bytes(d, 3)),
                         (frame, lambda d: decode_frame_body(d, TOY, 3))):
        at = data.index(encoded) + 2 + 33  # the second step's side byte
        assert decode(data).exceptions[0].proof == proof
        for side in (2, 255):
            bad = data[:at] + bytes([side]) + data[at + 1:]
            with pytest.raises(DecodeError, match="bad audit step side"):
                decode(bad)


@pytest.mark.parametrize("where", ["signature", "frame"])
def test_proof_longer_than_the_roster_rejected_before_any_digest(monkeypatch, where):
    """A commit-tree proof's step count is bounded by the roster size, as an
    honest path has fewer steps than witnesses: a count past it fails before
    any step is read, and in a signature before any commit is decoded."""
    elem = KeyPair.from_secret(TOY, 3).public
    proof = audit_path(*[(0, bytes([k]) * 32) for k in range(3)])
    exc = CommitException(1, elem, proof)
    if where == "signature":
        data = CollectiveSignature(
            group=TOY, mode=MODE_NO_RESTART, challenge=TOY.scalar(5), response=TOY.scalar(7),
            participation=ParticipationSet(count=3, response_present=frozenset({0, 2}),
                                           commit_present=frozenset({0, 1, 2})),
            commit_root=b"\x01" * 32, exceptions=(exc,)).to_bytes()

        def decode(d):
            return CollectiveSignature.from_bytes(d, 3)
    else:
        data = encode_message(Response(
            view=0, round=1, attempt=0, sender=0, aggregate_response=TOY.scalar(9),
            absent=frozenset({1}), failed=frozenset(), refused=frozenset(),
            exceptions=(exc,)), TOY)[4:]

        def decode(d):
            return decode_frame_body(d, TOY, 3)
    assert decode(data).exceptions == (exc,)  # three steps for three witnesses
    at = data.index(proof.encode())
    # four steps' worth of bytes, so only the bound can reject the count
    longer = audit_path(*[(0, bytes([k]) * 32) for k in range(4)]).encode()
    calls = []
    read = Reader.take

    def counted(self, n):
        calls.append(n)
        return read(self, n)

    if where == "signature":
        monkeypatch.setattr(type(TOY), "decode_element",
                            lambda self, raw: pytest.fail("a commit was decoded"))
    monkeypatch.setattr(Reader, "take", counted)
    with pytest.raises(DecodeError, match="4 records for 3 witnesses"):
        decode(data[:at] + longer + data[at + len(proof.encode()):])
    assert calls[-1] == 2  # the step count was the last read


def test_exception_commit_outside_subgroup_rejected(mixed_generator):
    sig = CollectiveSignature(
        group=ED25519, mode=MODE_NO_RESTART, challenge=ED25519.scalar(5),
        response=ED25519.scalar(7),
        participation=ParticipationSet(count=3, response_present=frozenset({0, 2}),
                                       commit_present=frozenset({0, 1, 2})),
        commit_root=b"\x01" * 32,
        exceptions=(CommitException(1, ED25519.generator, audit_path((0, b"\x02" * 32))),))
    data = sig.to_bytes()
    assert CollectiveSignature.from_bytes(data, 3) == sig
    with pytest.raises(DecodeError, match="prime-order subgroup"):
        CollectiveSignature.from_bytes(swap_generator(data, mixed_generator), 3)


def test_all_present_signature_size_production():
    rng = random.Random(9)
    roster, sig = _prod_round(rng, n=3)
    encoded = sig.to_bytes()
    assert len(encoded) <= 100
    assert verify_collective(roster, b"prod", sig, Threshold(3)).ok


@settings(max_examples=40, deadline=None)
@given(count=st.integers(min_value=1, max_value=40), data=st.data())
def test_participation_wire_roundtrip(count, data):
    present = data.draw(st.sets(st.integers(min_value=0, max_value=count - 1),
                                min_size=1))
    pset = ParticipationSet(count=count, response_present=frozenset(present))
    sig = CollectiveSignature(group=TOY, mode=MODE_RESTART,
                              challenge=TOY.scalar(3), response=TOY.scalar(4),
                              participation=pset)
    back = CollectiveSignature.from_bytes(sig.to_bytes(), count)
    assert back.participation.response_present == frozenset(present)
