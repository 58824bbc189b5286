"""Participation sets against a plain-set reference.

The library holds a set by its absent lists; the reference below holds the
present set as a plain `set` and works the way the wire format and the
predicates are specified. Encodings, decodings, present sets and predicate
verdicts must agree, and malformed signature bytes must be rejected with the
exception type and message, or the verification reason, that the format
defines.
"""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import NO_PATH, make_toy_roster
from cosikit import multisig, participation
from cosikit.group import TOY, DecodeError
from cosikit.multisig import MODE_NO_RESTART, MODE_RESTART, CollectiveSignature, CommitException
from cosikit.participation import (
    VARIANT_ABSENT,
    VARIANT_BITMAP,
    VARIANT_PRESENT,
    AllOf,
    AnyOf,
    Group,
    Mandatory,
    ParticipationError,
    ParticipationSet,
    Threshold,
    WeightedThreshold,
)

COUNTS = (1, 7, 8, 9, 33, 1024)
ROOT = bytes(range(32))
# magic, group id, mode, commit root, challenge, response
PARTICIPATION_OFFSET = 4 + 1 + 1 + 32 + 2 * TOY.scalar_size


# -- the reference -----------------------------------------------------------

def ref_encode(present: set[int], count: int) -> bytes:
    absent = sorted(set(range(count)) - present)
    sizes = {VARIANT_ABSENT: 4 * len(absent), VARIANT_BITMAP: (count + 7) // 8,
             VARIANT_PRESENT: 4 * len(present)}
    preference = [VARIANT_ABSENT, VARIANT_BITMAP, VARIANT_PRESENT]
    variant = min(preference, key=lambda v: (sizes[v], preference.index(v)))
    if variant == VARIANT_BITMAP:
        bits = bytearray(sizes[VARIANT_BITMAP])
        for i in present:
            bits[i // 8] |= 1 << (i % 8)
        return bytes([variant]) + len(bits).to_bytes(4, "big") + bytes(bits)
    listed = absent if variant == VARIANT_ABSENT else sorted(present)
    return (bytes([variant]) + len(listed).to_bytes(4, "big")
            + b"".join(i.to_bytes(4, "big") for i in listed))


def ref_eval(pred, present: set[int], count: int, weights) -> bool:
    if isinstance(pred, Threshold):
        return len(present) >= pred.minimum
    if isinstance(pred, WeightedThreshold):
        return sum(1 if weights is None else weights[i] for i in present) >= pred.minimum_weight
    if isinstance(pred, Mandatory):
        return pred.index in present
    if isinstance(pred, AllOf):
        return all(ref_eval(p, present, count, weights) for p in pred.parts)
    if isinstance(pred, AnyOf):
        return any(ref_eval(p, present, count, weights) for p in pred.parts)
    if isinstance(pred, Group):
        return ref_eval(pred.inner, present & set(pred.members), count, weights)
    raise AssertionError(pred)


# -- strategies --------------------------------------------------------------

@st.composite
def plain_sets(draw):
    """(count, response-present set, commit-present set) as plain sets, with
    absent counts near 0, near `count` and in between, so that every wire
    variant turns up."""
    count = draw(st.sampled_from(COUNTS))
    n_absent = draw(st.one_of(st.integers(0, min(3, count)),
                              st.integers(max(0, count - 3), count),
                              st.integers(0, count)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    absent = set(rng.sample(range(count), n_absent))
    dropped = set(rng.sample(sorted(absent), draw(st.integers(0, n_absent))))
    present = set(range(count)) - absent
    return count, present, present | dropped


def predicates(count: int):
    index = st.integers(0, count - 1)
    base = st.one_of(
        st.builds(Threshold, st.integers(0, count + 1)),
        st.builds(WeightedThreshold, st.integers(0, 4 * count)),
        st.builds(Mandatory, index),
    )
    grouped = st.builds(Group, st.frozensets(index, min_size=1, max_size=40), base)
    leaf = st.one_of(base, grouped)
    node = st.one_of(
        leaf,
        st.builds(lambda parts: AllOf(tuple(parts)), st.lists(leaf, min_size=1, max_size=3)),
        st.builds(lambda parts: AnyOf(tuple(parts)), st.lists(leaf, min_size=1, max_size=3)),
    )
    return st.one_of(node, st.builds(Group, st.frozensets(index, min_size=1, max_size=40), node))


def signature(pset: ParticipationSet, exceptions=None) -> CollectiveSignature:
    """A no-restart signature whose records carry placeholder commits and
    proofs: only its participation is under test."""
    if exceptions is None:
        exceptions = sorted(pset.dropped_after_commit)
    return CollectiveSignature(
        group=TOY, mode=MODE_NO_RESTART, challenge=TOY.scalar(3), response=TOY.scalar(5),
        participation=pset, commit_root=ROOT,
        exceptions=tuple(CommitException(i, TOY.generator, NO_PATH) for i in exceptions))


# -- round trips and verdicts ------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(case=plain_sets())
def test_round_trip_matches_plain_sets(case):
    count, present, committed = case
    pset = ParticipationSet(count, frozenset(present), frozenset(committed))
    enc = participation.encode_smallest(pset)
    assert enc == ref_encode(present, count)
    back = participation.decode(enc, count)
    assert back == ParticipationSet(count, frozenset(present))
    assert back.response_present == present and back.commit_present == present
    sig = CollectiveSignature.from_bytes(signature(pset).to_bytes(), count)
    got = sig.participation
    assert got == pset
    assert got.response_present == present and got.commit_present == committed
    assert got.response_absent == set(range(count)) - present
    assert got.dropped_after_commit == committed - present


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_predicates_match_plain_sets(data):
    count, present, committed = data.draw(plain_sets())
    pred = data.draw(predicates(count))
    weights = data.draw(st.lists(st.integers(0, 5), min_size=count, max_size=count))
    data_bytes = signature(ParticipationSet(count, frozenset(present),
                                            frozenset(committed))).to_bytes()
    pset = CollectiveSignature.from_bytes(data_bytes, count).participation
    assert participation.evaluate(pred, pset) == ref_eval(pred, present, count, None)
    assert participation.evaluate(pred, pset, weights) == ref_eval(pred, present, count, weights)


def test_grouped_predicates_match_plain_sets_on_every_set():
    count = 9
    weights = [3, 1, 4, 1, 5, 9, 2, 6, 5]
    preds = [
        Group(frozenset({1, 2, 3}), Mandatory(0)),
        Group(frozenset({0, 1, 2}), Mandatory(0)),
        Group(frozenset(range(5)), Group(frozenset(range(3, 9)), Threshold(2))),
        Group(frozenset({0, 4, 8}), WeightedThreshold(8)),
        AnyOf((Group(frozenset({5, 6}), Threshold(2)),
               AllOf((Mandatory(8), WeightedThreshold(20))))),
    ]
    for mask in range(1 << count):
        present = {i for i in range(count) if mask >> i & 1}
        pset = ParticipationSet(count, response_absent=set(range(count)) - present)
        for pred in preds:
            for w in (None, weights):
                assert (participation.evaluate(pred, pset, w)
                        == ref_eval(pred, present, count, w)), (pred, present, w)


def test_weighted_threshold_uses_a_given_total():
    pset = ParticipationSet(4, response_absent={1})
    weights = (5, 3, 2, 1)
    assert participation.evaluate(WeightedThreshold(8), pset, weights, sum(weights))
    assert not participation.evaluate(WeightedThreshold(9), pset, weights, sum(weights))
    assert participation.evaluate(Group(frozenset({0, 1}), WeightedThreshold(5)), pset,
                                  weights, sum(weights))


def test_absent_and_present_forms_are_one_set():
    by_present = ParticipationSet(9, frozenset({0, 1, 2, 4}), frozenset({0, 1, 2, 3, 4}))
    by_absent = ParticipationSet(9, response_absent={3, 5, 6, 7, 8},
                                 commit_absent={5, 6, 7, 8})
    assert by_present == by_absent and hash(by_present) == hash(by_absent)
    assert by_absent.response_present == {0, 1, 2, 4}
    assert by_absent.commit_present == {0, 1, 2, 3, 4}
    # replacing the response set keeps the commit set
    widened = dataclasses.replace(by_absent, response_present=frozenset({0, 1, 2, 3, 4}))
    assert widened.response_absent == widened.commit_absent == {5, 6, 7, 8}
    with pytest.raises(ParticipationError, match="subset"):
        ParticipationSet(9, response_absent={3}, commit_absent={3, 4})
    with pytest.raises(ParticipationError, match="out of range"):
        ParticipationSet(9, response_absent={9})


# -- malformed bytes ---------------------------------------------------------

def _splice(count: int, participation_bytes: bytes, exceptions: list[int]) -> bytes:
    """Signature bytes with the given participation encoding and exception
    records, however malformed."""
    head = signature(ParticipationSet(count, frozenset(range(count)))).to_bytes()
    records = b"".join(i.to_bytes(4, "big") + TOY.generator.encode() + NO_PATH.encode()
                       for i in exceptions)
    return (head[:PARTICIPATION_OFFSET] + participation_bytes
            + len(exceptions).to_bytes(2, "big") + records)


def _listed(variant: int, indices: list[int]) -> bytes:
    return (bytes([variant]) + len(indices).to_bytes(4, "big")
            + b"".join(i.to_bytes(4, "big") for i in indices))


def _malformed(count: int):
    """(name, signature bytes, exception type, message) per malformation."""
    nbytes = (count + 7) // 8
    full = _listed(VARIANT_ABSENT, [])
    cases = [
        ("absent index past the roster", _splice(count, _listed(VARIANT_ABSENT, [count]), []),
         ParticipationError, f"index {count} out of range for count {count}"),
        ("present index past the roster",
         _splice(count, _listed(VARIANT_PRESENT, [0, count + 5]), []),
         ParticipationError, f"index {count + 5} out of range for count {count}"),
        ("duplicate absent index", _splice(count, _listed(VARIANT_ABSENT, [0, 0]), []),
         ParticipationError, "index list not strictly sorted"),
        ("unsorted list past the roster", _splice(count, _listed(VARIANT_PRESENT, [count, 0]), []),
         ParticipationError, "index list not strictly sorted"),
        ("exception index past the roster", _splice(count, full, [count]),
         DecodeError, f"witness index {count} out of range"),
        ("wrong bitmap length",
         _splice(count, bytes([VARIANT_BITMAP]) + (nbytes + 1).to_bytes(4, "big")
                 + bytes(nbytes + 1), []),
         ParticipationError, "bitmap length does not match witness count"),
    ]
    if count > 1:
        cases.append(("unsorted absent list", _splice(count, _listed(VARIANT_ABSENT, [1, 0]), []),
                      ParticipationError, "index list not strictly sorted"))
        cases.append(("unsorted exceptions", _splice(count, _listed(VARIANT_ABSENT, [0, 1]),
                                                     [1, 0]),
                      DecodeError, "exception indices not strictly ascending"))
    if count % 8:
        tail = bytearray(b"\xff" * nbytes)
        tail[-1] = 1 << (count % 8)
        cases.append(("bitmap tail bit", _splice(count, bytes([VARIANT_BITMAP])
                                                 + nbytes.to_bytes(4, "big") + bytes(tail), []),
                      ParticipationError, "bitmap has bits set beyond witness count"))
    return cases


@pytest.mark.parametrize("count", COUNTS)
def test_malformed_signature_bytes_rejected(count):
    for name, data, kind, message in _malformed(count):
        with pytest.raises(kind) as err:
            CollectiveSignature.from_bytes(data, count)
        assert type(err.value) is kind and str(err.value) == message, name


@pytest.mark.parametrize("count", COUNTS)
def test_exception_for_a_responding_witness_rejected(count):
    roster = make_toy_roster([(i % 10) + 1 for i in range(count)])
    everyone = frozenset(range(count))
    # the last witness drops out after committing, where there are two
    pset = ParticipationSet(count, everyone - {count - 1} if count > 1 else everyone,
                            everyone)
    # the dropped witness (if any) and witness 0, which responded
    listed = sorted({0} | set(pset.dropped_after_commit))
    sig = CollectiveSignature.from_bytes(signature(pset, listed).to_bytes(), count)
    assert sig.participation.dropped_after_commit == pset.dropped_after_commit
    res = multisig.verify_collective(roster, b"stmt", sig, Threshold(1))
    assert not res.ok and not res.crypto_ok
    assert res.reason == "exceptions do not match participation sets"
    assert res.present_count == count - len(pset.response_absent)
    assert res.absent == tuple(sorted(pset.response_absent))


# -- scale -------------------------------------------------------------------

def test_all_present_signature_decodes_and_evaluates_in_constant_memory():
    count = 2**20
    sig = CollectiveSignature(group=TOY, mode=MODE_RESTART, challenge=TOY.scalar(3),
                              response=TOY.scalar(5),
                              participation=ParticipationSet(count, response_absent=()))
    data = sig.to_bytes()
    tracemalloc.start()
    try:
        back = CollectiveSignature.from_bytes(data, count)
        assert participation.evaluate(Threshold(count), back.participation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
