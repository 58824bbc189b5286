import pytest
from hypothesis import given, settings, strategies as st

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
    decode,
    encode_index_set,
    encode_smallest,
    evaluate,
    predicate_from_json,
    predicate_to_json,
)


def pset(count, present, commit=None):
    return ParticipationSet(count=count, response_present=frozenset(present),
                            commit_present=frozenset(commit) if commit else None)


# -- encodings ---------------------------------------------------------------

def test_two_absent_of_100_uses_absent_list():
    enc = encode_index_set({7, 42}, 100)
    assert enc[0] == VARIANT_ABSENT
    assert len(enc) == 5 + 8  # two 4-byte indices beat a 13-byte bitmap
    # the set-level wrapper encodes the response-present set the same way
    assert encode_smallest(pset(100, set(range(100)) - {7, 42})) == enc


def test_all_present_empty_absent_list():
    enc = encode_index_set((), 8)
    assert enc[0] == VARIANT_ABSENT
    assert len(enc) == 5


def test_half_of_64_uses_bitmap():
    enc = encode_index_set(range(32, 64), 64)
    assert enc[0] == VARIANT_BITMAP
    assert len(enc) == 5 + 8  # 8-byte bitmap beats 128-byte lists


def test_few_present_uses_present_list():
    enc = encode_index_set(set(range(100)) - {3}, 100)
    assert enc[0] == VARIANT_PRESENT
    assert len(enc) == 5 + 4


def test_bitmap_is_lsb_first():
    enc = encode_index_set(set(range(16)) - {0, 9}, 16)
    assert enc[0] == VARIANT_BITMAP
    assert enc[5:] == bytes([0b00000001, 0b00000010])


def test_decode_errors():
    with pytest.raises(ParticipationError):
        decode(b"", 4)
    # unsorted / duplicate index lists
    bad = bytes([VARIANT_PRESENT]) + (2).to_bytes(4, "big") \
        + (3).to_bytes(4, "big") + (1).to_bytes(4, "big")
    with pytest.raises(ParticipationError):
        decode(bad, 8)
    dup = bytes([VARIANT_PRESENT]) + (2).to_bytes(4, "big") \
        + (1).to_bytes(4, "big") + (1).to_bytes(4, "big")
    with pytest.raises(ParticipationError):
        decode(dup, 8)
    # index == W out of range
    edge = bytes([VARIANT_PRESENT]) + (1).to_bytes(4, "big") + (8).to_bytes(4, "big")
    with pytest.raises(ParticipationError):
        decode(edge, 8)
    # truncated bitmap and wrong bitmap length
    with pytest.raises(ParticipationError):
        decode(bytes([VARIANT_BITMAP]) + (2).to_bytes(4, "big") + b"\x00", 16)
    with pytest.raises(ParticipationError):
        decode(bytes([VARIANT_BITMAP]) + (1).to_bytes(4, "big") + b"\x00", 16)
    # bitmap bits beyond the witness count
    with pytest.raises(ParticipationError):
        decode(bytes([VARIANT_BITMAP]) + (1).to_bytes(4, "big") + bytes([0b1000]), 3)


def test_subset_invariant():
    with pytest.raises(ParticipationError):
        ParticipationSet(count=4, response_present=frozenset({1, 2}),
                         commit_present=frozenset({1}))
    with pytest.raises(ParticipationError):
        ParticipationSet(count=2, response_present=frozenset({5}))


@settings(max_examples=120, deadline=None)
@given(count=st.integers(min_value=1, max_value=256), data=st.data())
def test_roundtrip_and_minimality(count, data):
    present = data.draw(st.sets(st.integers(min_value=0, max_value=count - 1)))
    enc = encode_index_set(set(range(count)) - present, count)
    got = decode(enc, count)
    assert got.response_present == frozenset(present)
    # genuinely minimal among the three variants
    absent_size = 4 * (count - len(present))
    present_size = 4 * len(present)
    bitmap_size = (count + 7) // 8
    assert len(enc) - 5 == min(absent_size, present_size, bitmap_size)


def test_worst_case_size_bound():
    # signature payload bound: 2K + ceil(W/8) + 16 metadata bytes
    for count in (64, 1024, 8192):
        adversarial = set(range(0, count, 2))  # half present defeats both lists
        enc = encode_index_set(set(range(count)) - adversarial, count)
        assert len(enc) <= (count + 7) // 8 + 5


# -- predicates ---------------------------------------------------------------

def test_threshold_examples():
    assert evaluate(Threshold(3), pset(4, {0, 1, 2}))
    assert not evaluate(Threshold(4), pset(4, {0, 1, 2}))
    # Threshold(0) always accepts, even an empty set
    assert evaluate(Threshold(0), pset(4, set()))
    assert evaluate(Threshold(0), pset(4, {0}))


def test_weighted_threshold():
    weights = [5, 1, 1, 1]
    assert evaluate(WeightedThreshold(6), pset(4, {0, 1}), weights)
    assert not evaluate(WeightedThreshold(6), pset(4, {1, 2, 3}), weights)


def test_mandatory():
    assert evaluate(Mandatory(0), pset(3, {0, 2}))
    assert not evaluate(Mandatory(1), pset(3, {0, 2}))
    with pytest.raises(ParticipationError):
        evaluate(Mandatory(9), pset(3, {0}))


def test_geo_regions_against_brute_force():
    predicate = AllOf((
        Mandatory(0),
        Group(frozenset(range(0, 5)), Threshold(3)),
        Group(frozenset(range(5, 10)), Threshold(3)),
    ))

    def hand_eval(present: set) -> bool:
        return (0 in present
                and len(present & set(range(0, 5))) >= 3
                and len(present & set(range(5, 10))) >= 3)

    for mask in range(1 << 10):
        present = {i for i in range(10) if mask >> i & 1}
        if not present:
            continue
        assert evaluate(predicate, pset(10, present)) == hand_eval(present), present


def test_any_of():
    predicate = AnyOf((Mandatory(0), Threshold(3)))
    assert evaluate(predicate, pset(4, {0}))
    assert evaluate(predicate, pset(4, {1, 2, 3}))
    assert not evaluate(predicate, pset(4, {1}))


def test_recursion_depth_limit():
    deep = Threshold(1)
    for _ in range(20):
        deep = AllOf((deep,))
    with pytest.raises(ParticipationError):
        evaluate(deep, pset(2, {0}))


@settings(max_examples=80, deadline=None)
@given(count=st.integers(min_value=2, max_value=24), data=st.data())
def test_monotone_predicates(count, data):
    predicate = data.draw(_monotone_predicates(count))
    present = data.draw(st.sets(st.integers(min_value=0, max_value=count - 1),
                                min_size=1))
    extra = data.draw(st.sets(st.integers(min_value=0, max_value=count - 1)))
    small = pset(count, present)
    large = pset(count, set(present) | extra)
    if evaluate(predicate, small):
        assert evaluate(predicate, large)


def _monotone_predicates(count):
    base = st.one_of(
        st.builds(Threshold, st.integers(min_value=0, max_value=count)),
        st.builds(WeightedThreshold, st.integers(min_value=0, max_value=count)),
        st.builds(Mandatory, st.integers(min_value=0, max_value=count - 1)),
    )
    grouped = st.builds(
        Group,
        st.frozensets(st.integers(min_value=0, max_value=count - 1), min_size=1),
        base,
    )
    leaf = st.one_of(base, grouped)
    return st.one_of(
        leaf,
        st.builds(lambda parts: AllOf(tuple(parts)), st.lists(leaf, min_size=1, max_size=3)),
        st.builds(lambda parts: AnyOf(tuple(parts)), st.lists(leaf, min_size=1, max_size=3)),
    )


def test_predicate_json_roundtrip():
    predicate = AllOf((
        Mandatory(0),
        Group(frozenset({1, 2, 3}), Threshold(2)),
        AnyOf((WeightedThreshold(5), Threshold(4))),
    ))
    obj = predicate_to_json(predicate)
    assert predicate_from_json(obj) == predicate
