import random

import pytest
from hypothesis import given, settings, strategies as st

from cosikit import vss
from cosikit.group import TOY, schnorr_verify
from cosikit.vss import (
    VssError,
    deal,
    deal_polynomial,
    feldman_check,
    interpolate,
    jvss_setup,
    jvss_sign_round,
    lagrange_at_zero,
    poly_eval,
    share_point,
)


def test_paper_polynomial_shares():
    # f(x) = 5 + 3x over q=11: f(1)=8, f(2)=0, f(3)=3
    dealing = deal_polynomial(TOY, [5, 3], 3)
    assert dealing.shares == {0: 8, 1: 0, 2: 3}
    # any two shares reconstruct the secret 5
    pts = [(share_point(i, 11), dealing.shares[i]) for i in range(3)]
    assert interpolate(pts[:2], 11) == 5
    assert interpolate(pts[1:], 11) == 5
    assert interpolate([pts[0], pts[2]], 11) == 5


def test_poly_eval_matches_horner():
    assert poly_eval([5, 3], 2, 11) == 0
    assert poly_eval([1, 2, 3], 2, 11) == (1 + 4 + 12) % 11


def test_feldman_check_accepts_and_flags():
    rng = random.Random(3)
    dealing = deal(TOY, 4, 2, rng)
    for j in range(4):
        assert feldman_check(TOY, dealing.commitments, j, dealing.shares[j])
        assert not feldman_check(TOY, dealing.commitments, j,
                                 (dealing.shares[j] + 1) % 11)


def test_degenerate_threshold_zero():
    rng = random.Random(4)
    states = jvss_setup(TOY, 3, 0, rng)
    # joint key is the product of the dealers' public commitments
    joint = TOY.identity
    for s in states:
        joint = joint * s.dealing.public
    assert states[0].joint_public == joint


def test_jvss_round_produces_valid_schnorr():
    rng = random.Random(5)
    states = jvss_setup(TOY, 3, 1, rng)
    sig = jvss_sign_round(states, b"joint statement", rng)
    assert schnorr_verify(states[0].joint_public, b"joint statement", sig)


def test_jvss_share_points_wrap():
    # more nodes than field elements: points wrap but stay distinct mod q
    assert share_point(0, 11) == 1
    assert share_point(10, 11) == 1  # wraps
    rng = random.Random(6)
    states = jvss_setup(TOY, 16, 5, rng)
    sig = jvss_sign_round(states, b"big", rng)
    assert schnorr_verify(states[0].joint_public, b"big", sig)


def _corrupt_one_share(monkeypatch, bad_dealer: int, victim: int) -> None:
    """Make the `bad_dealer`-th dealing from now on hand `victim` a share
    that is off by one."""
    real_deal, calls = vss.deal, []

    def deal(group, n, t, rng, secret=None):
        dealing = real_deal(group, n, t, rng, secret)
        if len(calls) == bad_dealer:
            shares = dict(dealing.shares)
            shares[victim] = (shares[victim] + 1) % group.order
            dealing = vss.Dealing(commitments=dealing.commitments, shares=shares)
        calls.append(dealing)
        return dealing

    monkeypatch.setattr(vss, "deal", deal)


def test_jvss_setup_names_the_bad_dealer(monkeypatch):
    _corrupt_one_share(monkeypatch, bad_dealer=2, victim=0)
    with pytest.raises(VssError, match="dealer 2 "):
        jvss_setup(TOY, 4, 1, random.Random(8))


def test_jvss_sign_round_names_the_bad_dealer(monkeypatch):
    rng = random.Random(9)
    states = jvss_setup(TOY, 4, 1, rng)
    _corrupt_one_share(monkeypatch, bad_dealer=1, victim=3)
    with pytest.raises(VssError, match="dealer 1 "):
        jvss_sign_round(states, b"statement", rng)


def test_interpolation_rejects_duplicate_points():
    with pytest.raises(VssError):
        lagrange_at_zero([1, 1], 11)
    with pytest.raises(VssError):
        interpolate([(1, 2), (12, 3)], 11)  # 12 == 1 mod 11


def test_threshold_validation():
    rng = random.Random(7)
    with pytest.raises(VssError):
        deal(TOY, 3, 3, rng)
    with pytest.raises(VssError):
        deal(TOY, 20, 15, rng)  # degree exceeds distinct points
    with pytest.raises(VssError):
        jvss_setup(TOY, 2, 2, rng)


@settings(max_examples=60, deadline=None)
@given(secret=st.integers(min_value=1, max_value=10),
       degree=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_any_threshold_subset_reconstructs(secret, degree, seed):
    rng = random.Random(seed)
    n = degree + 3
    dealing = deal(TOY, n, degree, rng, secret=secret)
    points = [(share_point(i, 11), dealing.shares[i]) for i in range(n)]
    picks = sorted(rng.sample(range(n), degree + 1))
    chosen = [points[i] for i in picks]
    if len({x for x, _ in chosen}) == len(chosen):
        assert interpolate(chosen, 11) == secret
