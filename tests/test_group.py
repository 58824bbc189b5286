import collections
import copy
import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import D, L, P, affine, affine_add, cached_affine, count_calls, encode_affine, \
    ref_pow
from cosikit.group import (
    ED25519,
    TOY,
    TAG_POSSESSION,
    TAG_SIGN,
    DecodeError,
    KeyPair,
    SelfSignedKey,
    Signature,
    challenge_hash,
    keygen,
    possession_failing,
    prove_possession,
    schnorr_failing,
    schnorr_sign,
    schnorr_verify,
    verify_possession,
)
from cosikit import group as group_mod
from cosikit.group import Ed25519Group, Group, GroupElement, _half_split, _recover_x


def test_toy_group_constants():
    assert TOY.order == 11
    assert TOY.modulus == 23
    assert int.from_bytes(TOY.generator.encode(), "little") == 2


def test_keygen_forced_secrets_toy():
    # 2^3 mod 23 = 8; x=1 gives the generator itself
    assert int.from_bytes(KeyPair.from_secret(TOY, 3).public.encode(), "little") == 8
    assert KeyPair.from_secret(TOY, 1).public == TOY.generator


def test_keygen_roundtrip_production(toy_rng):
    kp = keygen(ED25519, toy_rng)
    assert ED25519.generator ** kp.secret == kp.public
    assert kp.secret.value != 0


def test_keygen_secret_range(toy_rng):
    for _ in range(200):
        kp = keygen(TOY, toy_rng)
        assert 1 <= kp.secret.value < TOY.order


def test_toy_brute_force_discrete_log(toy_rng):
    # every generated keypair's public has the secret as its discrete log
    for _ in range(25):
        kp = keygen(TOY, toy_rng)
        logs = [k for k in range(TOY.order)
                if pow(2, k, 23) == int.from_bytes(kp.public.encode(), "little")]
        assert logs == [kp.secret.value]


def test_schnorr_roundtrip(toy_rng):
    for group in (TOY, ED25519):
        kp = keygen(group, toy_rng)
        sig = schnorr_sign(kp, b"a statement", toy_rng)
        assert schnorr_verify(kp.public, b"a statement", sig)
        assert not schnorr_verify(kp.public, b"a statemenu", sig)


def test_schnorr_mutations_reject(toy_rng):
    # negative checks run in the production group: the toy group's order-11
    # challenges collide by chance one time in eleven
    kp = keygen(ED25519, toy_rng)
    sig = schnorr_sign(kp, b"m", toy_rng)
    bumped = Signature(R=sig.R, s=sig.s + ED25519.scalar(1))
    assert not schnorr_verify(kp.public, b"m", bumped)
    other = keygen(ED25519, toy_rng)
    assert not schnorr_verify(other.public, b"m", sig)


def test_response_formula_forced():
    # r = v - c*x mod q with v=5, c=2, x=3 in q=11
    v, c, x = TOY.scalar(5), TOY.scalar(2), TOY.scalar(3)
    assert (v - c * x).value == 10


def test_challenge_hash_deterministic(toy_rng):
    kp = keygen(TOY, toy_rng)
    a = challenge_hash(kp.public, b"s", b"tag")
    b = challenge_hash(kp.public, b"s", b"tag")
    assert a.value == b.value


def test_challenge_hash_stub():
    # the challenge is SHA-512 of tag | commit | statement, read little-endian mod q
    for group in (TOY, ED25519):
        commit = group.generator ** group.scalar(5)
        digest = hashlib.sha512(b"t" + commit.encode() + b"s").digest()
        expected = int.from_bytes(digest, "little") % group.order
        assert challenge_hash(commit, b"s", b"t").value == expected


def test_challenge_hash_statement_sensitivity(toy_rng):
    kp = keygen(ED25519, toy_rng)
    seen = set()
    for i in range(256):
        stmt = bytes([i]) + b"fixed"
        seen.add(challenge_hash(kp.public, stmt, b"t").value)
    assert len(seen) == 256


def test_challenge_hash_no_repeats_large_sample(toy_rng):
    commit = keygen(ED25519, toy_rng).public
    values = {challenge_hash(commit, i.to_bytes(4, "big"), b"t").value
              for i in range(10_000)}
    assert len(values) == 10_000


def test_possession_roundtrip(toy_rng):
    kp = keygen(TOY, toy_rng)
    assert verify_possession(prove_possession(kp, toy_rng))


def test_possession_swapped_key_rejects(toy_rng):
    # in the toy group a proof holds for a wrong key one time in eleven
    a = keygen(ED25519, toy_rng)
    b = keygen(ED25519, toy_rng)
    proof_a = prove_possession(a, toy_rng).proof
    assert not verify_possession(SelfSignedKey(public=b.public, proof=proof_a))


def test_related_key_attack_rejected(toy_rng):
    # attacker picks X_i = G^{x_i} * X_j^{-1}; without knowing x_i - x_j it
    # cannot produce a possession proof for X_i
    victim = keygen(ED25519, toy_rng)
    x_i = ED25519.scalar(7)
    forged_public = (ED25519.generator ** x_i) * victim.public.inverse()
    attacker_kp = KeyPair.from_secret(ED25519, x_i.value)
    bogus_proof = schnorr_sign(attacker_kp, forged_public.encode(), toy_rng,
                               tag=TAG_POSSESSION)
    assert not verify_possession(SelfSignedKey(public=forged_public,
                                               proof=bogus_proof))


# -- canonical encodings ----------------------------------------------------

def test_toy_decode_rejects_noncanonical():
    with pytest.raises(DecodeError):
        TOY.decode_element(b"\x00\x00")  # zero
    with pytest.raises(DecodeError):
        TOY.decode_element((23).to_bytes(2, "little"))  # >= modulus
    with pytest.raises(DecodeError):
        TOY.decode_element((5).to_bytes(2, "little"))  # not in the subgroup
    with pytest.raises(DecodeError):
        TOY.decode_element(b"\x01")  # wrong length
    with pytest.raises(DecodeError):
        TOY.decode_scalar((11).to_bytes(2, "little"))  # non-reduced scalar


def test_ed25519_decode_rejects_noncanonical():
    p = 2**255 - 19
    with pytest.raises(DecodeError):
        ED25519.decode_element(p.to_bytes(32, "little"))  # y >= p
    # (0, -1) has order 2: on the curve but outside the prime-order subgroup
    with pytest.raises(DecodeError):
        ED25519.decode_element((p - 1).to_bytes(32, "little"))
    with pytest.raises(DecodeError):
        ED25519.decode_element(b"\x00" * 31)
    with pytest.raises(DecodeError):
        ED25519.decode_scalar((ED25519.order).to_bytes(32, "little"))


@settings(max_examples=60, deadline=None)
@given(x=st.integers(min_value=1, max_value=10))
def test_toy_encode_roundtrip(x):
    kp = KeyPair.from_secret(TOY, x)
    enc = kp.public.encode()
    assert len(enc) == 2
    assert TOY.decode_element(enc) == kp.public
    s = TOY.scalar(x)
    assert TOY.decode_scalar(s.encode()).value == x


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_ed25519_encode_roundtrip(seed):
    rng = random.Random(seed)
    kp = keygen(ED25519, rng)
    enc = kp.public.encode()
    assert len(enc) == 32
    assert ED25519.decode_element(enc) == kp.public
    assert ED25519.decode_scalar(kp.secret.encode()).value == kp.secret.value


@settings(max_examples=100, deadline=None)
@given(a=st.integers(min_value=0, max_value=10), b=st.integers(min_value=0, max_value=10))
def test_scalar_arithmetic_matches_int_oracle(a, b):
    q = TOY.order
    sa, sb = TOY.scalar(a), TOY.scalar(b)
    assert (sa + sb).value == (a + b) % q
    assert (sa - sb).value == (a - b) % q
    assert (sa * sb).value == (a * b) % q
    assert (-sa).value == (-a) % q


def test_group_element_algebra(toy_rng):
    g = TOY.generator
    a = g ** 3
    b = g ** 4
    assert a * b == g ** 7
    assert (a * a.inverse()) == TOY.identity
    assert a ** TOY.order == TOY.identity
    ge = keygen(ED25519, toy_rng).public
    assert ge * ge.inverse() == ED25519.identity


# -- Ed25519 exponentiation against a plain double-and-add reference -----------

def radix32(*digits):
    """The integer with these base-32 digits, least significant first."""
    return sum(d << 5 * i for i, d in enumerate(digits))


def radix64(*digits):
    """The integer with these base-64 digits, least significant first."""
    return sum(d << 6 * i for i, d in enumerate(digits))


def radix128(*digits):
    """The integer with these base-128 digits, least significant first."""
    return sum(d << 7 * i for i, d in enumerate(digits))


# Besides 0, 1 and the ends of the scalar range: digits of 63, 64 and 65
# sit on either side of where a fixed-base table's signed radix-128 digit
# turns negative and carries, and 127 is the digit -1 that carries; 15, 16
# and 17, and 31, 32 and 33, sit where a radix-32 and a radix-64 one would.
# Runs of 31, 63 and 127 carry through every digit.
EDGE_SCALARS = {"0": 0, "1": 1, "15": 15, "16": 16, "255": 255, "L-1": L - 1,
                "L": L, "2^253-1": 2**253 - 1, "2^300+5": 2**300 + 5,
                "17": 17, "31": 31, "33": 33,
                "15-15-15": radix32(15, 15, 15), "16-16-16": radix32(16, 16, 16),
                "17-17-17": radix32(17, 17, 17), "17-15-17": radix32(17, 15, 17),
                "2^100-1": 2**100 - 1, "(2^100-1)*8": (2**100 - 1) << 3,
                "16*32^1": 16 * 32, "16*32^25": 16 * 32**25, "16*32^50": 16 * 32**50,
                "2^252": 2**252, "2^255-1": 2**255 - 1, "L+1": L + 1, "2^300-1": 2**300 - 1,
                "32": 32, "63": 63, "64": 64,
                "31-31-31": radix64(31, 31, 31), "32-32-32": radix64(32, 32, 32),
                "33-33-33": radix64(33, 33, 33), "33-31-33": radix64(33, 31, 33),
                "32*64^1": 32 * 64, "32*64^21": 32 * 64**21, "32*64^42": 32 * 64**42,
                "33 in every row": radix64(*[33] * 42),
                "65": 65, "127": 127, "128": 128,
                "63-63-63": radix128(63, 63, 63), "64-64-64": radix128(64, 64, 64),
                "65-65-65": radix128(65, 65, 65), "65-63-65": radix128(65, 63, 65),
                "127-127-127": radix128(127, 127, 127),
                "64*128^1": 64 * 128, "64*128^18": 64 * 128**18, "64*128^35": 64 * 128**35,
                "65*128^35": 65 * 128**35,
                "65 in every row": radix128(*[65] * 36)}
# Exponents of up to 306 bits built from those digits.
SIGNED_DIGIT_PATTERNS = st.one_of(
    st.lists(st.sampled_from([0, 1, 15, 16, 17, 31]),
             min_size=1, max_size=61).map(lambda ds: radix32(*ds)),
    st.lists(st.sampled_from([0, 1, 31, 32, 33, 63]),
             min_size=1, max_size=51).map(lambda ds: radix64(*ds)),
    st.lists(st.sampled_from([0, 1, 63, 64, 65, 127]),
             min_size=1, max_size=43).map(lambda ds: radix128(*ds)))


def bases():
    """The generator, whose powers walk its table once it is built; an
    element decoded from G's bytes, whose first power takes the ladder; and
    a point that is not G."""
    cached = ED25519.generator
    decoded = ED25519.decode_element(cached.encode())
    assert cached.raw is ED25519.generator.raw
    assert decoded.raw is not cached.raw
    return cached, decoded, cached ** 0x1234567


# The reference kernels: the same formulas with every field product reduced
# mod p. The folded kernels must return the very same tuples.

def reduced_add_cached(p, q, with_t=True):
    x1, y1, z1, t1 = p
    ypx, ymx, z2, t2d = q
    a = (y1 - x1) * ymx % P
    b = (y1 + x1) * ypx % P
    c = t1 * t2d % P
    dd = z1 * z2 % P
    e, f, g, h = b - a, dd - c, dd + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P if with_t else None)


def reduced_add_affine(p, q):
    x1, y1, z1, t1 = p
    ypx, ymx, xy2d = q
    a = (y1 - x1) * ymx % P
    b = (y1 + x1) * ypx % P
    c = t1 * xy2d % P
    dd = 2 * z1
    e, f, g, h = b - a, dd - c, dd + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def reduced_double(p, with_t=True):
    x, y, z, _ = p
    a = x * x % P
    b = y * y % P
    c = 2 * z * z % P
    h = a + b
    s = x + y
    e = h - s * s % P
    g = a - b
    f = c + g
    return (e * f % P, g * h % P, f * g % P, e * h % P if with_t else None)


FIELD = st.one_of(st.sampled_from([0, 1, P - 1]), st.integers(min_value=0, max_value=P - 1))
QUADS = st.tuples(FIELD, FIELD, FIELD, FIELD)


@settings(max_examples=300, deadline=None)
@given(p=QUADS, q=QUADS, negated=st.booleans(), with_t=st.booleans())
def test_folded_kernels_match_reduced_ones(p, q, negated, with_t):
    """Any coordinates in [0, p), on the curve or not, come out as the very
    tuple the reduced formulas give. A negated entry's 2d*T is negative."""
    if negated:
        q = (q[1], q[0], q[2], -q[3])
    assert ED25519._add_cached(p, q, with_t) == reduced_add_cached(p, q, with_t)
    entry = (q[0], q[1], q[3])
    assert ED25519._add_affine(p, entry) == reduced_add_affine(p, entry)
    assert ED25519._double(p, with_t) == reduced_double(p, with_t)


def test_folded_kernels_match_reduced_ones_on_curve_points():
    """The identity, G, the point of order 2 and random points, against
    window entries and table entries, each also negated, with and without
    T."""
    rng = random.Random(23)
    g = ED25519.generator
    g ** 1, g ** 1  # G's table
    points = [ED25519._IDENT, g.raw, (0, P - 1, 1, 0)]
    points += [(g ** rng.randrange(1, L)).raw for _ in range(6)]
    cached = ED25519._window(points[3]) + [ED25519._cached(p) for p in points]
    cached += [(ymx, ypx, z2, -t2d) for ypx, ymx, z2, t2d in cached]
    entries = [*g._rows[0], *g._rows[-1]]
    entries += [(ymx, ypx, -xy2d) for ypx, ymx, xy2d in entries]
    for p in points:
        for with_t in (True, False):
            assert ED25519._double(p, with_t) == reduced_double(p, with_t)
            for q in cached:
                assert ED25519._add_cached(p, q, with_t) == reduced_add_cached(p, q, with_t)
        for q in entries:
            assert ED25519._add_affine(p, q) == reduced_add_affine(p, q)


def test_double_matches_add():
    rng = random.Random(8)
    g = ED25519.generator
    points = [ED25519._IDENT, g.raw, (0, P - 1, 1, 0)]  # (0, -1) has order 2
    points += [(g ** rng.getrandbits(253)).raw for _ in range(8)]
    for p in points:
        assert ED25519._eq(ED25519._double(p), ED25519._add(p, p))
        assert affine(ED25519._double(p)) == affine_add(affine(p), affine(p))


@pytest.mark.parametrize("k", EDGE_SCALARS.values(), ids=EDGE_SCALARS.keys())
def test_pow_edge_scalars_match_reference(k):
    for g in bases():
        expected = ref_pow(g.raw, k)
        assert affine((g ** k).raw) == expected
        assert affine(ladder(g.raw, k)) == expected
    assert ED25519.generator ** L == ED25519.identity


@settings(max_examples=40, deadline=None)
@given(k=st.one_of(st.integers(min_value=0, max_value=2**300), SIGNED_DIGIT_PATTERNS))
def test_pow_matches_reference(k):
    for g in bases():
        expected = ref_pow(g.raw, k % L)
        assert affine((g ** k).raw) == expected
        assert affine(ladder(g.raw, k)) == expected


@pytest.fixture
def ops(monkeypatch):
    """Counts calls of Ed25519Group's point additions and doublings by name,
    a cost that does not depend on the machine's speed; a call that leaves
    T out counts once more under its name plus " no T"."""
    calls = collections.Counter()
    for name in ("_add", "_add_affine", "_add_cached", "_double"):
        real = getattr(Ed25519Group, name)

        def counted(self, *args, name=name, real=real):
            point = real(self, *args)
            calls[name] += 1
            if point[3] is None:
                calls[name + " no T"] += 1
            return point
        monkeypatch.setattr(Ed25519Group, name, counted)
    return calls


# 36 rows of 65 entries, j = 0..64, and a top row of 3: the top digit of a
# k < L is at most 2
TABLE_SHAPE = [65] * 36 + [3]


def test_fixed_base_table_built_once(monkeypatch, ops):
    """G as a new process holds it: its first power takes the ladder, its
    second builds its table, and later powers walk it."""
    g = ED25519.generator
    monkeypatch.setattr(g, "_rows", 0)
    assert g ** 5 == ED25519.decode_element(g.encode()) ** 5
    assert g._rows == 1
    assert g ** 6 == ED25519.decode_element(g.encode()) ** 6
    rows = g._rows
    assert [len(row) for row in rows] == TABLE_SHAPE
    for k in (7, 2**200 + 3, L - 1):
        ops.clear()
        g ** k
        assert g._rows is rows
        # a table hit adds at most one affine entry per signed radix-128
        # digit, and neither rebuilds the table nor doubles
        assert set(ops) <= {"_add_affine"}
        assert ops["_add_affine"] <= 37


def test_fixed_base_table_matches_affine_reference():
    """G's table, and one built for another base."""
    for raw in (ED25519.generator.raw, kept_keys()[0].raw):
        table = ED25519._fixed_base_rows(raw)
        assert [len(row) for row in table] == TABLE_SHAPE
        base = affine(raw)
        for row in table:
            point = (0, 1)
            for j, entry in enumerate(row):
                x, y = point
                assert entry == ((y + x) % P, (y - x) % P, 2 * D * x * y % P), j
                point = affine_add(point, base)
            for _ in range(7):
                base = affine_add(base, base)


@functools.cache
def kept_keys():
    """Two random keys, each powered twice, so that each now holds its own
    fixed-base table."""
    rng = random.Random(41)
    keys = [keygen(ED25519, rng).public for _ in range(2)]
    for key in keys:
        key ** 3, key ** 5
        assert len(key._rows) == 37
    return keys


def ladder(raw, k):
    """raw^k by the ladder, as an element's first power takes it."""
    return ED25519._straus([(ED25519._window(raw), k)])


def assert_comb_matches_ladder(k):
    for key in kept_keys():
        comb = (key ** k).raw
        assert ED25519._eq(comb, ladder(key.raw, k)), k
        assert_extended(comb)


# k < L throughout, so the walk sees these digits unreduced. Besides 0, 1,
# L - 1 and 2^252, the top row's one bit: digits on either side of where a
# signed digit turns negative, 64 in each of the 36 full rows, and 65 in
# each, whose carry runs up through every row into the top one; 65 * 128^35
# carries from the last full row alone. The radix-32 and radix-64 patterns
# put other digits in every row.
COMB_SCALARS = {"0": 0, "1": 1, "15": 15, "16": 16, "17": 17, "31": 31, "32": 32,
                "L-1": L - 1, "16 in every row": radix32(*[16] * 50),
                "17 in every row": radix32(*[17] * 50),
                "33": 33, "63": 63, "64": 64, "2^252": 2**252,
                "32 in every row": radix64(*[32] * 42),
                "33 in every row": radix64(*[33] * 42),
                "65": 65, "127": 127, "128": 128, "127-127-127": radix128(127, 127, 127),
                "64*128^35": 64 * 128**35, "65*128^35": 65 * 128**35,
                "64 in every row": radix128(*[64] * 36),
                "65 in every row": radix128(*[65] * 36)}


@pytest.mark.parametrize("k", COMB_SCALARS.values(), ids=COMB_SCALARS.keys())
def test_kept_key_comb_edge_scalars_match_ladder(k):
    assert k < L
    assert_comb_matches_ladder(k)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=0, max_value=L - 1))
def test_kept_key_comb_matches_ladder(k):
    assert_comb_matches_ladder(k)


def test_kept_key_builds_its_table_on_its_second_power(ops):
    """No table at the first power, one at the second, and from then on
    table walks of at most 37 affine additions and no doubling. The toy
    group keeps no table."""
    rng = random.Random(43)
    key = keygen(ED25519, rng).public
    ops.clear()
    key ** (L - 1)
    assert key._rows == 1 and ops["_double"] >= 248 and "_add_affine" not in ops
    key ** rng.randrange(L)
    rows = key._rows
    assert len(rows) == 37
    for _ in range(3):
        ops.clear()
        key ** rng.randrange(L)
        assert key._rows is rows
        assert set(ops) <= {"_add_affine"} and ops["_add_affine"] <= 37
    toy = TOY.generator ** 3
    for k in range(3):
        assert toy ** k == TOY.generator ** (3 * k)
    assert toy._rows == 0 and TOY.generator._rows == 0


def test_generator_is_one_element_per_group():
    """Each group hands out one generator, so its table serves every power
    of G; an element powered once, as a fresh key is, holds no table."""
    for group in (TOY, ED25519):
        assert group.generator is group.generator
        once = group.generator ** 12345
        assert once._rows == 0
        once ** 3
        assert once._rows == (1 if group is ED25519 else 0)
        assert group.identity is not group.identity


# -- Signed windows and the multi-base ladder ---------------------------------

def test_window_holds_odd_signed_multiples():
    """Eight cached entries, a^1, a^3 .. a^15; a negative digit's entry is
    the positive one with Y + X and Y - X swapped and 2d*T negated."""
    for base in bases():
        window = ED25519._window(base.raw)
        assert len(window) == 8
        for d in range(1, 16, 2):
            x, y = ref_pow(base.raw, d)
            ypx, ymx, z2, t2d = window[d >> 1]
            assert cached_affine(window[d >> 1]) == (x, y)
            assert cached_affine((ymx, ypx, z2, -t2d)) == (-x % P, y)


def test_key_rows_hold_odd_multiples_of_shifted_keys():
    """A key's rows, from its second use on, are the windows of K, 2^64 * K
    and 2^128 * K, each entry scaled to Z = 1 (its 2Z is 2)."""
    key = ED25519.generator ** 0x1234567
    for _ in range(2):
        rows = ED25519._key_rows(key)
    assert [len(row) for row in rows] == [8, 8, 8]
    point = affine(key.raw)
    for row in rows:
        twice, entry = affine_add(point, point), point
        for cached in row:
            assert cached[2] == 2 and cached_affine(cached) == entry
            entry = affine_add(entry, twice)
        for _ in range(64):
            point = affine_add(point, point)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=16))
def test_straus_matches_product_of_references(seed, n):
    """One ladder over 1 to 16 bases, with exponents of mixed lengths and
    some 0, equals the product of the bases' separate powers."""
    rng = random.Random(seed)
    g = ED25519.generator
    terms, expected = [], (0, 1)
    for _ in range(n):
        point = (g ** rng.randrange(1, L)).raw
        k = rng.choice([0, rng.getrandbits(rng.randint(1, 256))])
        terms.append((ED25519._window(point), k))
        expected = affine_add(expected, ref_pow(point, k))
    assert affine(ED25519._straus(terms)) == expected


def assert_extended(point):
    """X*Y == Z*T: the point's T is there, and right."""
    x, y, z, t = point
    assert t is not None and (x * y - z * t) % P == 0


@settings(max_examples=25, deadline=None)
@given(k=st.one_of(st.integers(min_value=0, max_value=2**300), SIGNED_DIGIT_PATTERNS))
def test_pow_and_mul_hand_out_extended_points(k):
    for g in bases():
        assert_extended(ladder(g.raw, k))
        power = g ** k
        assert_extended(power.raw)
        assert_extended((power * g).raw)
        assert_extended((g * power.inverse()).raw)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=16))
def test_straus_hands_out_extended_points(seed, n):
    """1 to 16 bases, some exponents 0, some bases sharing one exponent, so
    that additions meet at the same bit with no doubling between them."""
    rng = random.Random(seed)
    g = ED25519.generator
    shared = rng.getrandbits(rng.randint(1, 256))
    terms = [(ED25519._window((g ** rng.randrange(1, L)).raw),
              rng.choice([0, 1, shared, rng.getrandbits(rng.randint(1, 256))]))
             for _ in range(n)]
    assert_extended(ED25519._straus(terms))
    assert_extended(ED25519._straus([(terms[0][0], shared)] * 2))


def test_batch_windows_extended_points(monkeypatch):
    """A passing batch calls no `check_response`, and every point it
    windows has its T: 8 keys and 8 negated commits with fresh keys, 8
    commits and the keys' 16 multiples 2^64 * K and 2^128 * K as they build
    their rows, and the 8 commits alone once the keys hold them."""
    windowed = []
    real = Ed25519Group._window
    monkeypatch.setattr(Ed25519Group, "_window",
                        lambda self, a: windowed.append(a) or real(self, a))
    checks = count_calls(monkeypatch, Ed25519Group, ("check_response",))
    rng = random.Random(29)
    c = ED25519.scalar(rng.randrange(1, L))
    items, _ = partial_responses(ED25519, rng, c, 8, ())
    counts = []
    for _ in range(3):
        windowed.clear()
        assert ED25519.failing(items) == []
        counts.append(len(windowed))
        for point in windowed:
            assert_extended(point)
    assert counts == [16, 24, 8] and not checks
    for _, key, _, commit in items:
        assert_extended(key.raw)
        assert_extended(commit.raw)


def test_key_window_built_once(monkeypatch):
    """A key element passed to check_response or `Group.failing` has its
    window built at its first use and its rows, from 2^64 * K on, at its
    second, and neither again. A one-shot schnorr_verify builds no rows."""
    rng = random.Random(31)
    g = ED25519.generator
    kp = keygen(ED25519, rng)
    sig = schnorr_sign(kp, b"m", rng)
    key = g ** rng.randrange(1, L)
    checks = []
    for _ in range(4):
        s, c = ED25519.random_scalar(rng), ED25519.random_scalar(rng)
        checks.append((s, key, c, g ** s * key ** c))
    c = ED25519.scalar(rng.randrange(1, L))
    items, _ = partial_responses(ED25519, rng, c, 8, ())
    # Every key exists before the counting starts, so no point counted
    # below shares an id with one.
    built = collections.Counter()
    for name in ("_window", "_doubled"):
        real = getattr(Ed25519Group, name)
        monkeypatch.setattr(Ed25519Group, name,
                            lambda self, a, *rest, name=name, real=real:
                            built.update([(name, id(a))]) or real(self, a, *rest))

    def builds(key):
        """Windows of key, and rows begun from it: no ladder doubles a key."""
        return built["_window", id(key.raw)], built["_doubled", id(key.raw)], len(key._win)

    assert schnorr_verify(kp.public, b"m", sig)
    assert builds(kp.public) == (1, 0, 1)
    seen = []
    for args in checks:
        assert ED25519.check_response(*args)
        seen.append(builds(key))
    assert seen == [(1, 0, 1)] + [(1, 1, 3)] * 3
    seen = []
    for _ in range(3):
        assert ED25519.failing(items) == []
        seen.append({builds(key) for _, key, _, _ in items})
    assert seen == [{(1, 0, 1)}, {(1, 1, 3)}, {(1, 1, 3)}]


def t_steps(ops):
    """Additions and doublings that computed T."""
    return (ops["_add_cached"] - ops["_add_cached no T"]
            + ops["_double"] - ops["_double no T"])


def test_signed_window_op_counts(ops):
    """Cached additions and doublings per operation at fixed inputs, pinned
    6-8% above their means: 49 additions for a 253-bit a^k; for a
    check_response 56 additions and 127 doublings as it builds its key's
    window, 64 and 194 as it builds the key's rows, and 50 and 64 once the
    key holds them; for a batch of 8 partials on fresh keys, 628 and 268
    (its keys get their whole 253-bit exponents), with 36 table additions of
    g^s, and on keys with rows, 575 and 136. The additions and doublings that
    compute T are pinned likewise (51 of a^k's 301 steps, 52 of a check's 114
    on a key with rows, 645 of a fresh batch's 896, 584 of a batch's 711 on
    keys with rows). Unsigned 4-bit windows took about 72 additions for a^k,
    every step computing T. Table additions of g^x, pinned 2% above their
    mean of 36.2 over eight scalars: a signed radix-64 table took 41.8, and
    a radix-32 one 49.3."""
    rng = random.Random(17)
    g = ED25519.generator
    point = g ** 0x1234567
    for _ in range(4):
        k = rng.getrandbits(253) | 1 << 252
        ops.clear()
        ladder(point.raw, k)
        assert set(ops) <= {"_add_cached", "_add_cached no T", "_double", "_double no T"}
        assert ops["_double"] >= 248  # the counters see the ladder
        assert ops["_add_cached"] <= 52
        assert t_steps(ops) <= 54
    # the first check builds the key's window, the second its rows
    for adds, doublings, with_t in [(60, 136, None), (69, 208, None), (53, 68, 55), (53, 68, 55)]:
        s, c = ED25519.random_scalar(rng), ED25519.random_scalar(rng)
        commit = g ** s * point ** c
        ops.clear()
        assert ED25519.check_response(s, point, c, commit)
        assert ops["_add_cached"] <= adds and ops["_double"] <= doublings
        assert with_t is None or t_steps(ops) <= with_t
    fresh = random.Random(100)  # its own source: rng's draws below do not depend on it
    c = ED25519.scalar(fresh.randrange(1, L))
    items, _ = partial_responses(ED25519, fresh, c, 8, ())
    ops.clear()
    assert ED25519.failing(items) == []
    assert ops["_add_cached"] <= 672 and ops["_double"] <= 286
    assert ops["_add_affine"] <= 45 and t_steps(ops) <= 690
    c = ED25519.scalar(rng.randrange(1, L))
    items, _ = partial_responses(ED25519, rng, c, 8, ())
    for _, key, _, _ in items:
        for _ in range(2):
            ED25519._key_rows(key)
    ops.clear()
    assert ED25519.failing(items) == []
    assert ops["_add_cached"] <= 615 and ops["_double"] <= 145
    assert t_steps(ops) <= 625
    ops.clear()
    for _ in range(8):
        g ** rng.randrange(L)
    assert set(ops) <= {"_add_affine"}
    assert ops["_add_affine"] <= 296


SPLIT_EDGES = {"0": 0, "1": 1, "2^126-1": 2**126 - 1, "2^126": 2**126, "L-1": L - 1,
               "2^190-1": 2**190 - 1, "2^190": 2**190, "(L+1)/2": (L + 1) // 2}
# The split bounds, each with the widths its pairs are pinned to, (c0, |t|):
# over 100,000 random c the widest pair was 134 and 134 bits at 2^126, and
# 199 and 71 bits at 2^190, where a key's rows take c0's low 128 bits.
SPLIT_WIDTHS = {2**126: (2**143, 2**143), 2**190: (2**208, 2**80)}
# Hypothesis favours small integers, which split trivially as (c, 1); the
# seeded draws are uniform over [0, L), where half the cofactors come out even.
CHALLENGES = st.one_of(
    st.integers(min_value=0, max_value=L - 1),
    st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: random.Random(seed).randrange(L)))


def assert_short_odd_split(c, bound, short=True):
    """c splits at bound into an exact pair, c0 >= 0 and t odd, and, if
    short, one within the bound's pinned widths. Some edges have no short
    pair with odd t: (L + 1) / 2 at either bound."""
    c0, t = _half_split(c, bound)
    assert (c0 - c * t) % L == 0
    assert t & 1 and c0 >= 0
    if short:
        top_c0, top_t = SPLIT_WIDTHS[bound]
        assert c0 <= top_c0 and abs(t) <= top_t


@pytest.mark.parametrize("c", SPLIT_EDGES.values(), ids=SPLIT_EDGES.keys())
def test_half_split_edge_scalars(c):
    for bound in SPLIT_WIDTHS:
        assert_short_odd_split(c, bound, c != (L + 1) // 2)


def test_half_split_weighs_t_by_the_ladder_it_runs():
    """A check on a key's rows runs max(bits(c0) - 128, bits(t)) doublings,
    so at 2^190 |t| weighs 2^128: 2^190 splits into (2^190, 1), and
    (L + 1) / 2 into a pair of 124 doublings. At 2^126 |t| weighs 1, and
    2^190 splits into two 128-bit halves."""
    assert _half_split(2**190, 2**190) == (2**190, 1)
    c0, t = _half_split((L + 1) // 2, 2**190)
    assert max(c0.bit_length() - 128, abs(t).bit_length()) == 124
    c0, t = _half_split(2**190, 2**126)
    assert c0.bit_length() == abs(t).bit_length() == 128


@settings(max_examples=300, deadline=None)
@given(c=CHALLENGES)
def test_half_split_short_and_odd(c):
    for bound in SPLIT_WIDTHS:
        assert_short_odd_split(c, bound)


def check_against_reference(group, a, s, c, torsion):
    """check_response agrees with g^s * A^c == R for a valid R, for R*G and,
    in Ed25519, for R plus a point of order 2, 4 and 8; in the toy group for
    R times -1, of order 2 in Z_23*."""
    g = group.generator
    key = g ** a
    s, c = group.scalar(s), group.scalar(c)
    valid = g ** s * key ** c
    if group is TOY:
        extras = [TOY.modulus - 1]
    else:
        extras = [(x, y, 1, x * y % P) for x, y in (torsion[n] for n in (2, 4, 8))]
    commits = [valid, valid * g] + [valid * GroupElement(group, e) for e in extras]
    verdicts = []
    for commit in commits:
        verdict = group.check_response(s, key, c, commit)
        assert verdict == (g ** s * key ** c == commit)
        verdicts.append(verdict)
    assert verdicts == [True] + [False] * (len(commits) - 1)


@pytest.mark.parametrize("c", SPLIT_EDGES.values(), ids=SPLIT_EDGES.keys())
def test_check_response_edge_challenges(c, torsion):
    rng = random.Random(c)
    for group in (TOY, ED25519):
        a = rng.randrange(1, group.order)
        check_against_reference(group, a, rng.randrange(group.order), c % group.order,
                                torsion)


@pytest.mark.parametrize("c", SPLIT_EDGES.values(), ids=SPLIT_EDGES.keys())
def test_check_response_edge_challenges_on_key_rows(c):
    """The same edges on a key that holds its rows, where c splits at 2^190
    and c0 is walked in 64-bit digits."""
    rng = random.Random(c)
    g = ED25519.generator
    key = g ** rng.randrange(1, L)
    for _ in range(2):
        ED25519._key_rows(key)
    s, c = ED25519.scalar(rng.randrange(L)), ED25519.scalar(c)
    valid = g ** s * key ** c
    assert ED25519.check_response(s, key, c, valid)
    assert not ED25519.check_response(s, key, c, valid * g)


@settings(max_examples=25, deadline=None)
@given(a=st.integers(min_value=1, max_value=L - 1),
       s=st.integers(min_value=0, max_value=L - 1), c=CHALLENGES)
def test_check_response_matches_reference(a, s, c, torsion):
    for group in (TOY, ED25519):
        check_against_reference(group, a % group.order or 1, s, c, torsion)


def partial_responses(group, rng, c, n, corrupt):
    """n responses to c, as `Group.failing` items (s, key, c, commit) with
    key the aggregate of a random non-empty subset of four keys and commit =
    g^s * key^c, and the set of positions whose item was made wrong: s + 1,
    commit * g, or the key of the subset with one more member."""
    g = group.generator
    secrets = [group.random_scalar(rng) for _ in range(4)]
    keys = [g ** x for x in secrets]

    def aggregate(members):
        key = group.identity
        for j in members:
            key = key * keys[j]
        return key

    items, bad = [], set()
    for i in range(n):
        members = set(rng.sample(range(4), rng.randint(1, 3)))
        x = group.scalar(sum(secrets[j].value for j in members))
        v = group.random_scalar(rng)
        s, key, commit = v - c * x, aggregate(members), g ** v
        if i in corrupt:
            how = rng.choice(["s", "commit", "key"])
            if how == "s":
                s = s + group.scalar(1)
            elif how == "commit":
                commit = commit * g
            else:
                key = aggregate(members ^ {rng.choice(sorted(set(range(4)) - members))})
            bad.add(i)
        items.append((s, key, c, commit))
    return items, bad


# Uses of each key before a batch sees it: none (it builds its window), one
# (it builds its rows in the batch), two (it holds them), or some of each.
KEY_STATES = [(0,), (1,), (2,), (0, 1, 2)]


def in_key_state(items, uses):
    """items with copies of their keys, each used as a key uses[i] times."""
    copies = []
    for (s, key, c, commit), n in zip(items, uses):
        key = GroupElement(key.group, key.raw)
        for _ in range(n):
            key.group._key_rows(key)
        copies.append((s, key, c, commit))
    return copies


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=16), data=st.data())
def test_check_responses_agrees_with_single_checks(seed, n, data):
    """An Ed25519 batch passes exactly when every item passes on its own,
    and `Group.failing` names exactly the items that fail on their own, in
    both groups, and in Ed25519 whether the keys are fresh, build their rows
    in the batch, hold them already, or each is in one of those states."""
    corrupt = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3))
    rng = random.Random(seed)
    for group in (TOY, ED25519):
        # c = 0 would make a wrong key harmless
        c = group.scalar(rng.randrange(1, group.order))
        items, bad = partial_responses(group, rng, c, n, corrupt)
        for state in KEY_STATES if group is ED25519 else [(0,)]:
            uses = [rng.choice(state) for _ in items]
            singles = [group.check_response(*item) for item in in_key_state(items, uses)]
            assert {i for i, ok in enumerate(singles) if not ok} == bad
            if group is ED25519 and n > 1:
                assert group._check_batch(in_key_state(items, uses), True) == (not bad)
            assert group.failing(in_key_state(items, uses)) == sorted(bad)


def test_batch_of_honest_partials_runs_one_check(monkeypatch):
    """Ed25519 checks a passing batch in one ladder and no `check_response`;
    the toy group checks each item."""
    calls = []
    for cls in (Group, Ed25519Group):
        real = cls.__dict__["check_response"]
        monkeypatch.setattr(cls, "check_response",
                            lambda self, *args, real=real: calls.append(self) or real(self, *args))
    ladders = count_calls(monkeypatch, Ed25519Group, ("_straus",))
    for group, checks, ladder in ((ED25519, 0, 1), (TOY, 8, 0)):
        c = group.scalar(7)
        items, _ = partial_responses(group, random.Random(3), c, 8, ())
        calls.clear()
        ladders.clear()
        assert group.failing(items) == []
        assert (len(calls), ladders["_straus"]) == (checks, ladder)


def test_batch_needs_prime_order_commits(torsion):
    """Why every commit must lie in the prime-order subgroup: two commits
    that each carry the same order-2 point fail alone, but odd weights sum
    to an even one, so the point cancels in the batch."""
    t2 = GroupElement(ED25519, (*torsion[2], 1, torsion[2][0] * torsion[2][1] % P))
    c = ED25519.scalar(5)
    items, _ = partial_responses(ED25519, random.Random(4), c, 2, ())
    items = [(s, key, c, commit * t2) for s, key, c, commit in items]
    assert not any(ED25519.check_response(*item) for item in items)
    assert ED25519.failing(items) == []


def test_ed25519_decode_rejects_mixed_order_point(torsion):
    # G plus a point of order 8 lies on the curve, but outside the
    # prime-order subgroup: only the subgroup check can reject it.
    tx, ty = torsion[8]
    assert ref_pow((tx, ty, 1, tx * ty % P), 8) == (0, 1)
    mixed = affine_add(affine(ED25519.generator.raw), torsion[8])
    data = (mixed[1] | ((mixed[0] & 1) << 255)).to_bytes(32, "little")
    with pytest.raises(DecodeError, match="prime-order subgroup"):
        ED25519.decode_element(data)


def test_groups_copy_as_themselves():
    for group in (TOY, ED25519):
        assert copy.copy(group) is group and copy.deepcopy(group) is group
        assert copy.deepcopy(group.generator) == group.generator
        assert copy.deepcopy(group.scalar(3)) == group.scalar(3)


# -- (R, s) signatures and their batch check ------------------------------------

def plain_point(data: bytes):
    """The curve point an encoding names, through `ref_recover_x`."""
    v = int.from_bytes(data, "little")
    y = v & ((1 << 255) - 1)
    x = ref_recover_x(y, v >> 255)
    return (x, y, 1, x * y % P)


PLAIN_G = bytes.fromhex("58" + "66" * 31)  # RFC 8032's base point, encoded


def plain_schnorr_holds(public: bytes, statement: bytes, sig: bytes, tag: bytes) -> bool:
    """[s]G + [c]A == R for c = SHA-512(tag | R | statement) mod L, on plain
    integers: affine formulas, a bit-by-bit ladder and a hash read here."""
    commit, s = sig[:32], int.from_bytes(sig[32:], "little")
    c = int.from_bytes(hashlib.sha512(tag + commit + statement).digest(), "little") % L
    total = affine_add(ref_pow(plain_point(PLAIN_G), s), ref_pow(plain_point(public), c))
    return encode_affine(total) == commit


def test_prod_possession_proofs_hold_on_plain_integers():
    rng = random.Random(11)
    for _ in range(3):
        ssk = prove_possession(keygen(ED25519, rng), rng)
        public, proof = ssk.public.encode(), ssk.proof.encode()
        assert len(proof) == 64 and proof[:32] == ssk.proof.R.encode()
        assert plain_schnorr_holds(public, public, proof, TAG_POSSESSION)
        s = int.from_bytes(proof[32:], "little")
        bumped = proof[:32] + ((s + 1) % L).to_bytes(32, "little")
        assert not plain_schnorr_holds(public, public, bumped, TAG_POSSESSION)
        assert not verify_possession(SelfSignedKey(ssk.public,
                                                   Signature.decode(ED25519, bumped)))


@pytest.mark.parametrize("order", [2, 4, 8])
def test_signature_decode_rejects_mixed_order_commit(order, torsion):
    rng = random.Random(12)
    sig = schnorr_sign(keygen(ED25519, rng), b"m", rng)
    assert Signature.decode(ED25519, sig.encode()) == sig
    mixed = encode_affine(affine_add(affine(sig.R.raw), torsion[order]))
    with pytest.raises(DecodeError, match="prime-order subgroup"):
        Signature.decode(ED25519, mixed + sig.s.encode())


SIGNATURE_MUTATIONS = ("s", "R", "key", "statement")


def signed_items(group, rng, n, corrupt):
    """n (public, statement, signature) items; each item in `corrupt` is
    altered in one of `SIGNATURE_MUTATIONS`."""
    items = []
    for i in range(n):
        kp = keygen(group, rng)
        public, statement = kp.public, b"item %d" % i
        sig = schnorr_sign(kp, statement, rng)
        how = rng.choice(SIGNATURE_MUTATIONS) if i in corrupt else None
        if how == "s":
            sig = Signature(sig.R, sig.s + group.scalar(1))
        elif how == "R":
            sig = Signature(sig.R * group.generator, sig.s)
        elif how == "key":
            public = public * group.generator
        elif how == "statement":
            statement += b"!"
        items.append((public, statement, sig))
    return items


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=12), data=st.data())
def test_signature_batch_agrees_with_single_checks(seed, n, data):
    """A batch of signatures with different challenges passes exactly when
    every single check does, and `schnorr_failing` and `possession_failing`
    name the ones that fail. In the toy group a mutation survives a check
    one time in eleven, so there only agreement is asserted."""
    corrupt = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3))
    rng = random.Random(seed)
    items = signed_items(ED25519, rng, n, corrupt)
    assert {i for i, item in enumerate(items) if not schnorr_verify(*item)} == corrupt
    if n > 1:
        batch = [(sig.s, public, challenge_hash(sig.R, statement, TAG_SIGN), sig.R)
                 for public, statement, sig in items]
        assert ED25519._check_batch(batch, False) == (not corrupt)
    assert schnorr_failing(items) == sorted(corrupt)
    # possession proofs whose signed statement is not the key's encoding
    keys = [prove_possession(keygen(ED25519, rng), rng) for _ in range(n)]
    keys = [SelfSignedKey(key.public, sig) if i in corrupt else key
            for i, (key, (_, _, sig)) in enumerate(zip(keys, items))]
    assert [verify_possession(key) for key in keys] == [i not in corrupt for i in range(n)]
    assert possession_failing(keys) == sorted(corrupt)
    items = signed_items(TOY, rng, n, corrupt)
    assert schnorr_failing(items) == [i for i, item in enumerate(items)
                                      if not schnorr_verify(*item)]


def test_signature_batch_runs_no_single_check(monkeypatch):
    """Ed25519 checks a batch in one ladder; the toy group checks each item."""
    calls = []
    for cls in (Group, Ed25519Group):
        real = cls.__dict__["check_response"]
        monkeypatch.setattr(cls, "check_response",
                            lambda self, *args, real=real: calls.append(self) or real(self, *args))
    for group, expected in ((ED25519, 0), (TOY, 8)):
        items = signed_items(group, random.Random(3), 8, ())
        calls.clear()
        assert schnorr_failing(items) == []
        assert len(calls) == expected


def test_signature_batch_needs_prime_order_commits(torsion):
    """Why `Signature.decode` checks R: two signatures whose R = g^v each
    carry the same order-2 point, answered as R's challenge asks, fail
    alone, but odd weights sum to an even one, so the point cancels in the
    batch."""
    t2 = GroupElement(ED25519, (*torsion[2], 1, torsion[2][0] * torsion[2][1] % P))
    rng = random.Random(4)
    items = []
    for _ in range(2):
        kp, v = keygen(ED25519, rng), ED25519.random_scalar(rng)
        commit = ED25519.generator ** v * t2
        c = challenge_hash(commit, b"m", TAG_SIGN)
        items.append((kp.public, b"m", Signature(commit, v - c * kp.secret)))
    assert not any(schnorr_verify(*item) for item in items)
    assert schnorr_failing(items) == []


# -- Ed25519 decoding against independent references ---------------------------

I = pow(2, (P - 1) // 4, P)  # sqrt(-1)


def ref_recover_x(y, sign):
    """x for y and the sign bit, or None: the square root of
    (y^2 - 1) / (d*y^2 + 1) taken after one inversion, a second route to
    the single exponentiation of RFC 8032 section 5.1.3."""
    xx = (y * y - 1) * pow(D * y * y + 1, -1, P) % P
    x = pow(xx, (P + 3) // 8, P)
    if (x * x - xx) % P:
        x = x * I % P
    if (x * x - xx) % P or (x == 0 and sign):
        return None
    return P - x if x & 1 != sign else x


def recovered_x(y, sign):
    try:
        return _recover_x(y, sign)
    except DecodeError:
        return None


def test_recover_x_edges_match_reference():
    # y = 1 and y = -1 give x = 0, where only sign 0 is canonical; y = 0
    # gives x = sqrt(-1); y = 2 has no x.
    for y in (0, 1, 2, P - 2, P - 1):
        for sign in (0, 1):
            assert recovered_x(y, sign) == ref_recover_x(y, sign)
    assert recovered_x(1, 0) == recovered_x(P - 1, 0) == 0
    assert recovered_x(1, 1) is recovered_x(P - 1, 1) is recovered_x(2, 0) is None


@settings(max_examples=200, deadline=None)
@given(y=st.integers(min_value=0, max_value=P - 1), sign=st.integers(0, 1))
def test_recover_x_matches_reference(y, sign):
    assert recovered_x(y, sign) == ref_recover_x(y, sign)


def ref_in_subgroup(x, y):
    """Whether [L](x, y) is the identity: double-and-add in projective
    (X : Y : Z) coordinates with the unified addition of Bernstein et al.,
    "Twisted Edwards Curves" (2008), apart from the group module's formulas."""
    def add(p1, p2):
        x1, y1, z1 = p1
        x2, y2, z2 = p2
        a = z1 * z2 % P
        b = a * a % P
        c = x1 * x2 % P
        d = y1 * y2 % P
        e = D * c * d % P
        f, g = b - e, b + e
        return (a * f * ((x1 + y1) * (x2 + y2) - c - d) % P,
                a * g * (d + c) % P, f * g % P)

    r, q, k = (0, 1, 1), (x, y, 1), L
    while k:
        if k & 1:
            r = add(r, q)
        q = add(q, q)
        k >>= 1
    return r[0] == 0 and r[1] == r[2]


def decodes(point):
    try:
        ED25519.decode_element(encode_affine(point))
    except DecodeError as exc:
        assert "prime-order subgroup" in str(exc)
        return False
    return True


def assert_decode_matches_reference(points):
    verdicts = [decodes(p) for p in points]
    assert verdicts == [ref_in_subgroup(*p) for p in points]
    return verdicts


@pytest.fixture(scope="module")
def small_order(torsion):
    """The eight points of order dividing 8, as multiples of one of order 8."""
    points = [(0, 1)]
    for _ in range(7):
        points.append(affine_add(points[-1], torsion[8]))
    return points


def test_decode_small_order_points(small_order):
    # only the identity is in the subgroup; (0, -1) is the multiple 4
    assert small_order[4] == (0, P - 1)
    assert assert_decode_matches_reference(small_order) == [True] + [False] * 7


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=0, max_value=L - 1))
def test_decode_every_torsion_coset_matches_reference(k, small_order):
    """G^k plus each point of order dividing 8: only the first is in the
    subgroup, and the others fail at each depth of the halving."""
    base = affine((ED25519.generator ** k).raw)
    points = [affine_add(base, t) for t in small_order]
    assert assert_decode_matches_reference(points) == [True] + [False] * 7


# (Jacobi symbols, square roots) one decode of G^k plus the multiple j of a
# point of order 8 reads, by j. For odd j, u is not a square and the first
# square root after x's is None; for j = 2 and 6 the first half is not in 2E;
# j = 0 and 4 run all three levels, where the last needs no choice of sigma.
DECODE_OPS = {0: (3, 4), 1: (0, 2), 2: (2, 2), 3: (0, 2),
              4: (3, 4), 5: (0, 2), 6: (2, 2), 7: (0, 2)}


def test_decode_square_roots_and_jacobi_symbols_per_coset(monkeypatch, small_order):
    calls = count_calls(monkeypatch, group_mod, ("_is_square", "_sqrt_ratio"))
    base = affine((ED25519.generator ** 0x5EED).raw)
    for j, t in enumerate(small_order):
        point = affine_add(base, t)
        calls.clear()
        assert decodes(point) == ref_in_subgroup(*point) == (j == 0)
        assert (calls["_is_square"], calls["_sqrt_ratio"]) == DECODE_OPS[j], j


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_decode_random_curve_points_match_reference(seed):
    """Points from uniform y, both signs: about one in eight is in the
    subgroup."""
    rng = random.Random(seed)
    points = []
    while len(points) < 8:
        y = rng.randrange(P)
        x = ref_recover_x(y, rng.getrandbits(1))
        if x is not None:
            points.append((x, y))
    assert_decode_matches_reference(points)
