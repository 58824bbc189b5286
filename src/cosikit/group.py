"""Prime-order group arithmetic, Schnorr signatures, and key possession proofs.

Two groups are registered: the production group (the prime-order subgroup of
Ed25519, 32-byte encodings) and a brute-forceable toy group (the order-11
subgroup of Z_23* generated by 2, 2-byte encodings) used by oracle tests.
All protocol arithmetic in the rest of the package goes through this module.

Ed25519 precomputation follows one rent-or-buy rule (Karlin, Manasse,
Rudolph and Sleator, "Competitive Snoopy Caching", Algorithmica 1988). An
element has one slot, which counts the uses it has run on the ladder until
they reach the build cost of its one precomputation; the use that reaches it
builds that precomputation, and the slot keeps it instead. A powered base
builds a fixed-base table, a checked key its rows (below). Before that the
element keeps nothing, and each use runs the ladder, so that a base powered
once or twice, as a fresh key or a one-shot verifier's present key is,
builds nothing. Each threshold is a build's cost over what a use saves with
it, so that at every number of uses the total is at most twice the cheaper
of the ladder every time and a build at the first use. Costs are counted in
point operations, with an entry scaled to Z = 1 counted as one (3 field
multiplications in Montgomery's trick and 4 to scale it, where an addition
takes 7 or 8). A power by the ladder counts about 300, a table walk 36 and a
table build about 4,650, so a table pays after 4,650 / 264, about 18 powers,
and the 18th builds it (`_TABLE_USES`); timed, a power took 2.12 ms by the
ladder, 34.0 ms with the build and 0.28 ms by a walk, which also gives 18. A
check on a key without rows counts about 218 and one on a key with rows
about 150, and the rows take about 176 to build, so rows pay after about 2.6
checks by this count and 2 by the clock (a key's 1st, 2nd and 3rd checks
took 1.49, 2.07 and 0.93 ms; 2-vCPU machine, Python 3.11, medians of 7), and
the 2nd builds them (`_ROWS_USES`). Counted so, a table's total stays within
1.85 times the cheaper choice over 100 powers, and rows within 1.25 times
over 20 checks. An element that keeps one kind runs the ladder where it
would use the other; no element in the package is both a repeated base and a
repeated key. Each group hands out one generator element, so G's table
serves every power of G in the process. A roster hands out one element for
its aggregate key, which every full-roster verification raises to a
challenge, and one for the present key of the last absent set it verified
(`WitnessRoster.present_key`), so those build tables once they recur. No
other element is powered more than once. The table writes k mod L in radix
128 with digits in [-63, 64], and a power adds one entry per nonzero digit
from 36 rows of 65 multiples j * 128^i * base, j = 0..64, and a top row of
3, j = 0..2 (the top digit of a k < L is at most 2), with no doublings:
about 36 additions for a random k, where a radix-64 table of 42 rows of 33
takes 42 and a radix-32 one of 51 rows of 17 takes 49 (Bernstein et al.,
CHES 2011; Brickell et al., EUROCRYPT 1992). The entries are affine, stored
as (y + x, y - x, 2d*x*y), so each addition is a mixed one of 7 field
multiplications; a negative digit adds an entry with y + x and y - x swapped
and 2d*x*y negated. A table holds 2,343 entries, about 0.60 MB under
tracemalloc, where radix 64 holds 1,389 and 0.34 MB, and builds in about
half the time; a radix-256 table would save about 4 more additions a walk,
at about 1 MB a table. The ladder, which the powers below an element's
threshold and every product of powers run, uses a width-5 NAF. One doubling
and 7 additions precompute its odd multiples 1, 3 .. 15 in the cached form
(Y + X, Y - X, 2Z, 2d*T) of Bernstein et al. (CHES 2011); a negative digit
adds an entry with Y + X and Y - X swapped and 2d*T negated, so negations
cost nothing. Adding a cached entry takes 8 field multiplications, where
adding two extended points takes 9. The recoded exponent has odd digits in
[-15, 15] with at least four zeros after each, so it costs about one
addition per six bits: 49 additions and 252 doublings for a 253-bit
exponent, where an unsigned 4-bit window takes 72 and 248. Doublings use the
dedicated a = -1 formula of RFC 8032, which never reads T. The ladder
therefore computes T, one multiplication, only on a step whose next step is
an addition, and for its result (Hisil et al., ASIACRYPT 2008): on about 51
of a^k's 301 steps.

Field products are reduced in one of two ways. A product that a formula
returns is reduced by `% p`, so every coordinate of every point returned is
canonical, in [0, p). A product that only feeds later products of the same
formula (a, b, c and dd of an addition, the four squares of a doubling) is
folded instead, by 2^255 = 19 (mod p): t becomes (t mod 2^255) + 19 *
floor(t / 2^255), which is congruent to t and costs about two thirds of
`% p` (Bernstein, "Curve25519: new Diffie-Hellman speed records", PKC 2006).
Folded values, and the sums and differences of them that the returned
products multiply, stay below 2^262 in magnitude: a few bits more than a
reduced value, and still nine 30-bit digits of a Python int. Each returned
product is then the same residue as if every product had been reduced, so
the kernels return the same tuples, bit for bit.

`check_response` tests g^s * A^c == R without a full-length A^c. A
truncated extended Euclid splits c into c0 = c*t (mod L) and an odd t, and
the equation raised to t, A^c0 * R^-t == g^(-s*t), is then checked by one
joint ladder over the windows of A and R (Straus) and one table power of G
(Antipa et al., SAC 2005; Pornin, https://eprint.iacr.org/2020/454). A key
builds its rows by the rule above: the windows of A, 2^64*A and 2^128*A, so
that an exponent of A can be walked in 64-bit digits, one per row (Lim and
Lee, CRYPTO 1994). A node keeps one key element per child subtree, so a
child's rows are built at its second round and not again. For a key
without rows, c0 and t are both about 126 bits, and a check costs about 56
additions (7 of them building the key's window), 36 table additions and
127 doublings. For a key with rows, c is split at 2^190 instead: c0, about
190 bits, is walked in 64-bit digits and t is about 62 bits, so the ladder
is about 64 doublings long, and a check costs about 50 additions, 36 table
additions and 64 doublings. The rows take 128 doublings and 21 additions to
build, with their three windows (a check that builds them costs about 70
additions and 194 doublings in all). Their entries are scaled to Z = 1, for
one inversion, so that each holds three field elements where a ladder's
window entry holds four: a key holds about 6.1 KB under tracemalloc.

A Schnorr signature is (R, s): R = g^v for the signer's nonce v, and
s = v - c*x for its secret x and c = `challenge_hash(R, statement, tag)`.
The verifier recomputes c and makes one `check_response(s, A, c, R)` for
the signer's key A.

`Group.failing` checks many such equations at once, each (s_i, K_i, c_i,
V_i) with its own challenge, as a node does with its children's partial
responses (which share one c) and `build_roster` with a roster's possession
proofs, and names the ones that fail. Each item gets a random odd 128-bit
weight w_i, drawn from `secrets` so that no seeded generator's stream moves,
and one Straus ladder over the keys, with exponents u_i = w_i*c_i mod L, and
over the negated V_i, with exponents w_i, must equal one table power
g^(-sum w_i*s_i). Only if it does not are the items checked one by one, to
name them. A key with rows takes u_i in 64-bit digits, the top one about
125 bits, so the ladder is 128 doublings long; a key without them takes the
whole u_i on its window, and the ladder is then 253 doublings long. A batch
of 8 partials on keys with rows costs about 575 additions, 36 table
additions and 136 doublings, where three ladders (for A = prod K_i^w_i, for
W = prod V_i^w_i, and one check of A and W) took 461 additions and 390
doublings. On new keys it costs about 626 additions and 268 doublings, and
as the keys build their rows, about 745 and 1,184. A roster's keys are
checked together once, in its possession batch, and never again as these
elements, so each keeps nothing: about 78 additions and 2 doublings per
item (42 additions for the key and 21 for R in the ladder, the rest
building their two windows), plus 252 doublings and 36 table additions in
all, against about 92 additions (36 from the table) and 127 doublings per
item checked one by one.

If any item fails, the batch passes with probability at most 2^-127
(Bellare, Garay and Rabin, EUROCRYPT 1998), provided every key and every
commit lies in the prime-order subgroup; decoding guarantees that for every
element from the wire (`Signature.decode` checks R as it checks any
element), and products of such elements stay in it. Without it a batch and
single checks can disagree (Chalkias, Garillot and Nikolaenko, "Taming the
many EdDSAs", SSR 2020): a single check needs no such guarantee for R
(`check_response` rejects an R with a small-order component), but
small-order components of two R's in one batch can cancel, so a batch could
accept what single checks reject. The toy group checks one by one: its
order is 11, so a random weight would let a wrong response through with
probability about 1/11.

Decoding an element checks that it lies in the prime-order subgroup
without computing [L]P. E(F_p) is cyclic of order 8L, so that subgroup is
exactly 8E: a point is in it iff the point, a half of it and a half of that
half each lie in 2E. Whether a point lies in 2E is whether its Montgomery
coordinate is a square, and whether a half does can be read from the
halving equation without finding the half (Pornin, "Point-Halving and
Subgroup Membership in Twisted Edwards Curves", 2022). The test costs three
square roots, three Jacobi symbols and one inversion, against about 252
doublings and 60 additions for [L]P: whether the point's own coordinate is
a square is read from the first square root, and the last halving needs no
choice between two candidates (`_in_prime_subgroup`).

The arithmetic runs on plain Python integers and is variable-time: its
running time depends on the scalar's digits (zero digits skip their
addition, the NAF recoding jumps over runs of zero bits, and a negative
digit takes another branch) and on Python's big-integer operations. The
subgroup test stops at the first level a point fails, and its Jacobi
symbols take a data-dependent number of steps. None of it is hardened
against timing side channels.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

# Domain separation tags. Each hash use in the protocol gets its own tag so
# a digest computed in one context can never be replayed in another.
TAG_SIGN = b"cosi/sig/v1"
TAG_POSSESSION = b"cosi/possess/v1"
TAG_CHALLENGE_PLAIN = b"cosi/challenge/plain/v1"
TAG_CHALLENGE_TREE = b"cosi/challenge/tree/v1"
TAG_MERKLE_LEAF = b"cosi/merkle/leaf/v1"
TAG_MERKLE_NODE = b"cosi/merkle/node/v1"
TAG_EMPTY_TREE = b"cosi/merkle/empty/v1"


class DecodeError(ValueError):
    """Raised when a byte string is not a canonical encoding: a scalar, an
    element, or a frame, signature, proof or receipt that `Reader` walks."""


class Reader:
    """Bounded cursor over one binary encoding from outside.

    Every read checks the remaining length first. `witness_count` is the
    roster size: `count` rejects a record count above it before any record
    is read, and `index` rejects a witness index at or past it, so a decoder
    bounds its costly element decodes by the roster before running them.
    """

    __slots__ = ("data", "off", "witness_count")

    def __init__(self, data: bytes, witness_count: int):
        self.data = data
        self.off = 0
        self.witness_count = witness_count

    def take(self, n: int) -> bytes:
        off = self.off
        end = off + n
        if end > len(self.data):
            raise DecodeError("truncated encoding")
        self.off = end
        return self.data[off:end]

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def count(self) -> int:
        """A u16 record count, at most one record per witness."""
        n = self.u16()
        if n > self.witness_count:
            raise DecodeError(f"{n} records for {self.witness_count} witnesses")
        return n

    def index(self) -> int:
        i = self.u32()
        if i >= self.witness_count:
            raise DecodeError(f"witness index {i} out of range")
        return i

    def done(self) -> None:
        if self.off != len(self.data):
            raise DecodeError("trailing bytes after encoding")


class Group:
    """A group of prime order q with hard discrete log, in multiplicative notation.

    Subclasses provide the raw representation ops; callers use the Scalar /
    GroupElement wrappers.
    """

    group_id: int
    name: str
    order: int
    scalar_size: int
    element_size: int

    # -- raw element ops (subclass responsibility) --

    def _mul(self, a, b):
        raise NotImplementedError

    def _pow(self, a: "GroupElement", k: int):
        """The raw a^k for an element a and 0 <= k < order."""
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _eq(self, a, b) -> bool:
        raise NotImplementedError

    def _encode(self, a) -> bytes:
        raise NotImplementedError

    def _decode(self, data: bytes):
        raise NotImplementedError

    def _generator_raw(self):
        raise NotImplementedError

    def _identity_raw(self):
        raise NotImplementedError

    # -- public surface --

    @cached_property
    def generator(self) -> "GroupElement":
        # One element per group, so that whatever a power keeps on the
        # element serves every later power of G.
        return GroupElement(self, self._generator_raw())

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, self._identity_raw())

    def scalar(self, value: int) -> "Scalar":
        return Scalar(self, value % self.order)

    def decode_scalar(self, data: bytes) -> "Scalar":
        if len(data) != self.scalar_size:
            raise DecodeError(f"scalar must be {self.scalar_size} bytes, got {len(data)}")
        value = int.from_bytes(data, "little")
        if value >= self.order:
            raise DecodeError("non-canonical scalar encoding (not reduced mod q)")
        return Scalar(self, value)

    def decode_element(self, data: bytes) -> "GroupElement":
        if len(data) != self.element_size:
            raise DecodeError(f"element must be {self.element_size} bytes, got {len(data)}")
        return GroupElement(self, self._decode(data))

    def check_response(self, s: "Scalar", key: "GroupElement", c: "Scalar",
                       commit: "GroupElement") -> bool:
        """Whether g^s * key^c == commit.

        key must lie in the prime-order subgroup: a subclass may rely on
        key^L being the identity. commit may be any element; one outside the
        subgroup is rejected.
        """
        return self.generator ** s * key ** c == commit

    def failing(self, items) -> list[int]:
        """The positions, in order, of the (s, key, c, commit) items for
        which g^s * key^c != commit.

        Every key and every commit must lie in the prime-order subgroup: a
        subclass may check the items together, and a batch is sound only
        there. This class checks the items one by one.
        """
        return [i for i, item in enumerate(items) if not self.check_response(*item)]

    def random_scalar(self, rng, nonzero: bool = True) -> "Scalar":
        """Uniform scalar via unbiased modular rejection sampling.

        rng is any source with getrandbits (random.Random, SystemRandom).
        """
        bits = 8 * self.scalar_size
        bound = 1 << bits
        limit = (bound // self.order) * self.order
        while True:
            x = rng.getrandbits(bits)
            if x >= limit:
                continue
            x %= self.order
            if nonzero and x == 0:
                continue
            return Scalar(self, x)

    # One object per group in a process: a copied node's elements compare
    # equal to the original's, and caches keyed by group stay one entry.
    def __copy__(self) -> "Group":
        return self

    def __deepcopy__(self, memo) -> "Group":
        return self

    def __repr__(self) -> str:
        return f"<Group {self.name} q={self.order if self.order < 1 << 64 else hex(self.order)}>"


@dataclass(frozen=True, slots=True)
class Scalar:
    """Field element modulo the group order q."""

    group: Group
    value: int

    def __post_init__(self):
        if not 0 <= self.value < self.group.order:
            raise ValueError("scalar out of range [0, q)")

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.group, (self.value + other.value) % self.group.order)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.group, (self.value - other.value) % self.group.order)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.group, (self.value * other.value) % self.group.order)

    def __neg__(self) -> "Scalar":
        return Scalar(self.group, (-self.value) % self.group.order)

    def encode(self) -> bytes:
        return self.value.to_bytes(self.group.scalar_size, "little")


class GroupElement:
    """Element of the prime-order group. Immutable; equality is value equality."""

    __slots__ = ("group", "raw", "_enc", "_pre")

    def __init__(self, group: Group, raw):
        self.group = group
        self.raw = raw
        self._enc = None
        self._pre = 0  # the group's count of ladder uses, then its precomputation

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.group, self.group._mul(self.raw, other.raw))

    def __pow__(self, k) -> "GroupElement":
        exp = k.value if isinstance(k, Scalar) else int(k)
        group = self.group
        return GroupElement(group, group._pow(self, exp % group.order))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group._inv(self.raw))

    def encode(self) -> bytes:
        if self._enc is None:
            self._enc = self.group._encode(self.raw)
        return self._enc

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement) or other.group is not self.group:
            return NotImplemented
        return self.group._eq(self.raw, other.raw)

    def __hash__(self) -> int:
        return hash((self.group.group_id, self.encode()))

    def __repr__(self) -> str:
        return f"<{self.group.name} element {self.encode().hex()}>"


# ---------------------------------------------------------------------------
# Toy group: order-11 subgroup of Z_23*, generator 2. Small enough that every
# discrete log can be brute forced, which is what the oracle tests rely on.
# ---------------------------------------------------------------------------

class ToyGroup(Group):
    group_id = 2
    name = "toy"
    order = 11
    scalar_size = 2
    element_size = 2
    modulus = 23

    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _pow(self, a, k):
        return pow(a.raw, k, self.modulus)

    def _inv(self, a):
        return pow(a, self.modulus - 2, self.modulus)

    def _eq(self, a, b):
        return a == b

    def _encode(self, a):
        return int(a).to_bytes(2, "little")

    def _decode(self, data):
        v = int.from_bytes(data, "little")
        if not 0 < v < self.modulus:
            raise DecodeError("toy element out of range")
        if pow(v, self.order, self.modulus) != 1:
            raise DecodeError("value not in the order-11 subgroup")
        return v

    def _generator_raw(self):
        return 2

    def _identity_raw(self):
        return 1


# ---------------------------------------------------------------------------
# Production group: prime-order subgroup of Ed25519. Points are kept in
# extended homogeneous coordinates (X, Y, Z, T) with x*y = T/Z.
# ---------------------------------------------------------------------------

_P = 2**255 - 19
_LOW255 = (1 << 255) - 1
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P
_D2 = 2 * _D % _P
_D_INV = pow(_D, -1, _P)
_I = pow(2, (_P - 1) // 4, _P)  # sqrt(-1)
_A = 486662  # Montgomery A of Curve25519, birationally equivalent to Ed25519


def _sqrt_ratio(u: int, v: int) -> int | None:
    """An x with v*x^2 == u (mod p), or None if u/v is not a square; v != 0.

    One exponentiation, as in RFC 8032 section 5.1.3: x = u*v^3 *
    (u*v^7)^((p-5)/8), times sqrt(-1) when that gives -u/v (p = 5 mod 8).
    """
    v3 = v * v * v % _P
    x = u * v3 * pow(u * v3 * v3 * v, (_P - 5) // 8, _P) % _P
    vxx = v * x * x % _P
    if vxx == u % _P:
        return x
    if vxx == -u % _P:
        return x * _I % _P
    return None


def _recover_x(y: int, sign: int) -> int:
    # d is not a square mod p, so d*y^2 + 1 is never 0.
    x = _sqrt_ratio(y * y - 1, _D * y * y + 1)
    if x is None:
        raise DecodeError("not a point on the curve")
    if x == 0 and sign == 1:
        raise DecodeError("non-canonical sign bit for x=0")
    if x & 1 != sign:
        x = _P - x
    return x


def _is_square(a: int) -> bool:
    """Whether a is a nonzero square mod p: the Jacobi symbol (a/p), with
    powers of two stripped in binary, at about a quarter of the cost of
    Euler's criterion a^((p-1)/2)."""
    a %= _P
    n, t = _P, 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 2:
            t = -t
        a, n = n % a, a
    return n == 1 and t == 1


def _in_prime_subgroup(x: int, y: int) -> bool:
    """Whether the curve point (x, y) lies in the subgroup of order L.

    E(F_p) is cyclic of order 8L, so that subgroup is 8E: P is in it iff P,
    a half of P and a half of that half each lie in 2E (a point's two
    halves differ by (0, -1), which lies in 2E). For x != 0, P lies in 2E
    iff its Montgomery coordinate u = (1 + y) / (1 - y) is a square. The
    two halves have Montgomery coordinates U and 1/U, the roots of
    U^2 - 2*sigma*U + 1 for sigma = u + r or u - r, r = sqrt(u^2 + A*u + 1):
    the one whose sigma^2 - 1 is a square, so that U is in F_p. A half lies
    in 2E iff U is a square, and since (U + 1)^2 = 2U*(sigma + 1) and 2 is
    not a square (p = 5 mod 8), iff sigma + 1 is not (Pornin, "Point-Halving
    and Subgroup Membership in Twisted Edwards Curves", 2022).

    Two facts save two of the five Legendre symbols this reads as written.
    First, u^2 + A*u + 1 = v^2 / u for P's Montgomery v, and v != 0, so the
    square root r exists exactly when u is a square: the test of u is the
    first square root's None. Second, the last halving needs no choice of
    sigma. For s+ = U + r' and s- = U - r', with r' either root of
    U^2 + A*U + 1, (s+ + 1)(s- + 1) = (2 - A)*U, a non-square as 2 - A is
    one and U is a square, so s+ + 1 and s- + 1 have opposite symbols. If
    s+ is the right sigma, s+^2 - 1 = (s+ - 1)(s+ + 1) is a square, so
    s+ + 1 has the symbol of s+ - 1. If s- is, s+^2 - 1 is not, so s+ - 1
    has the symbol opposite to s+ + 1's, which is s- + 1's. Either way the
    half's half lies in 2E iff s+ - 1 is not a square.

    No value below is 0 once x != 0. Then y != +-1, so u is neither 0 nor
    infinite. u^2 + A*u + 1 has no root, as A^2 - 4 is not a square. The
    two candidates for sigma^2 - 1 multiply to (A^2 - 4)*u^2, a non-square:
    neither is 0 and exactly one is a square, so sigma != +-1. U != 0 since
    U * (1/U) = 1, and all of this holds again one halving down, where
    s+ - 1 != 0 as s+^2 - 1 is 0 for neither candidate. Each later square
    root taken exists: sigma is chosen so that sigma^2 - 1 is a square, and
    U^2 + A*U + 1 = (U^2 - 1)^2 / (4u*U) with u and U both squares.
    """
    if x == 0:
        # (0, 1) is the identity, (0, -1) has order 2.
        return y == 1
    u = (1 + y) * pow(1 - y, -1, _P) % _P
    r = _sqrt_ratio(u * (u + _A) + 1, 1)
    if r is None:
        return False
    sigma = (u + r) % _P
    if not _is_square(sigma * sigma - 1):
        sigma = (u - r) % _P
    if _is_square(sigma + 1):
        return False
    half = (sigma + _sqrt_ratio(sigma * sigma - 1, 1)) % _P
    return not _is_square(half + _sqrt_ratio(half * (half + _A) + 1, 1) - 1)


# The base point, derived once.
_GY = 4 * pow(5, _P - 2, _P) % _P
_GX = _recover_x(_GY, 0)
_G = (_GX, _GY, 1, _GX * _GY % _P)

_HALF = 1 << 126  # the split bound for a key without rows
_ROWS_HALF = 1 << 190  # and for a key with rows, the last of which takes c0 >> 128
_DIGIT = (1 << 64) - 1
# The uses at which an element builds its precomputation, by the rule of the
# module docstring, which derives them: a table at its 18th power, a key's
# rows at its 2nd check.
_TABLE_USES = 18
_ROWS_USES = 2


def _half_split(c: int, bound: int) -> tuple[int, int]:
    """Returns (c0, t) with c0 = c*t (mod L), c0 >= 0 and t odd, for 0 <= c < L.

    Extended Euclid on (L, c) stops at the first remainder below bound,
    2^126 or 2^190. Each remainder r_i = c*t_i (mod L), and |t_i| <= L /
    r_(i-1), so c0 and t are both about 126 bits wide at 2^126, and about
    190 and 63 bits wide at 2^190. Consecutive cofactors are coprime, so
    when t_i is even, (r_(i-1), t_(i-1)) - j*(r_i, t_i) has an odd cofactor
    for every j; the j that gives the shorter ladder is taken, weighing |t|
    by 1 at 2^126 and by 2^128 at 2^190, where a key's rows walk c0's low
    128 bits. At 2^126 a pair with c0 < 0 never wins: it and the other
    candidate would then both be below 2^126, and two such lattice vectors
    span a determinant below L. At 2^190 none won over 100,000 random c, but
    the bound does not rule one out, and (-c0, -t) is then returned. Over
    100,000 random c the widest pair was 134 bits at 2^126, and 199 and 71
    bits at 2^190. A few c have no short pair with odd t, (L + 1) / 2 among
    them; the answer is then still exact, only longer.
    """
    r0, r1 = _L, c
    t0, t1 = 0, 1
    while r1 >= bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not t1 & 1:
        # r0 - j*r1 falls and |t0 - j*t1| rises with j: t0 and t1 differ in sign.
        # A check at 2^126 runs max(bits(c0), bits(t)) doublings, and one on
        # a key's rows, at 2^190, max(bits(c0) - 128, bits(t)).
        w = 1 if bound == _HALF else 1 << 128
        j = (r0 - w * abs(t0)) // (r1 + w * abs(t1))
        r1, t1 = min((r0 - j * r1, t0 - j * t1), (r0 - (j + 1) * r1, t0 - (j + 1) * t1),
                     key=lambda pair: max(abs(pair[0]), w * abs(pair[1])))
        if r1 < 0:
            r1, t1 = -r1, -t1
    return r1, t1


def _invert_all(values: list[int]) -> list[int]:
    """The inverses mod p of nonzero values, for one inversion (Montgomery's
    trick)."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % _P)
    inv = pow(prefix[-1], -1, _P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv % _P
        inv = inv * values[i] % _P
    return out


class Ed25519Group(Group):
    group_id = 1
    name = "prod"
    order = _L
    scalar_size = 32
    element_size = 32

    _IDENT = (0, 1, 1, 0)

    def _add(self, p, q):
        return self._add_cached(p, self._cached(q))

    def _cached(self, p):
        """p as a cached entry (Y + X, Y - X, 2Z, 2d*T), the form
        `_add_cached` adds."""
        x, y, z, t = p
        return ((y + x) % _P, (y - x) % _P, 2 * z % _P, t * _D2 % _P)

    def _add_cached(self, p, q, with_t=True):
        """p + q for q a cached entry: 8 field multiplications, 7 when T is
        not wanted (it is then None). Reads p's T."""
        x1, y1, z1, t1 = p
        ypx, ymx, z2, t2d = q
        a = (y1 - x1) * ymx
        a = (a & _LOW255) + 19 * (a >> 255)
        b = (y1 + x1) * ypx
        b = (b & _LOW255) + 19 * (b >> 255)
        c = t1 * t2d
        c = (c & _LOW255) + 19 * (c >> 255)
        dd = z1 * z2
        dd = (dd & _LOW255) + 19 * (dd >> 255)
        e, f, g, h = b - a, dd - c, dd + c, b + a
        return (e * f % _P, g * h % _P, f * g % _P, e * h % _P if with_t else None)

    def _double(self, p, with_t=True):
        # RFC 8032 section 5.1.4 (Hisil et al. 2008, a = -1). T is not read,
        # and is None in the result unless wanted.
        x, y, z, _ = p
        a = x * x
        a = (a & _LOW255) + 19 * (a >> 255)
        b = y * y
        b = (b & _LOW255) + 19 * (b >> 255)
        c = 2 * z * z
        c = (c & _LOW255) + 19 * (c >> 255)
        s = x + y
        s = s * s
        s = (s & _LOW255) + 19 * (s >> 255)
        h = a + b
        e = h - s
        g = a - b
        f = c + g
        return (e * f % _P, g * h % _P, f * g % _P, e * h % _P if with_t else None)

    def _doubled(self, p, n):
        """2^n * p; only the last of the n doublings computes T."""
        if not n:
            return p
        for _ in range(n - 1):
            p = self._double(p, False)
        return self._double(p)

    def _add_affine(self, p, q):
        """p + q for q in the fixed-base table's form (y + x, y - x, 2d*x*y):
        _add with Z2 = 1, which saves two multiplications."""
        x1, y1, z1, t1 = p
        ypx, ymx, xy2d = q
        a = (y1 - x1) * ymx
        a = (a & _LOW255) + 19 * (a >> 255)
        b = (y1 + x1) * ypx
        b = (b & _LOW255) + 19 * (b >> 255)
        c = t1 * xy2d
        c = (c & _LOW255) + 19 * (c >> 255)
        dd = 2 * z1
        e, f, g, h = b - a, dd - c, dd + c, b + a
        return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)

    def _mul(self, a, b):
        return self._add(a, b)

    def _fixed_base_rows(self, base):
        """Row i holds j * 128^i * base for j = 0..64, for i = 0..35, and the
        top row, i = 36, for j = 0..2 only, in the affine form (y + x,
        y - x, 2d*x*y), for one inversion in all. 37 rows cover every k < L:
        as L < 2^253, the top digit (bit 252, plus a carry) is at most 2, so
        it never carries out."""
        points = []
        for _ in range(36):
            row = [self._IDENT, base]
            step = self._cached(base)
            for _ in range(63):
                row.append(self._add_cached(row[-1], step))
            points.extend(row)
            base = self._double(row[64])
        points += (self._IDENT, base, self._double(base))
        # x*y = T/Z, so an entry is (Y + X, Y - X, 2d*T) over Z
        entries = [((y + x) * zi % _P, (y - x) * zi % _P, t * zi % _P * _D2 % _P)
                   for (x, y, _, t), zi in zip(points, _invert_all([p[2] for p in points]))]
        return tuple(tuple(entries[i:i + 65]) for i in range(0, len(entries), 65))

    def _comb(self, rows, k):
        """base^k for the base of `rows`, a `_fixed_base_rows` table.

        k = sum of d_i * 128^i with signed digits d_i in [-63, 64], so
        base^k adds one entry of row i per nonzero digit over the 37 rows
        and doubles nothing: about 36 additions for a random k. A negative
        digit adds the negation of entry -d_i: y + x and y - x swapped,
        2d*x*y negated."""
        add = self._add_affine
        k %= _L
        r = self._IDENT
        for row in rows:
            d = k & 127
            k >>= 7
            if d > 64:
                k += 1
                ypx, ymx, xy2d = row[128 - d]
                r = add(r, (ymx, ypx, -xy2d))
            elif d:
                r = add(r, row[d])
        return r

    def _window(self, a):
        """a^1, a^3 .. a^15 as cached entries: the odd powers a width-5 NAF
        digit d adds, found at index |d| >> 1. A negative digit adds the
        entry with Y + X and Y - X swapped and 2d*T negated. One doubling and
        seven cached additions."""
        a2 = self._cached(self._double(a))
        entries = [self._cached(a)]
        for _ in range(7):
            a = self._add_cached(a, a2)
            entries.append(self._cached(a))
        return entries

    def _straus(self, terms):
        """The product of a^k over (window of a, k) pairs, k >= 0: one ladder,
        most significant bit first, whose doublings every exponent shares
        (Straus). Each k is recoded into width-5 NAF, odd digits in
        [-15, 15] with at least four zeros after each, so it costs about one
        addition per six bits (interleaved wNAF: Möller, SAC 2001). The
        recoding jumps over runs of zero bits rather than stepping bit by
        bit; its additions, sorted by bit position, then meet one run of
        single doublings from the top. T is computed only where the next
        step is an addition, which reads it, and for the result."""
        adds = []
        for window, k in terms:
            pos = 0
            while k:
                z = (k & -k).bit_length() - 1
                k >>= z
                pos += z
                d = k & 31
                if d < 16:
                    adds.append((pos, window[d >> 1]))
                else:
                    d -= 32
                    ypx, ymx, z2, t2d = window[-d >> 1]
                    adds.append((pos, (ymx, ypx, z2, -t2d)))
                k -= d
        if not adds:
            return self._IDENT
        adds.sort(key=itemgetter(0), reverse=True)
        adds.append((0, None))  # the end: double down to bit 0
        add, doubled = self._add_cached, self._doubled
        pos, (ypx, ymx, z2, t2d) = adds[0]
        # The first entry scaled by 2: (2X, 2Y, 2Z, 2T), where 2T = 2d*T / d.
        r = ((ypx - ymx) % _P, (ypx + ymx) % _P, z2, t2d * _D_INV % _P)
        for (p, q), (p_next, _) in zip(adds[1:], adds[2:]):
            r = add(doubled(r, pos - p), q, p_next == p)
            pos = p
        return doubled(r, pos)

    def _bought(self, a, uses, build):
        """What this use of a may use, by the rent-or-buy rule of the module
        docstring: None, counting the use, while a's ladder uses, this one
        included, stay below `uses`; `build(a.raw)`, kept on a, at the use
        that reaches it; and what a keeps from then on, which may be the
        other kind."""
        pre = a._pre
        if type(pre) is not int:
            return pre
        if pre + 1 < uses:
            a._pre = pre + 1
            return None
        # One assignment: threads that race here each build an equal
        # precomputation, and whichever lands last is kept. A thread that
        # counted a use in the race can set a count back over it; a later
        # use then builds an equal one again.
        a._pre = pre = build(a.raw)
        return pre

    def _pow(self, a, k):
        """a^k by the rule of the module docstring: the ladder until a's
        uses reach `_TABLE_USES`, then a walk of the table that use builds.
        An element that keeps a key's rows runs the ladder."""
        table = self._bought(a, _TABLE_USES, self._fixed_base_rows)
        if table is None or len(table) == 3:  # below the threshold, or a key's rows
            return self._straus([(self._window(a.raw), k)])
        return self._comb(table, k)

    def _key_rows(self, key):
        """The ladder rows of key by the same rule: its one window until its
        uses reach `_ROWS_USES`, then the rows that use builds, kept on the
        element. A node checks its children against the same subtree keys
        round after round, and a key checked once, as a `schnorr_verify` or a
        roster's possession batch checks one, keeps nothing. An element that
        keeps a table gets its one window."""
        rows = self._bought(key, _ROWS_USES, self._shifted_windows)
        if rows is None or len(rows) != 3:  # below the threshold, or a table
            return (self._window(key.raw),)
        return rows

    def _shifted_windows(self, raw):
        """The windows of raw, 2^64 * raw and 2^128 * raw, each entry scaled
        to Z = 1, for one inversion in all: (Y + X, Y - X, 2Z, 2d*T) / Z,
        whose 2Z is the small int 2, so that a kept entry holds three field
        elements, not four."""
        k64 = self._doubled(raw, 64)
        entries = [*self._window(raw), *self._window(k64), *self._window(self._doubled(k64, 64))]
        scaled = []
        for (ypx, ymx, _, t2d), zi in zip(entries, _invert_all([e[2] for e in entries])):
            zi = 2 * zi % _P
            scaled.append((ypx * zi % _P, ymx * zi % _P, 2, t2d * zi % _P))
        return tuple(scaled[i:i + 8] for i in range(0, len(scaled), 8))

    def _row_terms(self, rows, k):
        """Ladder terms for key^k over the key's rows: k in 64-bit digits,
        the last row taking all the bits above the others."""
        if len(rows) == 1:
            return [(rows[0], k)]
        return [(rows[0], k & _DIGIT), (rows[1], k >> 64 & _DIGIT), (rows[2], k >> 128)]

    def check_response(self, s, key, c, commit):
        # For odd t, g^s * key^c == commit holds exactly when its t-th power,
        # rearranged as key^c0 * commit^-t == g^(-s*t), does: raising to t
        # is a bijection on the prime-order subgroup, and an odd power of a
        # commit's order-2, 4 or 8 component is never the identity.
        rows = self._key_rows(key)
        c0, t = _half_split(c.value, _HALF if len(rows) == 1 else _ROWS_HALF)
        b = commit.raw if t < 0 else self._inv(commit.raw)
        lhs = self._straus(self._row_terms(rows, c0) + [(self._window(b), abs(t))])
        return self._eq(lhs, self._pow(self.generator, -s.value * t % _L))

    def _check_batch(self, items):
        """The random-weight batch of the module docstring over (s, key, c,
        commit) items: one ladder over the keys, with exponents w*c mod L,
        and over the negated commits, with exponents w, against one power
        g^(-sum w*s)."""
        weights = [secrets.randbits(128) | 1 for _ in items]
        s = sum(w * si.value for w, (si, _, _, _) in zip(weights, items)) % _L
        terms = []
        for w, (_, key, c, commit) in zip(weights, items):
            terms += self._row_terms(self._key_rows(key), w * c.value % _L)
            terms.append((self._window(self._inv(commit.raw)), w))
        return self._eq(self._straus(terms), self._pow(self.generator, -s % _L))

    def failing(self, items):
        # One batch; one item, or a batch that fails, is checked one by one.
        if len(items) > 1 and self._check_batch(items):
            return []
        return super().failing(items)

    def _inv(self, a):
        x, y, z, t = a
        return ((-x) % _P, y, z, (-t) % _P)

    def _affine(self, a):
        x, y, z, _ = a
        zi = pow(z, -1, _P)
        return x * zi % _P, y * zi % _P

    def _eq(self, a, b):
        x1, y1, z1, _ = a
        x2, y2, z2, _ = b
        return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0

    def _encode(self, a):
        x, y = self._affine(a)
        return (y | ((x & 1) << 255)).to_bytes(32, "little")

    def _decode(self, data):
        v = int.from_bytes(data, "little")
        sign = v >> 255
        y = v & ((1 << 255) - 1)
        if y >= _P:
            raise DecodeError("non-canonical y coordinate")
        x = _recover_x(y, sign)
        if not _in_prime_subgroup(x, y):
            raise DecodeError("point not in the prime-order subgroup")
        return (x, y, 1, x * y % _P)

    def _generator_raw(self):
        return _G

    def _identity_raw(self):
        return self._IDENT


TOY = ToyGroup()
ED25519 = Ed25519Group()

GROUPS_BY_ID = {TOY.group_id: TOY, ED25519.group_id: ED25519}
GROUPS_BY_NAME = {TOY.name: TOY, ED25519.name: ED25519}


def group_by_id(group_id: int) -> Group:
    try:
        return GROUPS_BY_ID[group_id]
    except KeyError:
        raise DecodeError(f"unknown group id {group_id}") from None


def group_by_name(name: str) -> Group:
    try:
        return GROUPS_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r} (expected one of {sorted(GROUPS_BY_NAME)})") from None


# ---------------------------------------------------------------------------
# Schnorr keys and signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyPair:
    secret: Scalar
    public: GroupElement

    @classmethod
    def from_secret(cls, group: Group, secret: int) -> "KeyPair":
        s = group.scalar(secret)
        if s.value == 0:
            raise ValueError("secret key must be nonzero")
        return cls(secret=s, public=group.generator ** s)


@dataclass(frozen=True)
class Signature:
    """Schnorr signature (R, s): the commit R = g^v and the response
    s = v - c*x, where c = challenge_hash(R, statement, tag)."""

    R: GroupElement
    s: Scalar

    def encode(self) -> bytes:
        return self.R.encode() + self.s.encode()

    @classmethod
    def decode(cls, group: Group, data: bytes) -> "Signature":
        n = group.element_size
        if len(data) != n + group.scalar_size:
            raise DecodeError("bad signature length")
        return cls(group.decode_element(data[:n]), group.decode_scalar(data[n:]))


@dataclass(frozen=True)
class SelfSignedKey:
    """Public key plus a possession proof signed with its own secret."""

    public: GroupElement
    proof: Signature


def challenge_hash(commit: GroupElement, statement: bytes, tag: bytes) -> Scalar:
    """Fiat-Shamir challenge: SHA-512 of (tag, commit, statement), read
    little-endian and reduced mod q. The 64-byte digest is at least twice
    each group's scalar width, so the reduction bias is negligible."""
    digest = hashlib.sha512(tag + commit.encode() + statement).digest()
    return commit.group.scalar(int.from_bytes(digest, "little"))


def keygen(group: Group, rng) -> KeyPair:
    secret = group.random_scalar(rng, nonzero=True)
    return KeyPair(secret=secret, public=group.generator ** secret)


def schnorr_sign(keypair: KeyPair, statement: bytes, rng,
                 tag: bytes = TAG_SIGN) -> Signature:
    group = keypair.secret.group
    v = group.random_scalar(rng, nonzero=True)
    commit = group.generator ** v
    c = challenge_hash(commit, statement, tag)
    return Signature(R=commit, s=v - c * keypair.secret)


def schnorr_verify(public: GroupElement, statement: bytes, sig: Signature,
                   tag: bytes = TAG_SIGN) -> bool:
    return public.group.check_response(sig.s, public, challenge_hash(sig.R, statement, tag),
                                       sig.R)


def schnorr_failing(items, tag: bytes = TAG_SIGN) -> list[int]:
    """The positions, in order, of the (public, statement, signature) items,
    all in one group, for which `schnorr_verify` fails, checked together
    where the group can (`Group.failing`)."""
    if not items:
        return []
    return items[0][0].group.failing(
        [(sig.s, public, challenge_hash(sig.R, statement, tag), sig.R)
         for public, statement, sig in items])


def prove_possession(keypair: KeyPair, rng) -> SelfSignedKey:
    proof = schnorr_sign(keypair, keypair.public.encode(), rng, tag=TAG_POSSESSION)
    return SelfSignedKey(public=keypair.public, proof=proof)


def verify_possession(ssk: SelfSignedKey) -> bool:
    return schnorr_verify(ssk.public, ssk.public.encode(), ssk.proof, tag=TAG_POSSESSION)


def possession_failing(keys) -> list[int]:
    """The positions, in order, of the self-signed keys whose possession
    proof fails, checked in one batch."""
    return schnorr_failing([(k.public, k.public.encode(), k.proof) for k in keys],
                           TAG_POSSESSION)
