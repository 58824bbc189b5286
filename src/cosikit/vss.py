"""Verifiable secret sharing and threshold-Schnorr math for the JVSS baseline.

Every node deals a random polynomial with Feldman commitments; shares sum
into shares of a joint secret nobody holds. A fresh joint commit is dealt
the same way each signing round, and t+1 partial responses interpolate into
a standard Schnorr signature under the joint public key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import Group, GroupElement, Scalar, Signature, challenge_hash, TAG_SIGN


class VssError(ValueError):
    pass


def poly_eval(coeffs: list[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def share_point(index: int, q: int) -> int:
    """Evaluation point for a node. Points wrap modulo q-1 so tiny test
    groups can host more nodes than field elements; interpolation then must
    pick shares with distinct points."""
    return (index % (q - 1)) + 1


@dataclass(frozen=True)
class Dealing:
    """One dealer's polynomial commitments plus the share for each node."""

    commitments: tuple[GroupElement, ...]  # G^{a_k} per coefficient
    shares: dict[int, int]  # node index -> f(share_point(index))

    @property
    def public(self) -> GroupElement:
        return self.commitments[0]


def deal(group: Group, n: int, t: int, rng, secret: int | None = None) -> Dealing:
    """Deal an n-share polynomial of degree t with Feldman commitments."""
    if t < 0 or t >= n:
        raise VssError("threshold must satisfy 0 <= t < n")
    if t > group.order - 2:
        raise VssError("degree exceeds the number of distinct share points")
    coeffs = [secret if secret is not None
              else group.random_scalar(rng, nonzero=True).value]
    coeffs += [group.random_scalar(rng, nonzero=False).value for _ in range(t)]
    return deal_polynomial(group, coeffs, n)


def deal_polynomial(group: Group, coeffs: list[int], n: int) -> Dealing:
    commitments = tuple(group.generator ** c for c in coeffs)
    shares = {j: poly_eval(coeffs, share_point(j, group.order), group.order)
              for j in range(n)}
    return Dealing(commitments=commitments, shares=shares)


def feldman_check(group: Group, commitments: tuple[GroupElement, ...],
                  index: int, share: int) -> bool:
    """G^share must equal the commitment polynomial evaluated in the exponent."""
    x = share_point(index, group.order)
    expect = group.identity
    for c in reversed(commitments):
        expect = expect ** x * c
    return (group.generator ** share) == expect


def lagrange_at_zero(points: list[int], q: int) -> list[int]:
    """Lagrange coefficients evaluating at x=0 for the given distinct points."""
    if len(set(p % q for p in points)) != len(points):
        raise VssError("interpolation points must be distinct")
    coeffs = []
    for i, xi in enumerate(points):
        num, den = 1, 1
        for j, xj in enumerate(points):
            if i == j:
                continue
            num = (num * (-xj)) % q
            den = (den * (xi - xj)) % q
        coeffs.append((num * pow(den, q - 2, q)) % q)
    return coeffs


def interpolate(shares: list[tuple[int, int]], q: int) -> int:
    """Recover f(0) from (x, f(x)) pairs."""
    xs = [x for x, _ in shares]
    lams = lagrange_at_zero(xs, q)
    return sum(lam * y for lam, (_, y) in zip(lams, shares)) % q


# ---------------------------------------------------------------------------
# Joint VSS states and threshold signing
# ---------------------------------------------------------------------------

@dataclass
class JvssState:
    index: int
    group: Group
    threshold: int
    dealing: Dealing  # this node's own dealing
    secret_share: int  # share of the joint secret (sum over all dealers)
    joint_public: GroupElement


def deal_all(group: Group, n: int, t: int,
             rng) -> tuple[list[Dealing], GroupElement]:
    """Every node deals in index order and every share is Feldman-checked;
    returns the dealings and the product of their public commitments."""
    dealings = [deal(group, n, t, rng) for _ in range(n)]
    joint = group.identity
    for dealer, dealing in enumerate(dealings):
        for j in range(n):
            if not feldman_check(group, dealing.commitments, j, dealing.shares[j]):
                raise VssError(f"dealer {dealer} produced an invalid share for {j}")
        joint = joint * dealing.public
    return dealings, joint


def jvss_setup(group: Group, n: int, t: int, rng) -> list[JvssState]:
    """Every node deals; each combines the received shares into a share of a
    joint secret that is never materialized."""
    if not t < n:
        raise VssError("threshold must satisfy t < n")
    dealings, joint_public = deal_all(group, n, t, rng)
    return [JvssState(index=j, group=group, threshold=t, dealing=dealings[j],
                      secret_share=sum(d.shares[j] for d in dealings) % group.order,
                      joint_public=joint_public)
            for j in range(n)]


def jvss_sign_round(states: list[JvssState], statement: bytes, rng) -> Signature:
    """One threshold signing round: deal a fresh joint commit, then combine
    t+1 partial responses by Lagrange interpolation."""
    if not states:
        raise VssError("no participants")
    group = states[0].group
    t = states[0].threshold
    q = group.order

    commit_dealings, joint_commit = deal_all(group, len(states), t, rng)
    c = challenge_hash(joint_commit, statement, TAG_SIGN)
    partials = []
    for st in _responders_with_distinct_points(states, t + 1, q):
        w = sum(d.shares[st.index] for d in commit_dealings) % q
        partials.append((share_point(st.index, q),
                         (w - c.value * st.secret_share) % q))
    return Signature(R=joint_commit, s=Scalar(group, interpolate(partials, q)))


def _responders_with_distinct_points(states: list[JvssState], count: int,
                                     q: int) -> list[JvssState]:
    chosen, seen = [], set()
    for st in states:
        p = share_point(st.index, q)
        if p in seen:
            continue
        seen.add(p)
        chosen.append(st)
        if len(chosen) == count:
            return chosen
    raise VssError(f"need {count} responders with distinct share points")
