"""Shared fixtures: rosters with known secrets (in the toy group unless
another is named), a manual (protocol-level) signing-round helper used to
build signatures without the engine, so library behavior is testable in
isolation, and Ed25519 points outside the prime-order subgroup, found with
an affine reference."""

from __future__ import annotations

import collections
import random

import pytest

from cosikit import engine, multisig
from cosikit.group import ED25519, TOY, _TABLE_USES, DecodeError, KeyPair, _recover_x, \
    prove_possession
from cosikit.merkle import InclusionProof
from cosikit.multisig import MODE_NO_RESTART, MODE_RESTART, CollectiveSignature
from cosikit.participation import ParticipationSet
from cosikit.roster import RosterEntry, WitnessRoster, build_roster
from cosikit.topology import tree_for


def make_toy_roster(secrets, **kwargs) -> WitnessRoster:
    return make_roster(TOY, secrets, **kwargs)


def make_roster(group, secrets, leader_index: int = 0, weights=None,
                rng=None) -> WitnessRoster:
    rng = rng or random.Random(1234)
    entries = []
    for i, x in enumerate(secrets):
        kp = KeyPair.from_secret(group, x)
        entries.append(RosterEntry(
            witness_id=f"w{i}".encode(),
            key=prove_possession(kp, rng),
            weight=1 if weights is None else weights[i],
        ))
    return build_roster(entries, leader_index=leader_index)


def audit_path(*steps) -> InclusionProof:
    """The inclusion proof of `steps`, bottom-up, each (side, sibling digest)."""
    return InclusionProof(len(steps).to_bytes(2, "big")
                          + b"".join(bytes([side]) + digest for side, digest in steps))


# the empty audit path, which a restart challenge carries
NO_PATH = audit_path()


def manual_round(roster: WitnessRoster, secrets, statement: bytes,
                 absent=frozenset(), response_absent=frozenset(),
                 mode: int = MODE_RESTART, branching: int = 2,
                 rng=None) -> CollectiveSignature:
    """Run the signing math directly (no engine), in the roster's group:
    `absent` witnesses never commit, `response_absent` witnesses commit but
    never respond (no-restart mode only, they become commit exceptions)."""
    rng = rng or random.Random(99)
    group = roster.group
    n = len(roster)
    absent = frozenset(absent)
    response_absent = frozenset(response_absent)
    commit_present = frozenset(range(n)) - absent
    responders = commit_present - response_absent

    nonces = {i: group.random_scalar(rng) for i in sorted(commit_present)}
    commits = {i: group.generator ** v for i, v in nonces.items()}
    aggregate = multisig.aggregate_elements(group, commits.values())

    commit_root = None
    exceptions = ()
    if mode == MODE_NO_RESTART:
        topo = tree_for(n, branching, roster.leader_index, absent)
        tree = multisig.CommitTree(topo, commits)
        commit_root = tree.root
        challenge = multisig.collective_challenge(aggregate, statement, commit_root)
        exceptions = tuple(
            multisig.CommitException(i, commits[i], tree.prove(i))
            for i in sorted(response_absent)
        )
    else:
        if response_absent:
            raise ValueError("response-phase dropouts need no-restart mode")
        challenge = multisig.collective_challenge(aggregate, statement)

    total = group.scalar(0)
    for i in sorted(responders):
        secret = group.scalar(secrets[i])
        total = total + multisig.response_share(nonces[i], challenge, secret)
    pset = ParticipationSet(count=n, response_present=responders,
                            commit_present=commit_present)
    return CollectiveSignature(group=group, mode=mode, challenge=challenge,
                               response=total, participation=pset,
                               commit_root=commit_root, exceptions=exceptions)


def assert_cuts_rejected(decode, data: bytes) -> None:
    """`decode` accepts `data`, and raises a ValueError, and nothing else, on
    every proper prefix of it and on it with one byte appended."""
    decode(data)
    for cut in range(len(data)):
        with pytest.raises(ValueError):
            decode(data[:cut])
    with pytest.raises(ValueError):
        decode(data + b"\x00")


def tabled(element):
    """element, powered until it keeps its fixed-base table: at most
    `_TABLE_USES` powers, by the rent-or-buy rule of `cosikit.group`."""
    for _ in range(_TABLE_USES):
        element ** 1
    assert len(element._pre) == 37
    return element


def count_calls(monkeypatch, owner, names) -> collections.Counter:
    """Calls of each named function of `owner`, a class or a module, counted
    in the Counter returned for as long as the test runs."""
    calls = collections.Counter()
    for name in names:
        real = getattr(owner, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def round_states(monkeypatch):
    """A function of a simulator, called after its run: (node index, round
    state) for every session of its nodes. A session a node finished is read
    as it stood when it finished, before the node cut it down to the record a
    later frame reads (`engine._Finished`); the rest as they stand."""
    finished = []
    finish = engine.SigningNode._finish

    def keep(node, st, phase, answer):
        finished.append((node.index, st))
        finish(node, st, phase, answer)

    monkeypatch.setattr(engine.SigningNode, "_finish", keep)
    return lambda sim: finished + [(node.index, st) for node in sim.nodes
                                   for st in node.rounds.values()
                                   if isinstance(st, engine._RoundState)]


@pytest.fixture
def toy_rng():
    return random.Random(42)


@pytest.fixture
def toy_roster3():
    return make_toy_roster([3, 4, 5])


@pytest.fixture
def toy_secrets3():
    return [3, 4, 5]


# -- Ed25519 affine reference and small-order points ---------------------------

L = ED25519.order
P = 2**255 - 19
D = -121665 * pow(121666, P - 2, P) % P


def affine(point):
    x, y = ED25519._affine(point)
    return x, y


def cached_affine(entry):
    """The affine point of a ladder window's cached entry (Y + X, Y - X,
    2Z, 2d*T), after checking that its 2d*T agrees with the other three:
    2Z * 2d*T = d * 2X * 2Y."""
    ypx, ymx, z2, t2d = entry
    assert (z2 * t2d - D * (ypx - ymx) * (ypx + ymx)) % P == 0
    zi = pow(z2, P - 2, P)
    return (ypx - ymx) * zi % P, (ypx + ymx) * zi % P


def affine_add(a, b):
    """The twisted Edwards addition law (a = -1) in affine coordinates."""
    (x1, y1), (x2, y2) = a, b
    t = D * x1 * x2 * y1 * y2 % P
    x3 = (x1 * y2 + y1 * x2) * pow(1 + t, P - 2, P) % P
    y3 = (y1 * y2 + x1 * x2) * pow(1 - t, P - 2, P) % P
    return x3, y3


def ref_pow(point, k):
    """Right-to-left double-and-add in affine coordinates, independent of
    the group module's formulas."""
    r, q = (0, 1), affine(point)
    while k:
        if k & 1:
            r = affine_add(r, q)
        q = affine_add(q, q)
        k >>= 1
    return r


def encode_affine(point) -> bytes:
    x, y = point
    return (y | (x & 1) << 255).to_bytes(32, "little")


@pytest.fixture(scope="session")
def torsion():
    """Points of order 8, 4 and 2, as affine pairs."""
    for y in range(2, 200):
        try:
            x = _recover_x(y, 0)
        except DecodeError:
            continue
        t8 = ref_pow((x, y, 1, x * y % P), L)
        t4 = affine_add(t8, t8)
        t2 = affine_add(t4, t4)
        if t2 != (0, 1):
            assert affine_add(t2, t2) == (0, 1)
            return {8: t8, 4: t4, 2: t2}
    raise AssertionError("no point of order 8 found")


@pytest.fixture(scope="session")
def mixed_generator(torsion):
    """G plus the point of order 8, encoded: a curve point outside the
    prime-order subgroup."""
    return encode_affine(affine_add(affine(ED25519.generator.raw), torsion[8]))


def swap_generator(data: bytes, replacement: bytes) -> bytes:
    """data with its one encoding of G replaced."""
    g = ED25519.generator.encode()
    assert data.count(g) == 1
    return data.replace(g, replacement)
