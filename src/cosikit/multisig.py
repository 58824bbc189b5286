"""Schnorr multisignature aggregation, the commit Merkle tree, and the
collective signature format with exception-adjusted verification.

The signing math: every participant i contributes a commit V_i = G^{v_i};
commits multiply into an aggregate, the challenge c binds the aggregate (and,
in no-restart mode, a Merkle root over the individual commits), and responses
r_i = v_i - c*x_i sum into the aggregate response. Witnesses that vanish
between phases are documented rather than fatal: absent-from-commit witnesses
just shrink the aggregate key, while absent-from-response witnesses appear as
commit exceptions whose individual commits are divided back out by verifiers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import merkle, participation, roster as roster_mod
from .group import (
    TAG_CHALLENGE_PLAIN,
    TAG_CHALLENGE_TREE,
    DecodeError,
    Group,
    GroupElement,
    Reader,
    Scalar,
    challenge_hash,
    group_by_id,
)
from .participation import ParticipationSet
from .roster import AuthorityCertificate, ProvenKey, WitnessRoster, full_certificate
from .topology import TreeTopology

MAGIC = b"CSG1"
MODE_RESTART = 0
MODE_NO_RESTART = 1
# the modes by the names that sweep files and the command line use
MODE_NAMES = {"restart": MODE_RESTART, "norestart": MODE_NO_RESTART}


class MultisigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Aggregation primitives
# ---------------------------------------------------------------------------

def aggregate_elements(group: Group, elems: Iterable[GroupElement]) -> GroupElement:
    """Group product; the empty product is the identity."""
    acc = group.identity
    for e in elems:
        acc = acc * e
    return acc


def aggregate_public_key(roster: WitnessRoster, present: Iterable[int]) -> GroupElement:
    present = sorted(set(present))
    if not present:
        raise MultisigError("cannot aggregate an empty key set")
    for i in present:
        if not 0 <= i < len(roster):
            raise MultisigError(f"roster index {i} out of range")
    return aggregate_elements(roster.group, (roster.public_key(i) for i in present))


def adjust_key_for_absent(full: GroupElement,
                          absent_keys: Iterable[GroupElement]) -> GroupElement:
    acc = full
    for key in absent_keys:
        acc = acc * key.inverse()
    return acc


def present_key(roster: WitnessRoster, absent: frozenset[int]) -> GroupElement:
    """Aggregate key of the witnesses not in `absent`.

    When fewer witnesses are absent than present, the absent keys are divided
    out of the roster's cached full key; otherwise the present keys are
    multiplied directly, with `aggregate_public_key`'s checks.
    """
    count = len(roster)
    for i in absent:
        if not 0 <= i < count:
            raise MultisigError(f"roster index {i} out of range")
    if 2 * len(absent) < count:
        return adjust_key_for_absent(roster.aggregate_key(),
                                     [roster.public_key(i) for i in sorted(absent)])
    return aggregate_public_key(roster, frozenset(range(count)) - absent)


def collective_challenge(aggregate_commit: GroupElement, statement: bytes,
                         commit_root: bytes | None = None) -> Scalar:
    """Challenge over (aggregate commit, statement), binding the commit-tree
    root as well in no-restart mode. The two modes use distinct domain tags."""
    if commit_root is None:
        return challenge_hash(aggregate_commit, statement, TAG_CHALLENGE_PLAIN)
    if len(commit_root) != merkle.DIGEST_SIZE:
        raise MultisigError("bad commit tree root length")
    return challenge_hash(aggregate_commit, commit_root + statement, TAG_CHALLENGE_TREE)


def response_share(v: Scalar, c: Scalar, x: Scalar) -> Scalar:
    """Individual response r = v - c*x mod q."""
    return v - c * x


# ---------------------------------------------------------------------------
# Commit Merkle tree, mirroring the spanning tree
# ---------------------------------------------------------------------------

def commit_leaf_digest(commit: GroupElement) -> bytes:
    return merkle.leaf_hash(commit.encode())


def commit_node_digest(inputs: Sequence[bytes]) -> bytes:
    """Interior digest over [own commit leaf, child subtree hashes...].

    An odd input count duplicates the last digest before hashing.
    """
    if not inputs:
        raise MultisigError("interior commit node needs at least one input")
    padded = list(inputs)
    if len(padded) > 1 and len(padded) % 2 == 1:
        padded.append(padded[-1])
    return hashlib.sha256(merkle.TAG_MERKLE_NODE + b"".join(padded)).digest()


@dataclass(frozen=True)
class CommitStep:
    """One level of a commit-tree audit path: this node's digest is inserted
    at `position` among `others`, and the padded multi-hash gives the parent."""

    position: int
    others: tuple[bytes, ...]

    def __post_init__(self):
        if not 0 <= self.position <= len(self.others):
            raise MultisigError("commit step position out of range")


def commit_step(inputs: Sequence[bytes], position: int) -> CommitStep:
    """The audit step placing `inputs[position]` among a node's inputs
    [own commit leaf, child subtree hashes...]."""
    return CommitStep(position, tuple(inputs[:position]) + tuple(inputs[position + 1:]))


@dataclass(frozen=True)
class CommitTreeProof:
    """Audit path from a commit-tree digest up to the root, bottom-up.

    Wire layout: step count (2) | per step: position (2) | digest count (2) |
    digests (32 each), all big-endian.
    """

    steps: tuple[CommitStep, ...]

    def encode(self) -> bytes:
        out = [len(self.steps).to_bytes(2, "big")]
        for step in self.steps:
            out.append(step.position.to_bytes(2, "big"))
            out.append(len(step.others).to_bytes(2, "big"))
            out.extend(step.others)
        return b"".join(out)

    def wire_size(self) -> int:
        """`len(self.encode())`, counted from the step and digest counts."""
        return 2 + sum(4 + merkle.DIGEST_SIZE * len(step.others) for step in self.steps)

    @classmethod
    def decode(cls, r: Reader) -> "CommitTreeProof":
        """Read the proof at the reader's offset."""
        steps = []
        for _ in range(r.u16()):
            position, n = r.u16(), r.u16()
            if position > n:
                raise DecodeError("commit step position out of range")
            steps.append(CommitStep(position, tuple(r.take(merkle.DIGEST_SIZE)
                                                    for _ in range(n))))
        return cls(tuple(steps))


def fold_commit_proof(leaf_digest: bytes, proof: CommitTreeProof) -> bytes:
    cur = leaf_digest
    for step in proof.steps:
        inputs = list(step.others[:step.position]) + [cur] + list(step.others[step.position:])
        cur = commit_node_digest(inputs)
    return cur


def verify_commit_inclusion(root: bytes, commit: GroupElement,
                            proof: CommitTreeProof) -> bool:
    return fold_commit_proof(commit_leaf_digest(commit), proof) == root


class CommitTree:
    """Merkle tree over individual commits, one node per witness, structured
    exactly like the spanning tree that produced them."""

    def __init__(self, topology: TreeTopology, commits: Mapping[int, GroupElement]):
        missing = topology.members - set(commits)
        if missing:
            raise MultisigError(f"missing commits for participants {sorted(missing)}")
        self.topology = topology
        self.commits = dict(commits)
        self.node_digest: dict[int, bytes] = {}
        self.inputs: dict[int, list[bytes]] = {}
        for node in topology.postorder(topology.root):
            leaf = commit_leaf_digest(self.commits[node])
            kids = topology.children[node]
            if not kids:
                self.node_digest[node] = leaf
            else:
                inputs = [leaf] + [self.node_digest[c] for c in kids]
                self.inputs[node] = inputs
                self.node_digest[node] = commit_node_digest(inputs)
        self.root = self.node_digest[topology.root]

    def prove(self, index: int) -> CommitTreeProof:
        if index not in self.node_digest:
            raise MultisigError(f"witness {index} is not in the commit tree")
        steps = []
        if index in self.inputs:
            steps.append(commit_step(self.inputs[index], 0))
        node = index
        while node != self.topology.root:
            parent = self.topology.parent[node]
            pos = 1 + self.topology.children[parent].index(node)
            steps.append(commit_step(self.inputs[parent], pos))
            node = parent
        return CommitTreeProof(tuple(steps))


# ---------------------------------------------------------------------------
# Collective signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommitException:
    """A witness that committed but never responded: its individual commit,
    plus the inclusion proof anchoring that commit under the signed root."""

    index: int
    commit: GroupElement
    proof: CommitTreeProof


@dataclass(frozen=True)
class CollectiveSignature:
    group: Group
    mode: int
    challenge: Scalar
    response: Scalar
    participation: ParticipationSet
    commit_root: bytes | None = None
    exceptions: tuple[CommitException, ...] = ()

    def __post_init__(self):
        if self.mode not in (MODE_RESTART, MODE_NO_RESTART):
            raise MultisigError(f"unknown signature mode {self.mode}")
        if self.mode == MODE_NO_RESTART:
            if self.commit_root is None or len(self.commit_root) != merkle.DIGEST_SIZE:
                raise MultisigError("no-restart signature needs a commit tree root")
        else:
            if self.commit_root is not None:
                raise MultisigError("restart-mode signature must not carry a commit root")
            if self.exceptions:
                raise MultisigError("restart-mode signature cannot carry commit exceptions")

    def to_bytes(self) -> bytes:
        out = [MAGIC, bytes([self.group.group_id]), bytes([self.mode])]
        if self.mode == MODE_NO_RESTART:
            out.append(self.commit_root)
        out.append(self.challenge.encode())
        out.append(self.response.encode())
        out.append(participation.encode_smallest(self.participation))
        out.append(len(self.exceptions).to_bytes(2, "big"))
        for exc in self.exceptions:
            proof_bytes = exc.proof.encode()
            out.append(exc.index.to_bytes(4, "big"))
            out.append(exc.commit.encode())
            out.append(len(proof_bytes).to_bytes(2, "big"))
            out.append(proof_bytes)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes, witness_count: int) -> "CollectiveSignature":
        r = Reader(data, witness_count)
        if r.take(4) != MAGIC:
            raise DecodeError("bad collective signature magic")
        group = group_by_id(r.u8())
        mode = r.u8()
        commit_root = r.take(merkle.DIGEST_SIZE) if mode == MODE_NO_RESTART else None
        challenge = group.decode_scalar(r.take(group.scalar_size))
        response = group.decode_scalar(r.take(group.scalar_size))
        absent = participation.decode_index_set(r)
        # Frame and check every record before decoding any commit: each
        # decode runs a subgroup check, so the indices bound that work first.
        records = []
        for _ in range(r.count()):
            index = r.index()
            if records and index <= records[-1][0]:
                raise DecodeError("exception indices not strictly ascending")
            commit = r.take(group.element_size)
            end = r.u16() + r.off  # the proof's length, read first, then its start
            proof = CommitTreeProof.decode(r)
            if r.off != end:
                raise DecodeError("commit tree proof does not fill its length")
            records.append((index, commit, proof))
        r.done()
        exceptions = [CommitException(index, group.decode_element(commit), proof)
                      for index, commit, proof in records]
        pset = ParticipationSet(witness_count, response_absent=absent,
                                commit_absent=absent.difference(e.index for e in exceptions))
        return cls(group=group, mode=mode, challenge=challenge, response=response,
                   participation=pset, commit_root=commit_root,
                   exceptions=tuple(exceptions))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    crypto_ok: bool
    predicate_ok: bool
    reason: str = ""
    present_count: int = 0
    witness_count: int = 0
    absent: tuple[int, ...] = ()

    def diagnostics(self) -> str:
        line = f"present {self.present_count}/{self.witness_count}, absent: {list(self.absent)}"
        if self.ok:
            return f"OK: {line}"
        return f"REJECT ({self.reason}): {line}"


def verify_collective(anchor: AuthorityCertificate | WitnessRoster, statement: bytes,
                      sig: CollectiveSignature, predicate,
                      key_proofs: Sequence[ProvenKey] | None = None) -> VerifyResult:
    """Check a collective signature and evaluate the acceptance predicate.

    Returns a result whose diagnostics distinguish cryptographic failure from
    predicate failure. Structural problems (zero participants, roster size
    mismatch, failed key proofs) raise instead of rejecting.
    """
    if isinstance(anchor, WitnessRoster):
        anchor = full_certificate(anchor)
    pset = sig.participation
    if pset.count != anchor.witness_count:
        raise MultisigError(f"signature covers {pset.count} witnesses, "
                            f"certificate expects {anchor.witness_count}")
    absent = pset.response_absent
    if len(absent) == pset.count:
        raise MultisigError("zero-participant signature cannot be verified")
    if sig.group is not anchor.group:
        raise MultisigError("signature group does not match certificate group")

    # The acting round leader is always a participant by construction; callers
    # wanting leader-mandatory verification express it as a Mandatory predicate.
    full_roster = anchor.roster
    if full_roster is not None:
        adjusted_key = present_key(full_roster, absent)
        weights, total_weight = full_roster.weights(), full_roster.total_weight()
    else:
        adjusted_key = roster_mod.verify_compact(anchor.compact, absent,
                                                 key_proofs or [])
        weights = total_weight = None

    group = sig.group
    recomputed = (group.generator ** sig.response) * (adjusted_key ** sig.challenge)

    crypto_ok = True
    reason = ""
    if sig.mode == MODE_RESTART:
        expect = collective_challenge(recomputed, statement)
        if expect.value != sig.challenge.value:
            crypto_ok, reason = False, "challenge mismatch"
    else:
        exc_indices = [e.index for e in sig.exceptions]
        if len(set(exc_indices)) != len(exc_indices):
            crypto_ok, reason = False, "duplicate commit exceptions"
        elif frozenset(exc_indices) != pset.dropped_after_commit:
            crypto_ok, reason = False, "exceptions do not match participation sets"
        else:
            for exc in sig.exceptions:
                if not verify_commit_inclusion(sig.commit_root, exc.commit, exc.proof):
                    crypto_ok = False
                    reason = f"commit inclusion proof failed for witness {exc.index}"
                    break
            if crypto_ok:
                full_commit = recomputed
                for exc in sig.exceptions:
                    full_commit = full_commit * exc.commit
                expect = collective_challenge(full_commit, statement, sig.commit_root)
                if expect.value != sig.challenge.value:
                    crypto_ok, reason = False, "challenge mismatch"

    predicate_ok = participation.evaluate(predicate, pset, weights, total_weight)
    if crypto_ok and not predicate_ok:
        reason = "predicate rejected participation set"
    ok = crypto_ok and predicate_ok
    return VerifyResult(ok=ok, crypto_ok=crypto_ok, predicate_ok=predicate_ok,
                        reason="" if ok else reason,
                        present_count=pset.count - len(absent), witness_count=pset.count,
                        absent=tuple(sorted(absent)))
