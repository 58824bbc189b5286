"""Schnorr multisignature aggregation, the commit Merkle tree, and the
collective signature format with exception-adjusted verification.

The signing math: every participant i contributes a commit V_i = G^{v_i};
commits multiply into an aggregate, the challenge c binds the aggregate (and,
in no-restart mode, a Merkle root over the individual commits), and responses
r_i = v_i - c*x_i sum into the aggregate response. Witnesses that vanish
between phases are documented rather than fatal: absent-from-commit witnesses
just shrink the aggregate key, while absent-from-response witnesses appear as
commit exceptions whose individual commits are divided back out by verifiers.

The commit tree mirrors the spanning tree: a node's hash is the binary digest
tree (`merkle.digest_root`) over its own commit leaf, then its contributors'
hashes in index order, so an exception's proof is a plain
`merkle.InclusionProof` whose steps compose bottom-up, node by node.
"""

from __future__ import annotations

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

    With no one absent it is the roster's full key. Otherwise the roster's
    one slot (`WitnessRoster.kept_present_key`) keeps it for as long as the
    same set is asked for again. A new set's key
    divides the absent keys out of the full key when fewer witnesses are
    absent than present, and otherwise multiplies the present keys directly,
    with `aggregate_public_key`'s checks.
    """
    count = len(roster)
    for i in absent:
        if not 0 <= i < count:
            raise MultisigError(f"roster index {i} out of range")
    if not absent:
        return roster.aggregate_key()

    def make() -> GroupElement:
        if 2 * len(absent) < count:
            return adjust_key_for_absent(roster.aggregate_key(),
                                         [roster.public_key(i) for i in sorted(absent)])
        return aggregate_public_key(roster, frozenset(range(count)) - absent)
    return roster.kept_present_key(absent, make)


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


# A commit-tree proof is an audit path of the binary rule (`merkle.InclusionProof`)
# and folds as one; perfbench's tracer wraps it and its fold by these names.
CommitTreeProof = merkle.InclusionProof
fold_commit_proof = merkle.fold_proof


def read_commit_proof(r: Reader) -> merkle.InclusionProof:
    """The commit-tree proof at the reader's offset, in frames and signatures
    alike: a u16 step count, at most the roster size (`Reader.count`), then
    the steps, each a side byte of 0 or 1 and a digest. An honest path has
    fewer steps than witnesses: each node on it with k contributors adds
    ceil(log2(k + 1)) <= k steps, and no witness contributes to two nodes,
    nor the leader to any."""
    start = r.off
    r.take(r.count() * merkle.STEP_SIZE)
    return merkle.InclusionProof.decode(r.data[start:r.off])


def verify_commit_inclusion(root: bytes, commit: GroupElement,
                            proof: merkle.InclusionProof) -> bool:
    return merkle.fold_proof(commit_leaf_digest(commit), proof) == root


class CommitTree(merkle.TreeOfTrees):
    """Merkle tree over individual commits, one node per witness, structured
    exactly like the spanning tree that produced them: each node's hash is the
    digest tree over its own commit leaf, then its children's hashes."""

    def __init__(self, topology: TreeTopology, commits: Mapping[int, GroupElement]):
        missing = topology.members - set(commits)
        if missing:
            raise MultisigError(f"missing commits for participants {sorted(missing)}")
        super().__init__(topology, {node: commit_leaf_digest(commits[node])
                                    for node in topology.members})


# ---------------------------------------------------------------------------
# Collective signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommitException:
    """A witness that committed but never responded: its individual commit,
    plus the inclusion proof anchoring that commit under the signed root."""

    index: int
    commit: GroupElement
    proof: merkle.InclusionProof


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
            out.append(exc.index.to_bytes(4, "big"))
            out.append(exc.commit.encode())
            out.append(exc.proof.encode())
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
            records.append((index, r.take(group.element_size), read_commit_proof(r)))
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
