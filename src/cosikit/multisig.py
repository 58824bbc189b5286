"""Schnorr multisignature aggregation, the commit Merkle tree, and the
collective signature format with exception-adjusted verification.

The signing math: every participant i contributes a commit V_i = G^{v_i};
commits multiply into an aggregate, the challenge c binds the aggregate (and,
in no-restart mode, a Merkle root over the individual commits), and responses
r_i = v_i - c*x_i sum into the aggregate response. Witnesses that vanish
between phases are documented rather than fatal: absent-from-commit witnesses
just shrink the aggregate key, while absent-from-response witnesses appear as
commit exceptions whose individual commits are divided back out by verifiers.
An exception is one `wire.CommitException` record, the same in a Response and
in a signature.

The commit tree mirrors the spanning tree: a node's hash is the binary digest
tree (`merkle.digest_root`) over its own commit leaf, then its contributors'
hashes in index order, so an exception's proof is a plain
`merkle.InclusionProof` whose steps compose bottom-up, node by node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import merkle, participation
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
from .roster import (
    CompactAnchor,
    ProvenKey,
    WitnessRoster,
    aggregate_elements,
)
from .topology import TreeTopology
from .wire import CommitException, _records, read_commit_proof

# a signature's commit exceptions: a u16 count, then the records a Response writes
_EXCEPTION_RECORDS = _records(CommitException.layout)

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

def aggregate_public_key(roster: WitnessRoster, present: Iterable[int]) -> GroupElement:
    present = sorted(set(present))
    if not present:
        raise MultisigError("cannot aggregate an empty key set")
    for i in present:
        if not 0 <= i < len(roster):
            raise MultisigError(f"roster index {i} out of range")
    return aggregate_elements(roster.group, (roster.public_key(i) for i in present))


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
        out.append(_EXCEPTION_RECORDS.encode(self.exceptions))
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


def verify_collective(anchor: WitnessRoster | CompactAnchor, statement: bytes,
                      sig: CollectiveSignature, predicate,
                      key_proofs: Sequence[ProvenKey] | None = None) -> VerifyResult:
    """Check a collective signature and evaluate the acceptance predicate.

    The anchor is the roster or its compact anchor; either hands out the
    present witnesses' key (`present_key`, which for a compact anchor reads
    `key_proofs`) and the roster's weights. Returns a result whose
    diagnostics distinguish cryptographic failure from predicate failure.
    Structural problems (zero participants, roster size mismatch, failed key
    proofs) raise instead of rejecting.
    """
    pset = sig.participation
    if pset.count != len(anchor):
        raise MultisigError(f"signature covers {pset.count} witnesses, "
                            f"certificate expects {len(anchor)}")
    absent = pset.response_absent
    if len(absent) == pset.count:
        raise MultisigError("zero-participant signature cannot be verified")
    if sig.group is not anchor.group:
        raise MultisigError("signature group does not match certificate group")

    # The acting round leader is always a participant by construction; callers
    # wanting leader-mandatory verification express it as a Mandatory predicate.
    if isinstance(anchor, WitnessRoster):
        adjusted_key = anchor.present_key(absent)
    else:
        adjusted_key = anchor.present_key(absent, key_proofs or [])

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

    predicate_ok = participation.evaluate(predicate, pset, anchor.weights,
                                          anchor.total_weight)
    if crypto_ok and not predicate_ok:
        reason = "predicate rejected participation set"
    ok = crypto_ok and predicate_ok
    return VerifyResult(ok=ok, crypto_ok=crypto_ok, predicate_ok=predicate_ok,
                        reason="" if ok else reason,
                        present_count=pset.count - len(absent), witness_count=pset.count,
                        absent=tuple(sorted(absent)))
