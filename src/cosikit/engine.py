"""Message-driven state machines for collective signing rounds.

One `SigningNode` per roster member. The node whose index matches the
current view's leader drives rounds (announce, collect commits, challenge,
collect responses, emit the signature); every node aggregates its subtree.
Failure handling is mode-dependent: restart mode prunes failed witnesses and
replays the round from phase 1, no-restart mode documents commit-phase
dropouts in the participation set and response-phase dropouts as commit
exceptions, bridging past dead interior nodes to their children with the
announce that opened the round at the bridging node. Only no-restart mode
binds a commit root, so each mode has its own commit and challenge forms,
whose frame tags name the mode, and a session drops the other mode's: only
no-restart commits carry commit-tree data, and only no-restart challenges
audit paths. A commit-tree node's hash is the binary digest tree over its own
commit leaf and its contributors' hashes (`multisig.CommitTree`'s rule), and
every audit path is a `merkle.InclusionProof` composed node by node. A
leader carries each round's statement and its failed and refused witnesses
from attempt to attempt, so a round restarts with its own data however rounds
overlap. A leader adopts no parent for its own session, whoever echoes its
announce.

A witness's one extension point is its statement validation hook,
`hook(statement, now) -> bool`: it runs before the witness commits to an
announced statement, or answers a challenge over a late-bound one, and a
refusal sends `Refuse` and no response. `make_validation_hook` builds a fresh
hook per node; a hook that keeps state keeps it in its closure.

A node holds its children's partial responses until none is pending or its
response timer fires, then checks them together with one `Group.failing`,
which names the liars. In no-restart mode a direct contributor with
contributors of its own is checked on arrival instead, since rejecting it
bridges them.

View change is the node's own policy (`round_due`): the view's leader starts
a round due, and every other node arms a progress timer that waits
`PROGRESS_PATIENCE` and outlasts a live leader's recovery around dead interior
nodes; a node still in that view with no state for the round when it fires
votes. On activating a view, a node drops every session of an older view, as
a PBFT replica discards older views' work: it keeps no session of a view below
its own, so no frame or timer of a superseded session acts in the new view.
It then treats the round as due afresh.

Nodes are purely reactive: they consume one message or timer event at a time
and return effects (messages to send, timers to arm, round results). A node's
state is plain data, so a copy of a node runs on its own. A round state holds
each fact once: the announce it forwarded, its own commit-tree node as the
`SubtreeSummary` its parent keeps for it, its commit-phase absences within its
subtree, and the challenge it answered (at the leader, the one it built),
which it sends on with its own sender and audit path. A session's witnesses
share one key tuple and one `RoundConfig`, derived from its announce. Once a
session is done or refused, the node keeps of it only what a later frame for it
reads (`_Finished`): the phase, the config, the parent and the return address,
the challenge scalar it answered, the response or refusal it sent, and what
rebuilds the commit it sent up (its head, in no-restart mode its contributors'
heads, and the final failed and refused sets); a nonce it answered with stays
only in `nonce_log`. A session whose commit is out when a newer session
discards its nonce is finished then, refused as stale. The node's containers
are bounded by the roster size or a named constant, except `view_votes`, one
table per proposed view above its own, which a Byzantine voter can grow. The
host (the simulator, or `runtime.NodeRuntime` over TCP) owns delivery and
clocks, must serialize events per node, and applies a node's effects through
`apply_effects`. The TCP runtime does not yet call `round_due`, so over TCP no
view changes.

The message classes, their wire layouts and the frame codec are `wire`'s; a
node handles round messages only, and the runtime serves stamp frames.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Optional

from . import multisig, participation
from .group import GroupElement, KeyPair, Scalar, Signature, schnorr_sign, schnorr_verify
from .merkle import DigestTree, InclusionProof, digest_root, fold_proof
from .multisig import (
    MODE_NO_RESTART,
    MODE_RESTART,
    CollectiveSignature,
    commit_leaf_digest,
)
from .participation import ParticipationSet
from .roster import WitnessRoster
from .topology import LeaderFailedError, TopologyError, TreeTopology, tree_for
from .wire import (_NOBODY, Announce, Challenge, Commit, CommitException, Refuse, Response,
                   RestartChallenge, RestartCommit, SubtreeSummary, ViewChange, _frozen)
# unused here; perfbench/tracer.py wraps it under this name until ROADMAP item 1, step 1
from .wire import encode_message  # noqa: F401

logger = logging.getLogger("cosikit.engine")

STATEMENT_AT_ANNOUNCE = 0
STATEMENT_AT_CHALLENGE = 1

# Present keys a node remembers (`SigningNode.subtree_keys`), oldest dropped
# first: at branching 16, enough for every child and for the children of
# three dead ones it bridges to.
SUBTREE_KEY_MEMO = 64

# Rounds' states a node keeps (`SigningNode.rounds`), oldest dropped first, so
# that a late or repeated frame still gets its answer. Of a finished round a
# node keeps only what such a frame reads (`_Finished`): under tracemalloc, in
# the toy group at N=256 and B=16, about 510 bytes per node in restart mode and
# 690 in no-restart mode, so some 8 and 11 KB per node for all of them.
ROUND_STATES_KEPT = 16

# Seconds a non-leader waits for a due round to reach it before it votes for
# the next view, when the tree leaves the leader no longer recovery to make.
PROGRESS_PATIENCE = 2.0

PHASE_COMMIT = "commit"
PHASE_RESPONSE = "response"
PHASE_DONE = "done"
PHASE_REFUSED = "refused"


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class RoundConfig:
    round_number: int
    mode: int = MODE_RESTART
    statement_timing: int = STATEMENT_AT_ANNOUNCE
    branching: int = 3
    max_restarts: int = 2
    min_participants: int = 1
    rtt_hint: float = 0.2

    def __post_init__(self):
        if self.mode not in (MODE_RESTART, MODE_NO_RESTART):
            raise ValueError(f"unknown signature mode {self.mode}")
        if self.statement_timing not in (STATEMENT_AT_ANNOUNCE, STATEMENT_AT_CHALLENGE):
            raise ValueError(f"unknown statement timing {self.statement_timing}")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")

    @property
    def timeout_base(self) -> float:
        """Per-level wait for a phase."""
        return 4.0 * self.rtt_hint


# ---------------------------------------------------------------------------
# Statement validation hooks
# ---------------------------------------------------------------------------

def accept_all(statement: bytes, now: float) -> bool:
    return True


def make_timestamp_window_hook(skew: float = 60.0):
    """Reject records whose wall-time strays more than `skew` seconds from
    this witness's clock."""

    def hook(statement: bytes, now: float) -> bool:
        from .timestamp import unpack_record

        try:
            record = unpack_record(statement)
        except ValueError:
            return False
        return abs(record.wall_time - now) <= skew

    return hook


def make_hash_chain_hook():
    """Accept sequence-numbered, hash-chained log records: the sequence must
    advance by exactly one and the previous-record hash must match this
    witness's head. Layout: seq (8, big-endian) | prev-hash (32) | payload.

    The record last accepted is accepted again, byte for byte, and any other
    record at its sequence number refused. A witness cannot tell whether a
    round it answered was signed: a restart presents the same record again,
    and refusing it would fail the restart of every round it took part in."""
    head, last_seq, last = b"\x00" * 32, 0, None

    def hook(statement: bytes, now: float) -> bool:
        nonlocal head, last_seq, last
        if statement == last:
            return True
        if len(statement) < 40:
            return False
        seq = int.from_bytes(statement[:8], "big")
        if seq != last_seq + 1 or statement[8:40] != head:
            return False
        head, last_seq, last = hashlib.sha256(statement).digest(), seq, statement
        return True

    return hook


# Hook factories by policy name
HOOKS: dict[str, Callable[[], Callable]] = {
    "accept-all": lambda: accept_all,
    "timestamp-window": make_timestamp_window_hook,
    "hash-chain": make_hash_chain_hook,
}


def make_validation_hook(policy: str):
    """A fresh hook for the policy registered under `policy` in `HOOKS`."""
    factory = HOOKS.get(policy)
    if factory is None:
        raise ValueError(f"unknown validation policy {policy!r}")
    return factory()


# ---------------------------------------------------------------------------
# Round messages; `wire` holds their classes, layouts and frame codec
# ---------------------------------------------------------------------------

# a `Refuse` frame's reason
REFUSE_STATEMENT = 0
REFUSE_STALE = 1
REFUSE_PROOF = 2

# the messages a node handles; stamp frames are the runtime's
Message = (Announce | Commit | Challenge | Response | Refuse | ViewChange
           | RestartCommit | RestartChallenge)
_COMMITS, _CHALLENGES = (Commit, RestartCommit), (Challenge, RestartChallenge)
# the commit and challenge forms that a session of each mode drops
_OTHER_FORMS = {MODE_RESTART: (Commit, Challenge),
                MODE_NO_RESTART: (RestartCommit, RestartChallenge)}


def _audit_steps(head: SubtreeSummary, contributors, nodes) -> list[InclusionProof]:
    """Audit paths lifting each of `nodes`' subtree hashes to the tree hash
    of `head`'s node, whose digest tree is over its own commit, which
    `head.index` places, then its `contributors`' heads in index order. A
    node without contributors is its own commit leaf: its path is empty."""
    order = [head.index] + [c.index for c in contributors]
    tree = DigestTree([commit_leaf_digest(head.commit)] + [c.tree_hash for c in contributors])
    return [tree.prove(order.index(node)) for node in nodes]


# ---------------------------------------------------------------------------
# Effects returned by the state machines
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Send:
    dest: int
    msg: Message


@dataclass(frozen=True, slots=True)
class SetTimer:
    key: tuple
    delay: float


@dataclass(frozen=True, slots=True)
class RoundDone:
    result: "RoundResult"


def apply_effects(host, node: int, effects: list, now: float) -> None:
    """Carry out the effects that node `node` returned at time `now`: each
    `Send` calls `host.send(node, dest, msg, now)`, each `SetTimer`
    `host.set_timer(node, key, delay, now)` and each `RoundDone`
    `host.round_done(node, result, now)`. Every host applies effects here,
    so an effect means the same in the simulator and over TCP."""
    for eff in effects:
        if isinstance(eff, Send):
            host.send(node, eff.dest, eff.msg, now)
        elif isinstance(eff, SetTimer):
            host.set_timer(node, eff.key, eff.delay, now)
        elif isinstance(eff, RoundDone):
            host.round_done(node, eff.result, now)


@dataclass(frozen=True, slots=True)
class RoundResult:
    ok: bool
    round: int
    view: int
    attempts: int
    statement: Optional[bytes] = None
    signature: Optional[CollectiveSignature] = None
    reason: str = ""
    failed: frozenset[int] = frozenset()
    refused: frozenset[int] = frozenset()


# ---------------------------------------------------------------------------
# Per-round mutable state
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _Lead:
    """What a leader carries from one attempt of a round to the next."""

    statement: bytes
    failed: frozenset  # left out of the next attempt: superseded leaders, and
    # the witnesses that failed or refused so far
    refused: frozenset = _NOBODY


# The empty summary table of every round state that holds none, as a leaf's
# never does. It is never written: a node with children gets its own
# `records` when it starts collecting commits, and its `below` is the first
# non-empty table a commit brings.
_NO_SUMMARIES: dict = {}


@lru_cache(maxsize=ROUND_STATES_KEPT)
def _announced(view: int, rnd: int, attempt: int, mode: int, timing: int, branching: int,
               timeout_ms: int) -> tuple[tuple, RoundConfig]:
    """The key and config of an announced session, one pair per session that
    every node of one process shares."""
    # timeout_base, 4 * rtt_hint, comes out exactly timeout_ms / 1000
    return (view, rnd, attempt), RoundConfig(round_number=rnd, mode=mode,
                                             statement_timing=timing,
                                             branching=branching,
                                             rtt_hint=timeout_ms / 4000)


@dataclass(slots=True)
class _RoundState:
    """A session in progress; once done or refused it is cut down to a
    `_Finished` record."""

    key: tuple  # (view, round, attempt)
    config: RoundConfig
    topology: TreeTopology
    parent: Optional[int]  # None at the leader
    statement: Optional[bytes] = None
    phase: str = PHASE_COMMIT  # or PHASE_RESPONSE
    announce: Optional[Announce] = None  # as this node sent it (none at a leaf), to bridge
    lead: Optional[_Lead] = None  # at the leader only

    nonce: Optional[Scalar] = None
    own_commit: Optional[GroupElement] = None

    # index sets are frozensets, `_NOBODY` while empty
    pending_commit: frozenset = _NOBODY
    # direct contributor -> its head (records), -> the heads its commit carried (below)
    records: dict = field(default_factory=lambda: _NO_SUMMARIES)
    below: dict = field(default_factory=lambda: _NO_SUMMARIES)
    absent: frozenset = _NOBODY  # commit-phase absences within this node's subtree
    failed: frozenset = _NOBODY
    refused: frozenset = _NOBODY
    summary: Optional[SubtreeSummary] = None  # this node's own, once its commit is final

    challenged: Optional[Challenge | RestartChallenge] = None  # as answered, or the leader's
    return_to: Optional[int] = None  # where the response goes (may be a bridger)

    pending_resp: frozenset = _NOBODY
    held: Optional[dict] = None  # sender -> (Response, partial), checked once none is pending
    resp_shares: tuple = ()  # accepted contributors' aggregate responses
    resp_absent: frozenset = _NOBODY
    exceptions: tuple = ()  # CommitException, anchored at this node
    unresolvable: Optional[str] = None


@dataclass(slots=True)
class _Finished:
    """A done or refused session: what a later frame for its key reads. A
    re-announce gets the commit sent up, rebuilt from `summary`, `summaries`
    and the final `failed` and `refused`, or the refusal; a repeated
    challenge gets `answer` again, and a conflicting one `REFUSE_STALE`."""

    key: tuple
    phase: str  # PHASE_DONE or PHASE_REFUSED
    config: RoundConfig  # the session's, shared
    parent: Optional[int]
    return_to: Optional[int]
    answer: Optional[Response | Refuse]  # none at the leader
    challenge: Optional[Scalar] = None  # the one answered; none if refused
    summary: Optional[SubtreeSummary] = None  # none if refused
    summaries: tuple = ()  # the contributors' heads a no-restart commit carries
    failed: frozenset = _NOBODY
    refused: frozenset = _NOBODY


# ---------------------------------------------------------------------------
# The signing node
# ---------------------------------------------------------------------------

def view_leader(roster: WitnessRoster, view: int) -> int:
    """Deterministic leader schedule: view v is led by the roster's leader
    index plus v, mod N."""
    return (roster.leader_index + view) % len(roster)


def _contributors(st: _RoundState) -> list[SubtreeSummary]:
    """A node's contributors' heads: its commit-tree inputs after its own commit."""
    return [st.records[c] for c in sorted(st.records)]


def view_change_threshold(n: int) -> int:
    """2f+1 of 3f+1: the supermajority needed to activate a new view."""
    f = (n - 1) // 3
    return 2 * f + 1


def view_vote_statement(roster: WitnessRoster, view: int) -> bytes:
    return b"cosi/view-change/v1" + view.to_bytes(8, "big") + roster.digest()


class SigningNode:
    """State machine for one roster member (leader and witness roles)."""

    def __init__(self, index: int, roster: WitnessRoster, keypair: KeyPair, rng,
                 validation_hook: Callable[[bytes, float], bool] | None = None):
        if roster.public_key(index) != keypair.public:
            raise EngineError("keypair does not match the roster entry")
        self.index = index
        self.roster = roster
        self.group = roster.group
        self.keypair = keypair
        self.rng = rng
        self.hook = validation_hook or accept_all

        self.current_view = 0
        self._due: Optional[tuple] = None  # (config, statement) of the round due
        self.view_votes: dict[int, dict[int, Signature]] = {}
        self._view_voters: frozenset = frozenset()  # whose votes activated the view
        self.rounds: dict[tuple, _RoundState] = {}
        # (view, round, attempt, nonce, challenge) per answered challenge: one per round state
        self.nonce_log: list[tuple] = []
        # (child's subtree, commit absences, response absences) -> the
        # child's present key, kept so that the key counts its checks and,
        # at its second, builds its ladder rows (`Ed25519Group._key_rows`)
        # once, not every round
        self.subtree_keys: dict[tuple, GroupElement] = {}

    # -- plumbing --

    def is_leader(self) -> bool:
        return view_leader(self.roster, self.current_view) == self.index

    def _trim_round_state(self) -> None:
        while len(self.rounds) > ROUND_STATES_KEPT:
            del self.rounds[min(self.rounds)]

    def _wait_budget(self, st: _RoundState) -> float:
        return st.config.timeout_base * (st.topology.height(self.index) + 1)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def round_due(self, config: RoundConfig, statement: bytes, now: float) -> list:
        """The leader starts the round; any other node arms a progress timer to
        vote if the round has not reached it. The timer waits
        `PROGRESS_PATIENCE`, and no less than a live leader needs to reach a
        node behind dead interior nodes: a root commit budget per restart
        (no-restart: the root's and a level's per nested bridging), then a hop
        per level."""
        if self.is_leader():
            return self.start_round(config, statement, now)
        self._due = (config, statement)
        patience = PROGRESS_PATIENCE
        leader = view_leader(self.roster, self.current_view)
        height = tree_for(len(self.roster), config.branching, leader).height(leader)
        if height > 1:  # in a shallower tree the leader announces to every witness
            levels = (config.max_restarts * (height + 1) if config.mode == MODE_RESTART
                      else 2 * height - 1)
            patience = max(patience, levels * config.timeout_base
                           + height * config.rtt_hint)
        return [SetTimer(("progress", self.current_view, config.round_number), patience)]

    def start_round(self, config: RoundConfig, statement: bytes, now: float) -> list:
        """Begin a signing round in the current view over `statement`.
        Every superseded view's leader counts as failed, except this node
        (views wrap around the roster) and any whose view-change vote this
        node holds: a deposed leader that votes is alive."""
        if not self.is_leader():
            raise EngineError(f"node {self.index} does not lead view {self.current_view}")
        self._due = None
        superseded = range(min(self.current_view, len(self.roster)))
        alive = self._view_voters.union(*self.view_votes.values()) | {self.index}
        failed = frozenset(view_leader(self.roster, v) for v in superseded) - alive
        return self._start_attempt(config, 0, _Lead(statement, failed), now)

    def _start_attempt(self, config: RoundConfig, attempt: int, lead: _Lead,
                       now: float) -> list:
        key = (self.current_view, config.round_number, attempt)
        try:
            topo = tree_for(len(self.roster), config.branching, self.index, lead.failed)
        except LeaderFailedError:
            raise EngineError("leader cannot be in its own failure set")
        if len(topo.members) < config.min_participants:
            return [RoundDone(self._failure(config, attempt,
                                            "below minimum participation before start",
                                            lead.failed, lead.refused))]
        early = config.statement_timing == STATEMENT_AT_ANNOUNCE
        st = _RoundState(key=key, config=config, topology=topo, parent=None,
                         statement=lead.statement, lead=lead)
        self.rounds[key] = st
        self._trim_round_state()
        effects = self._begin_participation(st, now)
        st.announce = Announce(
            view=key[0], round=key[1], attempt=attempt, mode=config.mode,
            timing=config.statement_timing, branching=config.branching,
            timeout_ms=int(config.timeout_base * 1000), topology_digest=topo.digest(),
            failed=topo.absent, sender=self.index, statement=lead.statement if early else None)
        return effects + [Send(child, st.announce) for child in topo.children[self.index]]

    def _failure(self, config: RoundConfig, attempts: int, reason: str,
                 failed: frozenset, refused: frozenset) -> RoundResult:
        return RoundResult(ok=False, round=config.round_number, view=self.current_view,
                           attempts=attempts + 1, reason=reason,
                           failed=failed, refused=refused)

    def _fail(self, st: _RoundState, reason: str) -> list:
        return [RoundDone(self._failure(st.config, st.key[2], reason, st.failed, st.refused))]

    # ------------------------------------------------------------------
    # Outgoing messages
    # ------------------------------------------------------------------

    def _challenge(self, st: _RoundState, path: InclusionProof) -> Challenge:
        """The no-restart challenge this node answered, sent on to a node
        placed by `path` below it: it lifts the recipient's hash to ours, and
        our own audit path continues to the root."""
        c = st.challenged
        return replace(c, sender=self.index, proof=path.compose(c.proof))

    def _refusal(self, st: _RoundState | _Finished, reason: int) -> Refuse:
        return Refuse(view=st.key[0], round=st.key[1], attempt=st.key[2],
                      sender=self.index, reason=reason)

    def _refuse(self, st: _RoundState | _Finished, dest: int, reason: int) -> list:
        return [Send(dest, self._refusal(st, reason))]

    def _refuse_session(self, st: _RoundState, dest: int, reason: int) -> list:
        """Refuse the session for good: a re-announce gets the same refusal."""
        refusal = self._refusal(st, reason)
        self._finish(st, PHASE_REFUSED, refusal)
        return [Send(dest, refusal)]

    def _finish(self, st: _RoundState, phase: str, answer: Optional[Response | Refuse]) -> None:
        """Cut a session that is done or refused down to its `_Finished`
        record, unless it has been trimmed already."""
        if self.rounds.get(st.key) is not st:
            return
        if phase == PHASE_REFUSED:
            done = _Finished(st.key, phase, st.config, st.parent, st.return_to, answer)
        else:
            heads = tuple(_contributors(st)) if st.config.mode == MODE_NO_RESTART else ()
            done = _Finished(st.key, phase, st.config, st.parent, st.return_to, answer,
                             st.challenged.challenge, st.summary, heads, st.failed, st.refused)
        self.rounds[st.key] = done

    # ------------------------------------------------------------------
    # Shared participation logic
    # ------------------------------------------------------------------

    def _begin_participation(self, st: _RoundState, now: float) -> list:
        """Draw a fresh nonce and either send the commit up (leaf) or start
        collecting children commits.

        A node keeps one session in flight: drawing the nonce discards every
        other round state's nonce that no challenge has used yet, so that
        state can never answer one. Concurrent sessions are what the forgery
        on two-round Schnorr multisignatures needs (Drijvers et al., S&P 2019).
        A witness whose commit for such a session is already out finishes it
        as refused-stale, which a re-announce is then told.
        """
        for other in list(self.rounds.values()):
            if other is st or not isinstance(other, _RoundState) or other.challenged is not None:
                continue
            other.nonce = None
            if other.phase == PHASE_RESPONSE and other.lead is None:
                self._finish(other, PHASE_REFUSED, self._refusal(other, REFUSE_STALE))
        st.nonce = self.group.random_scalar(self.rng)
        st.own_commit = self.group.generator ** st.nonce
        st.pending_commit = _frozen(st.topology.children[self.index])
        if not st.pending_commit:
            return self._finalize_commit(st, now)
        st.records = {}
        return [SetTimer(("commit",) + st.key, self._wait_budget(st))]

    def _finalize_commit(self, st: _RoundState, now: float) -> list:
        """Build this node's own summary, in no-restart mode with its tree hash.
        A node below it in no contributor's subtree is a child it lost, already
        in `st.absent`."""
        agg, contributors = st.own_commit, _contributors(st)
        for rec in contributors:
            agg = agg * rec.aggregate
            if rec.absent:
                st.absent |= rec.absent
        commit = tree_hash = None
        if st.config.mode == MODE_NO_RESTART:
            commit, tree_hash = st.own_commit, commit_leaf_digest(st.own_commit)
            if contributors:
                tree_hash = digest_root([tree_hash] + [c.tree_hash for c in contributors])
        st.summary = SubtreeSummary(index=self.index, commit=commit, aggregate=agg,
                                    tree_hash=tree_hash, absent=st.absent)
        st.phase = PHASE_RESPONSE

        if st.parent is None:
            return self._leader_after_commit(st, now)
        return self._send_commit(st)

    def _send_commit(self, st: _RoundState) -> list:
        if st.nonce is None:
            # A newer session discarded our nonce: this commit could never be
            # answered, so tell the parent not to wait for our response.
            return self._refuse_session(st, st.parent, REFUSE_STALE)
        return self._commit_up(st)

    def _commit_up(self, st: _RoundState | _Finished) -> list:
        own, (view, rnd, attempt) = st.summary, st.key
        if st.config.mode == MODE_RESTART:
            msg = RestartCommit(view=view, round=rnd, attempt=attempt, sender=self.index,
                                aggregate=own.aggregate, absent=own.absent,
                                failed=st.failed, refused=st.refused)
        else:  # with its contributors' heads, which only no-restart bridging reads
            heads = st.summaries if isinstance(st, _Finished) else tuple(_contributors(st))
            msg = Commit(view=view, round=rnd, attempt=attempt, sender=self.index,
                         aggregate=own.aggregate, commit=own.commit, tree_hash=own.tree_hash,
                         absent=own.absent, failed=st.failed, refused=st.refused,
                         summaries=heads)
        return [Send(st.parent, msg)]

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def handle_message(self, msg: Message, now: float) -> list:
        if isinstance(msg, ViewChange):
            return self._on_view_change(msg, now)
        if msg.view != self.current_view:
            logger.debug("node %d drops stale message for view %d", self.index, msg.view)
            return []
        if isinstance(msg, Announce):
            return self._on_announce(msg, now)
        key = (msg.view, msg.round, msg.attempt)
        st = self.rounds.get(key)
        if st is None:
            logger.debug("node %d has no state for round %s", self.index, key)
            return []
        if isinstance(msg, _OTHER_FORMS[st.config.mode]):  # its sender counts as silent
            logger.warning("node %d: dropping %s from %d: it has the other mode's form",
                           self.index, type(msg).__name__, msg.sender)
            return []
        if isinstance(st, _Finished):
            return self._on_finished(st, msg)
        if isinstance(msg, _COMMITS):
            return self._on_commit(st, msg, now)
        if isinstance(msg, _CHALLENGES):
            return self._on_challenge(st, msg, now)
        if isinstance(msg, Response):
            return self._on_response(st, msg, now)
        return self._on_refuse(st, msg, now)

    # -- finished sessions --

    def _on_finished(self, done: _Finished, msg: Message) -> list:
        """A frame for a session this node has finished. A re-announce gets
        the commit sent up, to the announcer as the new parent, or the
        refusal; a repeated challenge the response sent, and a conflicting one
        `REFUSE_STALE`, as answering it would reuse the nonce. A done
        session's nonce was answered, so it was never discarded."""
        if done.phase == PHASE_REFUSED:
            return [Send(msg.sender, done.answer)] if isinstance(msg, Announce) else []
        if isinstance(msg, Announce):
            if done.parent is None:  # our own session: its commit goes nowhere
                return []
            done.parent = msg.sender
            return self._commit_up(done)
        if not isinstance(msg, _CHALLENGES):
            return []
        if msg.challenge.value != done.challenge.value:
            return self._refuse(done, msg.sender, REFUSE_STALE)
        done.return_to = msg.sender
        return [] if done.answer is None else [Send(done.return_to, done.answer)]

    # -- announce --

    def _on_announce(self, msg: Announce, now: float) -> list:
        key = (msg.view, msg.round, msg.attempt)
        st = self.rounds.get(key)
        if isinstance(st, _Finished):
            return self._on_finished(st, msg)
        if st is not None:
            # Re-announce, possibly from a bridging ancestor: adopt it as the
            # new parent and resend our commit if we already produced one. An
            # echo of a session this node leads has no parent to adopt.
            if st.lead is not None:
                return []
            st.parent = msg.sender
            if st.summary is not None:
                return self._send_commit(st)
            return []
        if msg.mode not in (MODE_RESTART, MODE_NO_RESTART) \
                or msg.timing not in (STATEMENT_AT_ANNOUNCE, STATEMENT_AT_CHALLENGE):
            # an unknown timing would skip the validation hook
            logger.warning("node %d: dropping announce from %d: unknown mode or "
                           "statement timing", self.index, msg.sender)
            return []
        leader = view_leader(self.roster, msg.view)
        try:
            topo = tree_for(len(self.roster), msg.branching, leader, msg.failed)
        except TopologyError as exc:
            logger.warning("node %d: dropping announce from %d: %s",
                           self.index, msg.sender, exc)
            return []
        if topo.digest() != msg.topology_digest:
            logger.warning("node %d: announce topology digest mismatch", self.index)
            return []
        if self.index in msg.failed or self.index not in topo.members:
            return []
        key, config = _announced(msg.view, msg.round, msg.attempt, msg.mode, msg.timing,
                                 msg.branching, msg.timeout_ms)
        st = _RoundState(key=key, config=config, topology=topo, parent=msg.sender,
                         statement=msg.statement)
        self.rounds[key] = st
        self._trim_round_state()
        if msg.statement is not None and msg.timing == STATEMENT_AT_ANNOUNCE:
            if not self.hook(msg.statement, now):
                return self._refuse_session(st, st.parent, REFUSE_STATEMENT)
        children = topo.children[self.index]
        if children:  # only a node with children forwards the announce, or bridges
            st.announce = replace(msg, sender=self.index)
        return ([Send(child, st.announce) for child in children]
                + self._begin_participation(st, now))

    # -- commit collection --

    def _on_commit(self, st: _RoundState, msg: Commit | RestartCommit, now: float) -> list:
        if st.phase != PHASE_COMMIT or msg.sender not in st.pending_commit:
            return []
        if not self._reports_below_sender(st, msg):
            return []
        tree = isinstance(msg, Commit)
        st.records[msg.sender] = SubtreeSummary(
            index=msg.sender, commit=msg.commit if tree else None, aggregate=msg.aggregate,
            tree_hash=msg.tree_hash if tree else None, absent=msg.absent)
        if tree and msg.summaries:
            if st.below is _NO_SUMMARIES:
                st.below = {}
            st.below[msg.sender] = tuple(sorted(msg.summaries, key=attrgetter("index")))
        st.failed = _frozen(st.failed | msg.failed)
        st.refused = _frozen(st.refused | msg.refused)
        st.pending_commit = _frozen(st.pending_commit - {msg.sender})
        if not st.pending_commit:
            return self._finalize_commit(st, now)
        return []

    def _reports_below_sender(self, st: _RoundState, msg: Commit | Response) -> bool:
        """A child may report only nodes strictly below itself, and each head
        it carries only absences strictly below that head's node; the heads
        it carries head disjoint subtrees, as contributors do, so that no
        path through its commit tree outgrows its subtree (`_check_partial`).
        Otherwise its message is dropped and the phase timer treats it as
        silent."""
        claims = [(msg.sender, msg.absent | msg.failed | msg.refused)]
        heads: frozenset | tuple = ()
        if isinstance(msg, Commit) and msg.summaries:
            heads = frozenset(s.index for s in msg.summaries)
            claims.append((msg.sender, heads))
            claims += [(s.index, s.absent) for s in msg.summaries if s.absent]
        for node, nodes in claims:
            if nodes and (node in nodes or not nodes <= st.topology.descendants(node)):
                logger.warning("node %d: dropping %s from %d: it reports nodes outside "
                               "its subtree", self.index, type(msg).__name__, msg.sender)
                return False
        if heads and (len(heads) < len(msg.summaries) or any(
                len(heads & st.topology.descendants(h)) > 1 for h in heads)):
            logger.warning("node %d: dropping Commit from %d: its heads overlap",
                           self.index, msg.sender)
            return False
        return True

    def _on_refuse(self, st: _RoundState, msg: Refuse, now: float) -> list:
        if st.phase == PHASE_COMMIT and msg.sender in st.pending_commit:
            st.refused |= {msg.sender}
            return self._commit_child_gone(st, msg.sender, now, crashed=False)
        if st.phase == PHASE_RESPONSE and msg.sender in st.pending_resp:
            st.refused |= {msg.sender}
            return (self._response_child_gone(st, msg.sender, crashed=False)
                    + self._responses_done(st, now))
        return []

    def _commit_child_gone(self, st: _RoundState, child: int, now: float,
                           crashed: bool = True) -> list:
        """A child is dead or refused during the commit phase. Each caller
        checks the phase, and the commit timer's loop ends it only at its
        last pending child, so the session is in it here."""
        st.pending_commit = _frozen(st.pending_commit - {child})
        if crashed:
            st.failed |= {child}
        st.absent |= {child}
        effects: list = []
        grandchildren = st.topology.children[child]
        if st.config.mode == MODE_NO_RESTART and grandchildren:
            # Bridge the gap: announce directly to the dead child's children.
            st.pending_commit = st.pending_commit.union(grandchildren)
            effects = [Send(g, st.announce) for g in grandchildren]
            effects.append(SetTimer(("commit",) + st.key, st.config.timeout_base))
        elif grandchildren:
            # The subtree is lost for this attempt; the restart will re-attach it.
            st.absent |= st.topology.descendants(child)
        if not st.pending_commit:
            effects.extend(self._finalize_commit(st, now))
        return effects

    # -- challenge --

    def _on_challenge(self, st: _RoundState, msg: Challenge | RestartChallenge,
                      now: float) -> list:
        if st.phase == PHASE_COMMIT:
            # Our commit never made it into the aggregate; contributing a
            # response now would be unsound.
            logger.warning("node %d: challenge before commit completion", self.index)
            return []
        if st.challenged is not None:
            if msg.challenge.value != st.challenged.challenge.value:
                # A second, different challenge for the same (round, attempt):
                # answering would reuse our nonce. Refuse.
                return self._refuse(st, msg.sender, REFUSE_STALE)
            st.return_to = msg.sender  # the response, once built, goes there
            return []
        if st.nonce is None:
            logger.info("node %d: challenge for %s, whose nonce a newer session "
                        "discarded", self.index, st.key)
            return []

        late = st.config.statement_timing == STATEMENT_AT_CHALLENGE
        statement = msg.statement if late else st.statement
        if statement is None:
            return []
        if late:
            if not self.hook(statement, now):
                return self._refuse_session(st, msg.sender, REFUSE_STATEMENT)
            st.statement = statement

        # In either mode, answer only the challenge that the validated statement
        # implies; in no-restart mode our own commit must also reach the root.
        no_restart = st.config.mode == MODE_NO_RESTART
        root = msg.commit_root if no_restart else None
        expect = multisig.collective_challenge(msg.aggregate_commit, statement, root)
        if expect.value != msg.challenge.value or (
                root is not None and fold_proof(st.summary.tree_hash, msg.proof) != root):
            return self._refuse_session(st, msg.sender, REFUSE_PROOF)

        st.challenged = msg
        st.return_to = msg.sender
        return self._challenge_descend(st, now)

    def _challenge_descend(self, st: _RoundState, now: float) -> list:
        self.nonce_log.append(st.key + (st.nonce.value, st.challenged.challenge.value))
        del self.nonce_log[:-ROUND_STATES_KEPT]
        if not st.records:
            return self._finalize_response(st, now)
        contributors = sorted(st.records)
        st.pending_resp = frozenset(contributors)
        if st.config.mode == MODE_NO_RESTART:  # only a commit root needs a path
            sends = [Send(child, self._challenge(st, path))
                     for child, path in zip(contributors, self._steps(st, contributors))]
        else:
            msg = replace(st.challenged, sender=self.index)
            sends = [Send(child, msg) for child in contributors]
        return sends + [SetTimer(("response",) + st.key, self._wait_budget(st))]

    # -- response collection --

    def _on_response(self, st: _RoundState, msg: Response, now: float) -> list:
        if st.phase != PHASE_RESPONSE or msg.sender not in st.pending_resp:
            return []
        if not self._reports_below_sender(st, msg):
            return []
        if st.config.mode == MODE_RESTART and (msg.absent or msg.failed):
            # The attempt is already doomed; a partial missing subtree shares
            # cannot check out against the full subtree commit, so just record
            # the failure report and let the leader restart.
            st.pending_resp = _frozen(st.pending_resp - {msg.sender})
            st.resp_absent = _frozen(st.resp_absent | msg.absent)
            st.failed = _frozen(st.failed | msg.failed)
            st.refused = _frozen(st.refused | msg.refused)
            return self._responses_done(st, now)
        # A direct contributor, or a bridged one we only know by its head.
        rec = st.records.get(msg.sender) or self._bridged(st, msg.sender)[1]
        partial = self._check_partial(st, rec, msg)
        if partial is not None and msg.sender in st.below:
            # Rejecting it bridges its contributors, which should not wait
            # for its siblings: check it on arrival, not in the batch.
            if self.group.check_response(*partial):
                self._accept_partial(st, msg)
                return self._responses_done(st, now)
            partial = None
        if partial is None:
            return self._reject_partial(st, msg.sender) + self._responses_done(st, now)
        st.pending_resp = _frozen(st.pending_resp - {msg.sender})
        if st.held is None:
            st.held = {}
        st.held[msg.sender] = (msg, partial)
        return self._responses_done(st, now)

    def _reject_partial(self, st: _RoundState, sender: int) -> list:
        logger.warning("node %d: invalid partial response from %d", self.index, sender)
        st.failed |= {sender}
        return self._response_child_gone(st, sender)

    def _accept_partial(self, st: _RoundState, msg: Response) -> None:
        st.pending_resp = _frozen(st.pending_resp - {msg.sender})
        st.resp_shares += (msg.aggregate_response,)
        st.resp_absent = _frozen(st.resp_absent | msg.absent)
        st.failed = _frozen(st.failed | msg.failed)
        st.refused = _frozen(st.refused | msg.refused)
        if msg.exceptions:  # none in restart mode, which builds no anchor
            anchor = self._anchor_steps_for(st, msg.sender)
            st.exceptions += tuple([CommitException(exc.index, exc.commit,
                                                    exc.proof.compose(anchor))
                                    for exc in msg.exceptions])

    def _settle_held(self, st: _RoundState) -> list:
        """Check the held partials in one batch; accept them, and reject
        the ones that fail their own check."""
        held, st.held = st.held, None
        if not held:
            return []
        senders = list(held)
        liars = {senders[i] for i in self.group.failing([p for _, p in held.values()])}
        effects: list = []
        for sender, (msg, _) in held.items():
            if sender in liars:
                effects.extend(self._reject_partial(st, sender))
            else:
                self._accept_partial(st, msg)
        return effects

    def _responses_done(self, st: _RoundState, now: float) -> list:
        """Once no sender is pending, settle the held partials and answer.
        A held partial is never one whose rejection bridges, so settling
        leaves nothing pending."""
        if st.pending_resp:
            return []
        return self._settle_held(st) + self._finalize_response(st, now)

    def _steps(self, st: _RoundState, nodes) -> list[InclusionProof]:
        """Audit paths lifting each of `nodes`' hashes to this node's tree hash."""
        return _audit_steps(st.summary, _contributors(st), nodes)

    @staticmethod
    def _bridged(st: _RoundState, node: int) -> tuple:
        """The contributor whose commit carried `node`'s head, and that head.
        Every pending responder that is not a direct contributor is such a
        head: `_response_child_gone` makes only the heads a contributor's
        commit carried pending."""
        return next((holder, head) for holder, heads in st.below.items() for head in heads
                    if head.index == node)

    def _anchor_steps_for(self, st: _RoundState, child: int) -> InclusionProof:
        """The path that lifts a digest anchored at `child` up to this node's hash."""
        if child in st.records:
            return self._steps(st, (child,))[0]
        # One level further down: first place it within the contributor that carried it.
        holder, _ = self._bridged(st, child)
        return _audit_steps(st.records[holder], st.below[holder], (child,))[0].compose(
            self._steps(st, (holder,))[0])

    def _check_partial(self, st: _RoundState, rec: SubtreeSummary,
                       msg: Response) -> Optional[tuple]:
        """The item (s, key, c, expected) a child's (c, r̂) must satisfy,
        g^s * key^c == expected (`Group.failing`'s form): its subtree commit
        and key adjusted for the response dropouts it reports. None if those
        reports do not hold up."""
        # one exception per reported dropout; _on_response has kept those
        # strictly below the sender
        if sorted(e.index for e in msg.exceptions) != sorted(msg.absent):
            return None
        subtree = st.topology.descendants(rec.index)
        participants = subtree - rec.absent
        if not msg.absent <= participants:
            return None
        if msg.exceptions:
            # Composed with our anchor, an honest path has fewer steps than
            # our subtree has members (see `read_commit_proof`); a longer one
            # would make the frame or signature that carries it undecodable.
            room = (len(st.topology.descendants(self.index)) - 1
                    - self._anchor_steps_for(st, rec.index).step_count)
            if any(exc.proof.step_count > room for exc in msg.exceptions):
                return None
        for exc in msg.exceptions:
            if not multisig.verify_commit_inclusion(rec.tree_hash, exc.commit, exc.proof):
                return None
        # The subtree is a set the round's tree holds, so its hash is cached.
        memo = (subtree, rec.absent, msg.absent)
        key = self.subtree_keys.get(memo)
        if key is None:
            key = multisig.aggregate_public_key(self.roster, participants - msg.absent)
            if len(self.subtree_keys) >= SUBTREE_KEY_MEMO:
                del self.subtree_keys[next(iter(self.subtree_keys))]
            self.subtree_keys[memo] = key
        expected = rec.aggregate
        for exc in msg.exceptions:
            expected = expected * exc.commit.inverse()
        # Roster keys and decoded commits lie in the prime-order subgroup, so
        # the partial may be checked alone or in a batch.
        return msg.aggregate_response, key, st.challenged.challenge, expected

    def _response_child_gone(self, st: _RoundState, child: int,
                             crashed: bool = True) -> list:
        """A contributor died, lied, or refused between commit and response.
        The caller answers once nothing is pending (`_responses_done`)."""
        st.pending_resp = _frozen(st.pending_resp - {child})
        effects: list = []
        if st.config.mode == MODE_RESTART:
            if crashed:
                st.failed |= {child}
            st.resp_absent = _frozen(st.resp_absent
                                     | (st.topology.descendants(child) - st.absent))
            return effects

        rec = st.records.get(child)
        if rec is not None:
            heads = st.below.get(child, ())
            own, *paths = _audit_steps(rec, heads, [child] + [h.index for h in heads])
            up = self._steps(st, (child,))[0]
            st.exceptions += (CommitException(child, rec.commit, own.compose(up)),)
            st.resp_absent |= {child}
            if crashed:
                st.failed |= {child}
            # Bridge the gap: ask the dead child's own contributors directly.
            for head, path in zip(heads, paths):
                st.pending_resp |= {head.index}
                effects.append(Send(head.index, self._challenge(st, path.compose(up))))
            if heads:
                effects.append(SetTimer(("response",) + st.key, st.config.timeout_base))
        else:
            # A bridged grandchild we only know by its head. It has
            # contributors iff a node of its subtree besides itself committed.
            _, summary = self._bridged(st, child)
            if st.topology.descendants(child) - summary.absent != {child}:
                # Its own contributors' commits are in the aggregate but nobody
                # reachable holds the data to prove or replace them.
                st.unresolvable = f"witness {child} and its subtree data are unreachable"
            else:
                st.exceptions += (CommitException(
                    child, summary.commit, self._anchor_steps_for(st, child)),)
                st.resp_absent |= {child}
                if crashed:
                    st.failed |= {child}
        return effects

    def _finalize_response(self, st: _RoundState, now: float) -> list:
        total = multisig.response_share(st.nonce, st.challenged.challenge, self.keypair.secret)
        for share in st.resp_shares:
            total = total + share
        if st.parent is None:
            effects, msg = self._leader_after_response(st, total, now), None
        else:
            msg = Response(
                view=st.key[0], round=st.key[1], attempt=st.key[2], sender=self.index,
                aggregate_response=total, absent=st.resp_absent, failed=st.failed,
                refused=st.refused, exceptions=st.exceptions,
            )
            effects = [Send(st.return_to if st.return_to is not None else st.parent, msg)]
        self._finish(st, PHASE_DONE, msg)
        return effects

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def on_timer(self, key: tuple, now: float) -> list:
        kind, rest = key[0], key[1:]
        if kind == "progress":
            stalled = rest[0] == self.current_view and all(k[:2] != rest for k in self.rounds)
            return self.vote_view_change("no round progress", now) if stalled else []
        st = self.rounds.get(rest)
        if st is None:
            return []
        if kind == "commit" and st.phase == PHASE_COMMIT:
            effects: list = []
            for child in sorted(st.pending_commit):
                effects.extend(self._commit_child_gone(st, child, now))
            return effects
        if kind == "response" and st.phase == PHASE_RESPONSE and st.challenged is not None:
            effects = self._settle_held(st)
            for child in sorted(st.pending_resp):
                effects.extend(self._response_child_gone(st, child))
            return effects + self._responses_done(st, now)
        return []

    # ------------------------------------------------------------------
    # Leader transitions
    # ------------------------------------------------------------------

    def _leader_after_commit(self, st: _RoundState, now: float) -> list:
        if st.nonce is None:
            return self._fail(st, "nonce discarded for a newer session")
        if st.config.mode == MODE_RESTART and (st.failed or st.refused):
            return self._restart_or_fail(st, now, "witness failure during commit phase")
        if len(st.topology.members) - len(st.absent) < st.config.min_participants:
            return self._fail(st, "participation below leader threshold")
        late = st.config.statement_timing == STATEMENT_AT_CHALLENGE
        own, root = st.summary, st.summary.tree_hash  # no root in restart mode
        c = dict(view=st.key[0], round=st.key[1], attempt=st.key[2], sender=self.index,
                 challenge=multisig.collective_challenge(own.aggregate, st.statement, root),
                 aggregate_commit=own.aggregate, statement=st.statement if late else None)
        if root is None:
            st.challenged = RestartChallenge(**c)
        else:  # the root's own audit path is empty
            st.challenged = Challenge(**c, commit_root=root, proof=InclusionProof(b"\x00\x00"))
        return self._challenge_descend(st, now)

    def _restart_or_fail(self, st: _RoundState, now: float, reason: str) -> list:
        config, attempt, lead = st.config, st.key[2], st.lead
        lead.failed |= st.failed | st.refused
        lead.refused |= st.refused
        if attempt >= config.max_restarts:
            return [RoundDone(self._failure(config, attempt,
                                            f"{reason}; restart budget exhausted",
                                            lead.failed, lead.refused))]
        logger.info("leader %d restarting round %d (attempt %d): %s",
                    self.index, config.round_number, attempt + 1, reason)
        return self._start_attempt(config, attempt + 1, lead, now)

    def _leader_after_response(self, st: _RoundState, total: Scalar, now: float) -> list:
        config = st.config
        if st.config.mode == MODE_RESTART and (st.resp_absent or st.failed or st.refused):
            return self._restart_or_fail(st, now, "witness failure during response phase")
        if st.unresolvable:  # only no-restart bridging leaves a dropout unresolvable
            return self._fail(st, st.unresolvable)
        commit_absent = st.topology.absent | st.absent
        response_absent = commit_absent | st.resp_absent
        if len(self.roster) - len(response_absent) < config.min_participants:
            return self._fail(st, "participation below leader threshold")
        pset = ParticipationSet(count=len(self.roster), response_absent=response_absent,
                                commit_absent=commit_absent)
        exceptions = tuple(sorted(st.exceptions, key=lambda e: e.index))
        sig = CollectiveSignature(
            group=self.group, mode=st.config.mode, challenge=st.challenged.challenge,
            response=total, participation=pset, commit_root=st.summary.tree_hash,
            exceptions=exceptions,
        )
        check = multisig.verify_collective(self.roster, st.statement, sig,
                                           participation.Threshold(0))
        if not check.crypto_ok:
            return self._fail(st, f"assembled signature failed self-check: {check.reason}")
        result = RoundResult(
            ok=True, round=config.round_number, view=self.current_view,
            attempts=st.key[2] + 1, statement=st.statement, signature=sig,
            failed=(st.lead.failed - st.lead.refused) | st.failed,
            refused=st.lead.refused | st.refused,
        )
        if st.refused:
            logger.info("leader %d: refusals (distinct from crashes) from %s",
                        self.index, sorted(st.refused))
        return [RoundDone(result)]

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------

    def vote_view_change(self, reason: str, now: float) -> list:
        """Propose the next view; the vote is individually signed and
        broadcast to the whole roster."""
        proposed = self.current_view + 1
        sig = schnorr_sign(self.keypair, view_vote_statement(self.roster, proposed),
                           self.rng)
        msg = ViewChange(proposed_view=proposed, signer=self.index, signature=sig)
        logger.info("node %d votes for view %d (%s)", self.index, proposed, reason)
        effects = [Send(i, msg) for i in range(len(self.roster)) if i != self.index]
        effects.extend(self._on_view_change(msg, now))
        return effects

    def _on_view_change(self, msg: ViewChange, now: float) -> list:
        if msg.proposed_view <= self.current_view:
            return []
        statement = view_vote_statement(self.roster, msg.proposed_view)
        if not schnorr_verify(self.roster.public_key(msg.signer), statement,
                              msg.signature):
            logger.warning("node %d: invalid view-change vote from %d",
                           self.index, msg.signer)
            return []
        votes = self.view_votes.setdefault(msg.proposed_view, {})
        votes[msg.signer] = msg.signature
        if len(votes) < view_change_threshold(len(self.roster)):
            return []
        # Views activate on reaching the threshold, so only this one can newly
        # reach it, and tables at or below it are never read again.
        view = self.current_view = msg.proposed_view
        self._view_voters = frozenset(votes)
        self.view_votes = {v: vs for v, vs in self.view_votes.items() if v > view}
        # sessions of older views: no frame of theirs is read again
        self.rounds = {k: st for k, st in self.rounds.items() if k[0] >= view}
        logger.info("node %d activates view %d (leader %d)", self.index, view,
                    view_leader(self.roster, view))
        # the round due is due afresh in this view
        return [] if self._due is None else self.round_due(*self._due, now)
