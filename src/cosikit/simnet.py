"""Deterministic discrete-event network simulator.

Hosts the engine's state machines (cosi scheme) and three baseline signing
schemes (naive, ntree, jvss) under a virtual clock, a constant-RTT link
model (`SimConfig.rtt`), and a fixed compute-cost model: `EXP_UNITS` per
exponentiation and `VERIFY_UNITS` per verification, each unit
`SECONDS_PER_UNIT` of simulated time. A seed fully determines a run,
including every emitted byte of the CSV report.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Optional

from . import engine, vss
from .engine import RoundConfig, RoundResult, SigningNode, apply_effects
from .group import (
    Group,
    Signature,
    group_by_name,
    keygen,
    prove_possession,
    schnorr_failing,
    schnorr_sign,
    schnorr_verify,
)
from .multisig import MODE_NAMES, MODE_RESTART
from .roster import RosterEntry, WitnessRoster, build_roster
from .topology import tree_for
from .wire import (Announce, Challenge, Commit, Response, RestartChallenge, RestartCommit,
                   ViewChange, frame_size)


EXP_UNITS = 1  # one abstract unit per group exponentiation
VERIFY_UNITS = 2  # a signature verification costs two exponentiations
SECONDS_PER_UNIT = 50e-6  # simulated seconds per unit
MAX_EVENTS = 50_000_000  # events one `VirtualNet.run` may process before it gives up


@dataclass(frozen=True)
class FailureAction:
    node: int
    phase: str  # announce | commit | challenge | response
    behavior: str  # crash | omit | lie


SCHEMES = ("cosi", "naive", "ntree", "jvss")
_PHASES = ("announce", "commit", "challenge", "response")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    n: int = 3
    branching: int = 2
    scheme: str = "cosi"
    rounds: int = 1
    group_name: str = "toy"
    mode: int = MODE_RESTART
    statement_timing: int = engine.STATEMENT_AT_ANNOUNCE
    max_restarts: int = 2
    min_participants: int = 1
    failures: tuple[FailureAction, ...] = ()
    statement: Optional[bytes] = None
    validation_policy: str = "accept-all"
    view_change: bool = False

    rtt: ClassVar[float] = 0.2  # seconds, on every link
    start_time: ClassVar[float] = 1_000_000.0  # the virtual clock's first reading

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.validation_policy not in engine.HOOKS:
            raise ValueError(f"unknown validation policy {self.validation_policy!r}")
        if self.n < 1:
            raise ValueError("need at least one node")
        for f in self.failures:
            if f.phase not in _PHASES:
                raise ValueError(f"unknown failure phase {f.phase!r}")
            if f.behavior not in ("crash", "omit", "lie"):
                raise ValueError(f"unknown failure behavior {f.behavior!r}")

    @property
    def group(self) -> Group:
        return group_by_name(self.group_name)

    def statement_for(self, round_index: int) -> bytes:
        if self.statement is not None:
            return self.statement
        return f"{self.scheme}-round-{round_index}".encode()

    def round_metrics(self, round_index: int, latency: float, ok: bool,
                      nodes: list[NodeMetrics], view: int = 0) -> RoundMetrics:
        """One round's report row; the flat schemes report branching 0."""
        branching = self.branching if self.scheme in ("cosi", "ntree") else 0
        return RoundMetrics(scheme=self.scheme, n=self.n, branching=branching,
                            round_index=round_index, latency=latency,
                            outcome="ok" if ok else "failed", nodes=nodes, view=view)


@dataclass
class NodeMetrics:
    msgs_sent: int = 0
    msgs_recv: int = 0
    bytes_sent: int = 0
    bytes_recv: int = 0
    compute_units: int = 0


@dataclass
class RoundMetrics:
    scheme: str
    n: int
    branching: int
    round_index: int
    latency: float
    outcome: str
    nodes: list[NodeMetrics]
    view: int = 0

    @property
    def root_msgs(self) -> int:
        return self.nodes[0].msgs_sent + self.nodes[0].msgs_recv

    @property
    def root_bytes(self) -> int:
        return self.nodes[0].bytes_sent + self.nodes[0].bytes_recv

    @property
    def root_compute(self) -> int:
        return self.nodes[0].compute_units

    @property
    def total_msgs(self) -> int:
        return sum(m.msgs_sent for m in self.nodes)

    @property
    def total_bytes_sent(self) -> int:
        return sum(m.bytes_sent for m in self.nodes)

    @property
    def total_bytes_recv(self) -> int:
        return sum(m.bytes_recv for m in self.nodes)


@dataclass
class SimOutput:
    config: SimConfig
    metrics: list[RoundMetrics]
    results: list[RoundResult]
    signatures: list
    roster: Optional[WitnessRoster] = None
    nodes: Optional[list] = None
    statements: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Event queue with per-node sequential compute
# ---------------------------------------------------------------------------

class VirtualNet:
    def __init__(self, n: int, rtt: float, start_time: float):
        self.n = n
        self.one_way = rtt / 2.0
        self.now = start_time
        self.busy = [start_time] * n
        self.heap: list = []
        self.seq = 0
        self.metrics = [NodeMetrics() for _ in range(n)]

    def begin_round(self) -> float:
        """Zero the per-node counters and move the clock past every node's
        pending compute; returns the round's start time."""
        self.metrics = [NodeMetrics() for _ in range(self.n)]
        self.now = max([self.now] + self.busy)
        return self.now

    def schedule(self, when: float, fn: Callable[..., None], *args) -> None:
        """Queue `fn(*args)` to run at virtual time `when`; events due at the
        same time run in the order they were scheduled."""
        heapq.heappush(self.heap, (when, self.seq, fn, args))
        self.seq += 1

    def process(self, node: int, units: int) -> float:
        """Serialize `units` of compute on `node`; returns the completion time."""
        start = max(self.now, self.busy[node])
        done = start + units * SECONDS_PER_UNIT
        self.busy[node] = done
        self.metrics[node].compute_units += units
        return done

    def transmit(self, src: int, dst: int, size: int, depart: float,
                 deliver: Callable[..., None], *args) -> None:
        """Send `size` bytes from `src` to `dst`; `deliver(*args)` runs when
        they arrive, one link delay after `depart` (none on a loopback)."""
        sent = self.metrics[src]
        sent.msgs_sent += 1
        sent.bytes_sent += size
        arrival = depart if src == dst else depart + self.one_way
        self.schedule(arrival, self._arrive, dst, size, deliver, args)

    def _arrive(self, dst: int, size: int, deliver: Callable[..., None],
                args: tuple) -> None:
        recv = self.metrics[dst]
        recv.msgs_recv += 1
        recv.bytes_recv += size
        deliver(*args)

    def run(self, stop: Callable[[], bool]) -> None:
        events = 0
        while self.heap and not stop():
            when, _, fn, args = heapq.heappop(self.heap)
            self.now = max(self.now, when)
            fn(*args)
            events += 1
            if events > MAX_EVENTS:
                raise RuntimeError("simulation event budget exhausted")


def _build_signers(cfg: SimConfig) -> tuple[WitnessRoster, list, list[random.Random]]:
    """The roster and its key pairs, then one signing RNG per node, all drawn
    from the seeded RNG in that order (the sweep CSV pins the draws)."""
    rng = random.Random(cfg.seed)
    keys = [keygen(cfg.group, rng) for _ in range(cfg.n)]
    entries = [RosterEntry(witness_id=f"w{i:05d}".encode(), key=prove_possession(kp, rng))
               for i, kp in enumerate(keys)]
    rngs = [random.Random(rng.getrandbits(64)) for _ in range(cfg.n)]
    return build_roster(entries, leader_index=0), keys, rngs


# ---------------------------------------------------------------------------
# cosi scheme: the engine state machines under the virtual network
# ---------------------------------------------------------------------------

_MSG_PHASE = {Announce: "announce", Commit: "commit", RestartCommit: "commit",
              Challenge: "challenge", RestartChallenge: "challenge", Response: "response"}


class CosiSim:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.roster, keys, rngs = _build_signers(cfg)
        self.group = cfg.group
        self.net = VirtualNet(cfg.n, cfg.rtt, cfg.start_time)
        self.nodes = [
            SigningNode(i, self.roster, keys[i], rngs[i],
                        validation_hook=engine.make_validation_hook(cfg.validation_policy))
            for i in range(cfg.n)
        ]
        self.crashed: set[int] = set()
        self.crash_on_recv: dict[int, str] = {}
        self.crash_on_send: dict[int, str] = {}
        self.omit_on_send: dict[int, set[str]] = {}
        self.liars: set[int] = set()
        for f in cfg.failures:
            if f.behavior == "crash":
                if f.phase == "announce":
                    self.crashed.add(f.node)  # dark from the very start
                elif f.phase == "challenge":
                    self.crash_on_recv[f.node] = f.phase
                else:
                    self.crash_on_send[f.node] = f.phase
            elif f.behavior == "omit":
                self.omit_on_send.setdefault(f.node, set()).add(f.phase)
            elif f.behavior == "lie":
                self.liars.add(f.node)
        self.round_result: Optional[RoundResult] = None

    # -- delivery; `send`, `set_timer` and `round_done` are what
    # `engine.apply_effects` calls --

    def _units_for(self, node: int, msg) -> int:
        if isinstance(msg, Announce):
            # an announce costs where it opens a session; re-announcing a held one, nothing
            held = (msg.view, msg.round, msg.attempt) in self.nodes[node].rounds
            return 0 if held else EXP_UNITS
        if isinstance(msg, (Response, ViewChange)):
            return VERIFY_UNITS
        return 0

    def _deliver(self, dst: int, msg) -> None:
        if dst in self.crashed:
            return
        phase = _MSG_PHASE.get(type(msg))
        if phase is not None and self.crash_on_recv.get(dst) == phase:
            self.crashed.add(dst)
            return
        done = self.net.process(dst, self._units_for(dst, msg))
        apply_effects(self, dst, self.nodes[dst].handle_message(msg, done), done)

    def send(self, src: int, dst: int, msg, when: float) -> None:
        if src in self.crashed:
            return
        phase = _MSG_PHASE.get(type(msg))
        if phase is not None and self.crash_on_send.get(src) == phase:
            self.crashed.add(src)
            return
        if phase is not None and phase in self.omit_on_send.get(src, ()):
            self.omit_on_send[src].discard(phase)
            return
        if src in self.liars and isinstance(msg, Response):
            bumped = msg.aggregate_response + self.group.scalar(1)
            msg = replace(msg, aggregate_response=bumped)
        self.net.transmit(src, dst, frame_size(msg, self.group), when,
                          self._deliver, dst, msg)

    def set_timer(self, node: int, key: tuple, delay: float, when: float) -> None:
        self.net.schedule(when + delay, self._timer, node, key)

    def round_done(self, node: int, result: RoundResult, when: float) -> None:
        self.round_result = result
        self.round_done_at = self.net.process(node, VERIFY_UNITS)

    def _timer(self, node: int, key: tuple) -> None:
        if node in self.crashed:
            return
        apply_effects(self, node, self.nodes[node].on_timer(key, self.net.now), self.net.now)

    def _round_due(self, node: int, config: RoundConfig, statement: bytes) -> None:
        if node in self.crashed:
            return
        when = self.net.now
        if self.nodes[node].is_leader():
            when = self.net.process(node, EXP_UNITS)
        apply_effects(self, node, self.nodes[node].round_due(config, statement, when), when)

    # -- rounds --

    def run_round(self, round_index: int) -> tuple[RoundMetrics, Optional[RoundResult]]:
        cfg = self.cfg
        start = self.net.begin_round()
        self.round_result = None
        self.round_done_at = None
        config = RoundConfig(
            round_number=round_index, mode=cfg.mode,
            statement_timing=cfg.statement_timing, branching=cfg.branching,
            max_restarts=cfg.max_restarts, min_participants=cfg.min_participants,
            rtt_hint=cfg.rtt,
        )
        statement = cfg.statement_for(round_index)
        # with view change on, every node learns of the round, to vote if it stalls
        for node in self.nodes:
            if cfg.view_change or node.is_leader():
                self.net.schedule(start, self._round_due, node.index, config, statement)
        self.net.run(stop=lambda: self.round_result is not None)
        if self.round_result is not None:
            latency = self.round_done_at - start
            ok = self.round_result.ok
            view = self.round_result.view
        else:
            latency = self.net.now - start
            ok = False
            view = max(n.current_view for n in self.nodes)
        metrics = cfg.round_metrics(round_index, latency, ok, self.net.metrics, view)
        return metrics, self.round_result


# ---------------------------------------------------------------------------
# Baseline schemes
# ---------------------------------------------------------------------------

class _Baseline:
    """A baseline's rounds run on one virtual network, and each lasts until
    its last node stops computing."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.net = VirtualNet(cfg.n, cfg.rtt, cfg.start_time)

    def _metrics(self, round_index: int, start: float, ok: bool) -> RoundMetrics:
        return self.cfg.round_metrics(round_index, max(self.net.busy) - start, ok,
                                      self.net.metrics)


class NaiveSim(_Baseline):
    """The leader exchanges an individual request/response pair with every
    roster member (itself over a zero-latency loopback) and verifies the N
    signatures sequentially."""

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.roster, self.keys, self.rngs = _build_signers(cfg)

    def run_round(self, round_index: int) -> tuple[RoundMetrics, list[Signature]]:
        cfg = self.cfg
        start = self.net.begin_round()
        statement = cfg.statement_for(round_index)
        sigs: dict[int, Signature] = {}
        verified: list[bool] = []
        req_size = 9 + len(statement)

        def witness_reply(i: int) -> None:
            done = self.net.process(i, EXP_UNITS)
            sig = schnorr_sign(self.keys[i], statement, self.rngs[i])
            size = 9 + 4 + len(sig.encode())
            self.net.transmit(i, 0, size, done, leader_collect, i, sig)

        def leader_collect(i: int, sig: Signature) -> None:
            self.net.process(0, VERIFY_UNITS)
            verified.append(schnorr_verify(self.keys[i].public, statement, sig))
            sigs[i] = sig

        for i in range(cfg.n):
            self.net.transmit(0, i, req_size, start, witness_reply, i)
        self.net.run(stop=lambda: len(sigs) == cfg.n)
        ok = len(sigs) == cfg.n and all(verified)
        return self._metrics(round_index, start, ok), [sigs[i] for i in sorted(sigs)]


class NTreeSim(_Baseline):
    """Individual signatures aggregated as lists over a B-ary tree; every
    interior node verifies all signatures produced within its subtree."""

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.roster, self.keys, self.rngs = _build_signers(cfg)
        self.topology = tree_for(cfg.n, cfg.branching, 0)

    def run_round(self, round_index: int) -> tuple[RoundMetrics, list[Signature]]:
        cfg = self.cfg
        topo = self.topology
        start = self.net.begin_round()
        statement = cfg.statement_for(round_index)
        req_size = 9 + len(statement)
        sig_entry = 4 + cfg.group.element_size + cfg.group.scalar_size
        collected: dict[int, list[tuple[int, Signature]]] = {i: [] for i in range(cfg.n)}
        pending: dict[int, int] = {i: len(topo.children[i]) for i in range(cfg.n)}
        final: list = []

        def announce(i: int) -> None:
            done = self.net.process(i, EXP_UNITS)
            for c in topo.children[i]:
                self.net.transmit(i, c, req_size, done, announce, c)
            if pending[i] == 0:
                reply_up(i, done)

        def reply_up(i: int, when: float) -> None:
            sig = schnorr_sign(self.keys[i], statement, self.rngs[i])
            entry = [(i, sig)] + collected[i]
            if i == 0:
                # on_subtree checked each child's list as it arrived
                final.append(entry)
                return
            parent = topo.parent[i]
            size = 9 + len(entry) * sig_entry
            self.net.transmit(i, parent, size, when, on_subtree, parent, i, entry)

        def on_subtree(parent: int, child: int, entry: list) -> None:
            done = self.net.process(parent, VERIFY_UNITS * len(entry))
            bad = schnorr_failing([(self.keys[j].public, statement, s) for j, s in entry])
            if bad:
                raise RuntimeError(f"ntree subtree signatures of nodes "
                                   f"{[entry[i][0] for i in bad]} failed")
            collected[parent].extend(entry)
            pending[parent] -= 1
            if pending[parent] == 0:
                reply_up(parent, done)

        self.net.schedule(start, announce, 0)
        self.net.run(stop=lambda: bool(final))
        entries = final[0] if final else []
        return self._metrics(round_index, start, bool(final)), [s for _, s in sorted(entries)]


class JvssSim(_Baseline):
    """Threshold Schnorr over joint verifiable secret sharing. Key setup runs
    once; every signing round re-deals a fresh joint commit (the O(N^2) cost
    the scheme cannot avoid) and partial responses are broadcast so any node,
    the leader included, can interpolate the signature."""

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        rng = random.Random(cfg.seed)
        self.group = cfg.group
        n = cfg.n
        self.t = min(max(1, min(n // 3, self.group.order - 2)), n - 1)
        self.rng = rng
        self.states = vss.jvss_setup(self.group, n, self.t, rng)

    def run_round(self, round_index: int) -> tuple[RoundMetrics, Signature]:
        """The signature comes from `vss.jvss_sign_round`; the events below
        only charge that round's messages and compute."""
        cfg = self.cfg
        n, t, q = cfg.n, self.t, self.group.order
        start = self.net.begin_round()
        statement = cfg.statement_for(round_index)
        sig = vss.jvss_sign_round(self.states, statement, self.rng)
        elem, scal = self.group.element_size, self.group.scalar_size
        share_size = 9 + 4 + (t + 1) * elem + scal
        partial_size = 9 + 4 + scal
        have = [0] * n
        seen_points: set[int] = set()
        result: list[Signature] = []

        def kickoff(i: int) -> None:
            done = self.net.process(i, EXP_UNITS * (t + 1))
            for j in range(n):
                if j == i:
                    accept_share(i, done)
                else:
                    self.net.transmit(i, j, share_size, done, on_share, j)

        def on_share(j: int) -> None:
            accept_share(j, self.net.process(j, EXP_UNITS * (t + 2)))

        def accept_share(j: int, when: float) -> None:
            have[j] += 1
            if have[j] == n:
                for k in range(n):
                    if k != j:
                        self.net.transmit(j, k, partial_size, when, on_partial, k, j)
                    else:
                        on_partial(j, j)

        def on_partial(k: int, j: int) -> None:
            if k != 0 or result:
                return
            seen_points.add(vss.share_point(j, q))
            if len(seen_points) == t + 1:
                self.net.process(0, VERIFY_UNITS)
                result.append(sig)

        announce_size = 9 + len(statement)
        def begin():
            for i in range(1, n):
                self.net.transmit(0, i, announce_size, start, kickoff, i)
            kickoff(0)

        self.net.schedule(start, begin)
        self.net.run(stop=lambda: False)  # drain: every dealt share is delivered
        sig = result[0] if result else None
        ok = sig is not None and schnorr_verify(self.states[0].joint_public,
                                                statement, sig)
        return self._metrics(round_index, start, ok), sig


# ---------------------------------------------------------------------------
# Entry points and reporting
# ---------------------------------------------------------------------------

def run_sim_detailed(cfg: SimConfig) -> SimOutput:
    out = SimOutput(config=cfg, metrics=[], results=[], signatures=[])
    if cfg.scheme == "cosi":
        sim = CosiSim(cfg)
        out.roster = sim.roster
        out.nodes = sim.nodes
        for r in range(cfg.rounds):
            metrics, result = sim.run_round(r)
            out.metrics.append(metrics)
            out.results.append(result)
            out.signatures.append(result.signature if result and result.ok else None)
            out.statements.append(result.statement if result else None)
        return out
    if cfg.scheme == "naive":
        sim = NaiveSim(cfg)
        out.roster = sim.roster
    elif cfg.scheme == "ntree":
        sim = NTreeSim(cfg)
        out.roster = sim.roster
    else:
        sim = JvssSim(cfg)
    for r in range(cfg.rounds):
        metrics, sigs = sim.run_round(r)
        out.metrics.append(metrics)
        out.signatures.append(sigs)
    return out


def run_sim(cfg: SimConfig) -> list[RoundMetrics]:
    """Per-round metrics for a deterministic simulation run."""
    return run_sim_detailed(cfg).metrics


CSV_HEADER = "scheme,N,B,round,latency_ms,root_msgs,root_bytes,root_compute"


def emit_report(metrics: list[RoundMetrics]) -> str:
    lines = [CSV_HEADER]
    for m in metrics:
        lines.append(f"{m.scheme},{m.n},{m.branching},{m.round_index},"
                     f"{m.latency * 1000:.3f},{m.root_msgs},{m.root_bytes},"
                     f"{m.root_compute}")
    return "\n".join(lines) + "\n"


# Sweep keys and the JSON type of each one's value; the plain ones are the
# `SimConfig` fields of the same name.
_PLAIN_KEYS = {"seed": int, "n": int, "branching": int, "scheme": str, "rounds": int,
               "max_restarts": int, "min_participants": int, "validation_policy": str,
               "view_change": bool}
_SWEEP_KEYS = {**_PLAIN_KEYS, "group": str, "mode": str, "statement": str}


def config_from_obj(obj: dict, defaults: dict | None = None) -> SimConfig:
    merged = dict(defaults or {})
    merged.update(obj)
    unknown = sorted(set(merged) - set(_SWEEP_KEYS))
    if unknown:
        raise ValueError(f"unknown sweep keys: {', '.join(unknown)}")
    for key, value in merged.items():
        if type(value) is not _SWEEP_KEYS[key]:  # a bool is not an int here
            raise ValueError(f"sweep key {key} must be of type "
                             f"{_SWEEP_KEYS[key].__name__}, not {value!r}")
    kwargs = {key: merged[key] for key in _PLAIN_KEYS if key in merged}
    if "group" in merged:
        kwargs["group_name"] = merged["group"]
    if "mode" in merged:
        if merged["mode"] not in MODE_NAMES:
            raise ValueError(f"unknown mode {merged['mode']!r}; known modes: "
                             f"{', '.join(MODE_NAMES)}")
        kwargs["mode"] = MODE_NAMES[merged["mode"]]
    if "statement" in merged:
        kwargs["statement"] = merged["statement"].encode()
    return SimConfig(**kwargs)


def load_sweep(path: str) -> list[SimConfig]:
    """Sweep file: {"defaults": {...}, "entries": [{...}, ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    defaults = obj.get("defaults", {})
    return [config_from_obj(entry, defaults) for entry in obj.get("entries", [])]
