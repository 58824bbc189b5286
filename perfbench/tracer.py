"""Per-module spans and counters, installed from outside cosikit.

The tracer replaces chosen public functions and methods with wrappers that
record a span (name, start, end, parent) and add up each name's self time:
the span's duration minus the part its child spans cover. A function that
other modules import by name is replaced in every module that binds it, so
``engine.tree_for`` and ``simnet.tree_for`` are traced like
``topology.tree_for``. Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import sys
import time
import types
from array import array
from collections import defaultdict

from cosikit import engine, group, merkle, multisig, participation, roster, simnet, \
    timestamp, topology

# name -> unit, in the order they are reported. "*.self_s" is a span name's
# self time, "*.calls" its call count; the rest are counters. "s_sim" is
# seconds of the simulator's virtual clock.
PER_LAYER = {
    "group.pow.calls": "count", "group.pow.self_s": "s",
    "group.mul.calls": "count", "group.mul.self_s": "s",
    "group.decode.calls": "count", "group.decode.self_s": "s",
    "group.encode.calls": "count", "group.encode.self_s": "s",
    "group.schnorr.self_s": "s",
    "setup.group.pow.calls": "count", "setup.group.pow.self_s": "s",
    "roster.build.self_s": "s",
    "topology.tree_for.calls": "count", "topology.tree_for.self_s": "s",
    "topology.digest.calls": "count", "topology.digest.self_s": "s",
    "topology.descendants.calls": "count", "topology.descendants.self_s": "s",
    "engine.announce.self_s": "s", "engine.commit.self_s": "s",
    "engine.challenge.self_s": "s", "engine.response.self_s": "s",
    "engine.other.self_s": "s",
    "engine.encode.calls": "count", "engine.encode.bytes": "B", "engine.encode.self_s": "s",
    "simnet.events": "count", "simnet.self_s": "s",
    "simnet.msgs": "count", "simnet.bytes": "B", "simnet.virtual_latency_s": "s_sim",
    "multisig.verify.self_s": "s",
    "multisig.aggregate_key.calls": "count", "multisig.aggregate_key.self_s": "s",
    "multisig.commit_proof.self_s": "s",
    "multisig.sig_encode.calls": "count", "multisig.sig_encode.self_s": "s",
    "multisig.sig_decode.self_s": "s",
    "participation.encode.self_s": "s", "participation.decode.self_s": "s",
    "participation.evaluate.self_s": "s",
    "merkle.build.self_s": "s", "merkle.prove.calls": "count", "merkle.prove.self_s": "s",
    "merkle.proof_encode.self_s": "s", "merkle.proof_decode.self_s": "s",
    "merkle.verify.self_s": "s",
    "timestamp.submit.self_s": "s", "timestamp.round_close.self_s": "s",
    "timestamp.receipt_encode.self_s": "s", "timestamp.receipt_decode.self_s": "s",
    "timestamp.verify_receipt.self_s": "s",
    "trace.overhead_s": "s",
}

# Metrics taken from the traced set-up (key generation, possession proofs,
# roster build and the warm-up operation); all others are per operation.
SETUP_METRICS = ("group.schnorr.self_s", "roster.build.self_s",
                 "setup.group.pow.calls", "setup.group.pow.self_s")

_MESSAGE_SPANS = {engine.Announce: "engine.announce", engine.Commit: "engine.commit",
                  engine.Challenge: "engine.challenge", engine.Response: "engine.response"}


def _handle_message_span(args) -> str:
    return _MESSAGE_SPANS.get(type(args[1]), "engine.other")


# (owner, attribute, span name or a function of the call's arguments[, a
# function of the result whose value is summed as "<span name>.bytes"])
TRACED = [
    (group.GroupElement, "__pow__", "group.pow"),
    (group.GroupElement, "__mul__", "group.mul"),
    (group.Group, "decode_element", "group.decode"),
    (group.GroupElement, "encode", "group.encode"),
    (group, "keygen", "group.schnorr"),
    (group, "prove_possession", "group.schnorr"),
    (group, "verify_possession", "group.schnorr"),
    (group, "schnorr_sign", "group.schnorr"),
    (group, "schnorr_verify", "group.schnorr"),
    (roster, "build_roster", "roster.build"),
    (topology, "tree_for", "topology.tree_for"),
    (topology.TreeTopology, "digest", "topology.digest"),
    (topology.TreeTopology, "descendants", "topology.descendants"),
    (engine.SigningNode, "handle_message", _handle_message_span),
    (engine.SigningNode, "start_round", "engine.other"),
    (engine.SigningNode, "on_timer", "engine.other"),
    (engine, "encode_message", "engine.encode", len),
    (simnet.CosiSim, "run_round", "simnet"),
    (multisig, "verify_collective", "multisig.verify"),
    (multisig, "aggregate_public_key", "multisig.aggregate_key"),
    (multisig, "fold_commit_proof", "multisig.commit_proof"),
    (multisig, "verify_commit_inclusion", "multisig.commit_proof"),
    (multisig.CommitTreeProof, "encode", "multisig.commit_proof"),
    (multisig.CommitTreeProof, "decode", "multisig.commit_proof"),
    (multisig.CollectiveSignature, "to_bytes", "multisig.sig_encode"),
    (multisig.CollectiveSignature, "from_bytes", "multisig.sig_decode"),
    (participation, "encode_index_set", "participation.encode"),
    (participation, "encode_smallest", "participation.encode"),
    (participation, "decode_index_set", "participation.decode"),
    (participation, "decode", "participation.decode"),
    (participation, "evaluate", "participation.evaluate"),
    (merkle.MerkleTree, "__init__", "merkle.build"),
    (merkle.MerkleTree, "prove", "merkle.prove"),
    (merkle.InclusionProof, "encode", "merkle.proof_encode"),
    (merkle.InclusionProof, "decode", "merkle.proof_decode"),
    (merkle, "verify_inclusion", "merkle.verify"),
    (merkle, "fold_proof", "merkle.verify"),
    (timestamp.TimestampAuthority, "submit", "timestamp.submit"),
    (timestamp.TimestampAuthority, "round_close", "timestamp.round_close"),
    (timestamp.StampReceipt, "to_bytes", "timestamp.receipt_encode"),
    (timestamp.StampReceipt, "from_bytes", "timestamp.receipt_decode"),
    (timestamp, "verify_receipt", "timestamp.verify_receipt"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple] = []

    # -- spans --

    def _open(self, name: str) -> list:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        frame = [len(self.span_name), 0.0]
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        index = frame[0]
        self.span_start[index] = start
        self.span_end[index] = end
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into cosikit."""
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, time.perf_counter())

    def _wrap(self, fn, name, size=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame = tracer._open(label)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(label, frame, start, clock())

        if size is None:
            return traced

        @functools.wraps(fn)
        def sized(*args, **kwargs):
            result = traced(*args, **kwargs)
            tracer.counts[f"{name}.bytes"] += size(result)
            return result

        return sized

    def _counting_heapq(self):
        """Stands in for the `heapq` module that simnet's event loop pops
        events from, counting each event taken off the queue."""
        counts = self.counts

        def heappop(heap):
            counts["simnet.events"] += 1
            return heapq.heappop(heap)

        return types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop)

    # -- patching --

    def install(self, extra_modules=()) -> None:
        """Patch every traced attribute, and every module attribute in cosikit
        (or in `extra_modules`) that binds a traced module-level function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == "cosikit" or k.startswith("cosikit.")]
        modules += list(extra_modules)
        self._patches.append((simnet, "heapq", simnet.heapq))
        simnet.heapq = self._counting_heapq()
        for owner, attr, *how in TRACED:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, *how))
            else:
                new = self._wrap(raw, *how)
            if isinstance(owner, type):
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, key, raw))
                        setattr(module, key, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results --

    def totals(self) -> dict[str, float]:
        """Every metric this tracer has accumulated, under its reported name."""
        out = {f"{k}.self_s": v for k, v in self.self_s.items()}
        out.update({f"{k}.calls": v for k, v in self.calls.items()})
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        lines = ["name,start_s,end_s,parent"]
        names = self.names
        for i in range(len(self.span_name)):
            lines.append(f"{names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
