"""Small-size tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

Each correctness check must pass on honest output and reject a corrupted
signature, receipt, root or verdict.
"""

from __future__ import annotations

import gc
import json
import logging
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import reference
import tracer
import workloads
from cosikit import engine, merkle, multisig, simnet, timestamp, topology

HERE = Path(__file__).resolve().parent


class SmallToy(workloads.CosiToy):
    n = 40
    branching = 4
    verify_batch = 2


class SmallProd(workloads.CosiProd):
    n = 16
    branching = 4
    liars = (2, 7)  # 2 is interior, 7 a leaf
    verify_batch = 2


class SmallStamp(workloads.StampProd):
    n = 4
    hashes = 37  # odd levels, so the root check covers duplication
    verify_batch = 3


def _detach_log(w):
    """Workloads share cosikit's logger within one process; keep what this
    one captured and let the next capture its own."""
    logging.getLogger("cosikit").removeHandler(w.log)


def _ran(cls, seed=5):
    w = cls(seed)
    w.setup()
    w.prepare()
    out = w.operate()
    _detach_log(w)
    return w, out


def _with_sig(out, **changes):
    metrics, result = out
    return metrics, replace(result, signature=replace(result.signature, **changes))


@pytest.fixture(scope="module")
def toy():
    return _ran(SmallToy)


@pytest.fixture(scope="module")
def prod():
    return _ran(SmallProd)


@pytest.fixture(scope="module")
def stamp():
    w = SmallStamp(3)
    w.setup()
    outs = []
    for _ in range(2):
        w.prepare()
        out = w.operate()
        assert w.check(out) == []
        outs.append(out)
    _detach_log(w)
    return w, outs


def test_honest_rounds_check_out_and_verify(toy, prod):
    for w, out in (toy, prod):
        assert w.check(out) == []
        assert all(w.verify(item) for item in w.verify_items(out))


def test_corrupted_response_is_caught(toy, prod):
    for w, out in (toy, prod):
        bad = _with_sig(out, response=out[1].signature.response + w.sim.group.scalar(1))
        problems = " ".join(w.check(bad))
        assert "aggregate response" in problems
        data, statement = w.verify_items(bad)[0]
        assert not w.verify((data, statement))
    w, out = toy
    bad = _with_sig(out, response=out[1].signature.response + w.sim.group.scalar(1))
    assert "g^r * K^c" in " ".join(w.check(bad))


def test_corrupted_toy_challenge_is_caught(toy):
    w, out = toy
    sig = out[1].signature
    bad = _with_sig(out, challenge=sig.challenge + w.sim.group.scalar(1))
    assert any("recomputed" in p for p in w.check(bad))


def test_toy_round_shape_is_checked(toy):
    w, out = toy
    metrics, result = out
    assert checks.round_shape(metrics.total_msgs + 1, metrics.latency, w.n,
                              w.branching, 0.2)
    assert checks.round_shape(metrics.total_msgs, 2 * 0.2 * 2, w.n, w.branching, 0.2)


def test_wrong_participation_is_caught(prod):
    w, out = prod
    sig = out[1].signature
    one_liar = replace(sig, exceptions=sig.exceptions[:1],
                       participation=replace(sig.participation,
                                             response_present=sig.participation.response_present
                                             | {sig.exceptions[1].index}))
    problems = " ".join(w.check((out[0], replace(out[1], signature=one_liar))))
    assert "exceptions" in problems and "present set" in problems


def test_rejected_partials_are_counted(prod):
    w, out = prod
    assert sorted(w.log.rejected) == sorted(w.liars)
    saved = list(w.log.rejected)
    w.log.rejected.pop()
    try:
        assert any("rejected partials" in p for p in w.check(out))
    finally:
        w.log.rejected[:] = saved


def test_accepting_verifier_fails_negative_controls(toy, stamp, monkeypatch):
    def accept(*args, **kwargs):
        return multisig.VerifyResult(ok=True, crypto_ok=True, predicate_ok=True)

    w, out = toy
    monkeypatch.setattr(multisig, "verify_collective", accept)
    assert any("tampered statement" in p for p in w.check(out))
    monkeypatch.undo()

    w, outs = stamp
    _, receipts, blobs = outs[-1]
    monkeypatch.setattr(timestamp, "verify_receipt", accept)
    problems = " ".join(w._negative_controls(receipts, blobs))
    assert "tampered digest" in problems and "tampered record" in problems


def test_toy_tampered_statement_changes_the_challenge(toy):
    w, out = toy
    result = out[1]
    nonces = workloads.round_nonces(w.sim, result,
                                    result.signature.participation.commit_present)
    tampered = w.tampered(result)
    assert tampered != result.statement
    assert checks.toy_challenge(nonces.values(), tampered) != result.signature.challenge.value


def test_stamp_receipts_verify(stamp):
    w, outs = stamp
    items = w.verify_items(outs[-1])
    assert len(items) == w.verify_batch
    assert all(w.verify(item) for item in items)
    blob, digest, prev = items[0]
    assert not w.verify((blob, bytes(32), prev))


def test_corrupted_root_and_receipts_are_caught(stamp):
    w, outs = stamp
    record, receipts, _ = outs[-1]
    batch = w.batch
    assert checks.stamp_batch(batch, record.merkle_root, receipts.keys()) == []
    assert checks.stamp_batch(batch, bytes(32), receipts.keys())
    assert checks.stamp_batch(batch, record.merkle_root, list(receipts.keys())[1:])
    swapped = [batch[1], batch[0]] + batch[2:]
    assert checks.stamp_batch(swapped, record.merkle_root, receipts.keys())


def test_broken_record_chain_is_caught(stamp):
    w, _ = stamp
    recs = [(r.round_number, r.wall_time, r.merkle_root, r.prev_record_hash)
            for r in w.records[-2:]]
    assert checks.record_chain(recs) == []
    first, second = recs
    assert checks.record_chain([first, second[:3] + (bytes(32),)])
    assert checks.record_chain([first, (second[0] + 1,) + second[1:]])


@pytest.mark.parametrize("count", list(range(1, 20)) + [37, 64, 65])
def test_merkle_oracle_matches_the_library(count):
    leaves = [bytes([i]) * 32 for i in range(count)]
    assert checks.merkle_root(leaves) == merkle.MerkleTree(leaves).root


@pytest.mark.parametrize("n,b", [(1, 2), (2, 2), (7, 2), (8, 2), (40, 4), (1024, 16),
                                 (128, 8), (16, 3)])
def test_depth_oracle_matches_the_library(n, b):
    assert checks.bary_depth(n, b) == topology.tree_for(n, b).depth


def test_tracer_patches_every_binding_and_restores_them():
    originals = (topology.tree_for, engine.tree_for, simnet.tree_for,
                 engine.encode_message, simnet.encode_message, simnet.heapq)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert engine.tree_for is topology.tree_for is simnet.tree_for
        assert engine.tree_for is not originals[0]
        assert simnet.encode_message is engine.encode_message is not originals[3]
        with tr.span("op"):
            topology.tree_for(10, 3).digest()
    finally:
        tr.uninstall()
    assert (topology.tree_for, engine.tree_for, simnet.tree_for, engine.encode_message,
            simnet.encode_message, simnet.heapq) == originals
    totals = tr.totals()
    assert totals["topology.tree_for.calls"] == 1
    assert totals["topology.digest.calls"] == 1
    assert totals["op.self_s"] >= 0
    assert list(tr.span_parent) == [-1, 0, 0]


def test_trace_counts_a_round():
    w = SmallToy(9)
    w.setup()
    tr = tracer.Tracer()
    tr.install([workloads])
    try:
        w.prepare()
        metrics, _ = w.operate()
    finally:
        tr.uninstall()
        _detach_log(w)
    totals = tr.totals()
    assert totals["engine.encode.calls"] == metrics.total_msgs
    assert totals["engine.encode.bytes"] == metrics.total_bytes_sent
    assert totals["topology.tree_for.calls"] == w.n
    assert totals["simnet.events"] >= metrics.total_msgs


def test_scaling_cancels_the_machine_speed():
    nominal = reference.NOMINAL_S
    assert reference.scale(1.0, nominal, nominal) == pytest.approx(1.0)
    # The same work on a machine running at half speed.
    assert reference.scale(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    # A speed change during the section counts half from each side.
    assert reference.scale(1.5, nominal, 2 * nominal) == pytest.approx(1.0)


def test_reference_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert reference.reference() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.reference()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cosi-toy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
