import csv
import dataclasses
import gc
import itertools
import tracemalloc
from pathlib import Path

import pytest

from conftest import count_calls

from cosikit import engine, multisig, simnet, timestamp
from cosikit.wire import Challenge, Refuse, Response, ViewChange, encode_message
from cosikit.group import ED25519, _TABLE_USES, Ed25519Group, Signature
from cosikit.multisig import MODE_NO_RESTART
from cosikit.participation import Threshold
from cosikit.simnet import (
    FailureAction,
    SimConfig,
    config_from_obj,
    emit_report,
    run_sim,
    run_sim_detailed,
)
from cosikit.timestamp import GENESIS_HASH, TimestampRecord
from cosikit.topology import tree_for


def test_hand_trace_cosi_three_nodes():
    # depth-1 tree: announce down, commit up, challenge down, response up
    # = 4 one-way hops x 100 ms, plus a few compute units
    m = run_sim(SimConfig(seed=1, n=3, branching=2, scheme="cosi"))[0]
    assert m.outcome == "ok"
    assert 0.400 < m.latency < 0.405


def test_hand_trace_naive_three_nodes():
    # one RTT for the parallel request/response pairs, then sequential
    # verification of three signatures at the root
    cfg = SimConfig(seed=1, n=3, scheme="naive")
    m = run_sim(cfg)[0]
    assert m.outcome == "ok"
    verify_cost = 3 * simnet.VERIFY_UNITS * simnet.SECONDS_PER_UNIT
    assert 0.200 < m.latency < 0.201 + verify_cost + 0.001
    # root exchanges a request/response pair with every witness, itself included
    assert m.nodes[0].msgs_sent == cfg.n + 1
    assert m.nodes[0].msgs_recv == cfg.n + 1


def test_latency_closed_form_within_ten_percent():
    for n, b in ((16, 2), (64, 4), (256, 4)):
        cfg = SimConfig(seed=2, n=n, branching=b, scheme="cosi")
        m = run_sim(cfg)[0]
        depth = tree_for(n, b, 0).depth
        closed_form = 2 * depth * cfg.rtt
        assert abs(m.latency - closed_form) / closed_form <= 0.10, (n, b, m.latency)


def test_byte_conservation():
    configs = [
        SimConfig(seed=3, n=7, branching=2, scheme="cosi"),
        SimConfig(seed=3, n=7, branching=2, scheme="cosi", mode=MODE_NO_RESTART,
                  failures=(FailureAction(1, "challenge", "crash"),)),
        SimConfig(seed=3, n=5, scheme="naive"),
        SimConfig(seed=3, n=7, branching=2, scheme="ntree"),
        SimConfig(seed=3, n=6, scheme="jvss"),
    ]
    for cfg in configs:
        for m in run_sim(cfg):
            assert m.total_bytes_sent == m.total_bytes_recv, cfg.scheme


def test_cosi_signatures_always_verify():
    for seed in (1, 2, 3):
        out = run_sim_detailed(SimConfig(seed=seed, n=15, branching=4, scheme="cosi",
                                         rounds=2))
        for result, statement in zip(out.results, out.statements):
            assert result.ok
            assert multisig.verify_collective(out.roster, statement,
                                              result.signature, Threshold(10)).ok


def test_naive_returns_individual_signatures():
    out = run_sim_detailed(SimConfig(seed=4, n=1, scheme="naive"))
    assert len(out.signatures[0]) == 1
    assert out.metrics[0].outcome == "ok"
    # naive root bytes grow linearly with N
    small = run_sim(SimConfig(seed=4, n=16, scheme="naive"))[0]
    large = run_sim(SimConfig(seed=4, n=64, scheme="naive"))[0]
    assert large.root_bytes > 3 * small.root_bytes


def test_ntree_root_verifies_whole_tree():
    cfg = SimConfig(seed=5, n=31, branching=2, scheme="ntree")
    m = run_sim(cfg)[0]
    assert m.outcome == "ok"
    # root verifies all 30 descendants' signatures plus signs once
    assert m.root_compute == 30 * simnet.VERIFY_UNITS + simnet.EXP_UNITS


def test_ntree_batch_names_a_bad_subtree_signature(monkeypatch):
    """Each received list is checked as one batch in the prod group; a failed
    batch is checked one by one to name the signer."""
    cfg = SimConfig(seed=5, n=15, branching=2, scheme="ntree", group_name="prod")
    assert run_sim(cfg)[0].outcome == "ok"
    sim = simnet.NTreeSim(cfg)
    bad, sign = sim.keys[9], simnet.schnorr_sign

    def forging(keypair, statement, rng):
        sig = sign(keypair, statement, rng)
        return Signature(sig.R, sig.s + sig.s.group.scalar(1)) if keypair is bad else sig

    monkeypatch.setattr(simnet, "schnorr_sign", forging)
    with pytest.raises(RuntimeError, match=r"signatures of nodes \[9\] failed"):
        sim.run_round(0)


def test_jvss_round_signature_and_quadratic_messages():
    out = run_sim_detailed(SimConfig(seed=6, n=4, scheme="jvss"))
    sig = out.signatures[0]
    assert out.metrics[0].outcome == "ok"
    sixteen = run_sim(SimConfig(seed=6, n=16, scheme="jvss"))[0]
    sixty_four = run_sim(SimConfig(seed=6, n=64, scheme="jvss"))[0]
    assert sixty_four.total_msgs >= 16 * sixteen.total_msgs
    # (N-1)(2N+1): start broadcast + dealing + response broadcasts
    assert sixteen.total_msgs == 15 * 33


def test_determinism_byte_identical_reports():
    cfgs = [SimConfig(seed=9, n=16, branching=4, scheme="cosi", rounds=2),
            SimConfig(seed=9, n=8, scheme="jvss")]
    first = emit_report([m for c in cfgs for m in run_sim(c)])
    second = emit_report([m for c in cfgs for m in run_sim(c)])
    assert first == second
    assert first.startswith("scheme,N,B,round,latency_ms,root_msgs,root_bytes,root_compute\n")


def test_shipped_sweep_matches_committed_csv():
    """sweeps/paper_scaling.csv was written by scripts/run_sweep.py; a change
    that moves any simulated latency, byte or message count fails here."""
    sweeps = Path(__file__).resolve().parent.parent / "sweeps"
    configs = simnet.load_sweep(str(sweeps / "paper_scaling.json"))
    report = emit_report([m for cfg in configs for m in run_sim(cfg)])
    assert report.encode() == (sweeps / "paper_scaling.csv").read_bytes()


def test_committed_sweep_root_traffic_flat_in_n():
    """The paper's claim that the root's traffic does not grow with N, as a
    relation between rows of the committed sweep: every restart `cosi` row at
    one branching factor has the same root messages and root bytes."""
    sweeps = Path(__file__).resolve().parent.parent / "sweeps"
    configs = simnet.load_sweep(str(sweeps / "paper_scaling.json"))
    with open(sweeps / "paper_scaling.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    modes = [cfg.mode for cfg in configs for _ in range(cfg.rounds)]
    assert len(rows) == len(modes)
    by_branching: dict = {}
    for row, mode in zip(rows, modes):
        if row["scheme"] == "cosi" and mode == multisig.MODE_RESTART:
            by_branching.setdefault(row["B"], []).append((row["root_msgs"], row["root_bytes"]))
    assert max(len(traffic) for traffic in by_branching.values()) >= 3
    for traffic in by_branching.values():
        assert len(set(traffic)) == 1, traffic


def test_no_restart_root_bytes_flat_in_n():
    """A no-restart commit carries one head per contributor of its sender, so
    the root reads as many bytes at N=1,024 as at 512, at branching 16."""
    root_bytes = [run_sim(SimConfig(seed=7, n=n, branching=16, scheme="cosi",
                                    mode=MODE_NO_RESTART))[0].root_bytes
                  for n in (512, 1024)]
    assert root_bytes[0] == root_bytes[1]


def test_emit_report_row_count():
    metrics = run_sim(SimConfig(seed=10, n=4, branching=2, scheme="cosi", rounds=3))
    report = emit_report(metrics)
    lines = report.strip().split("\n")
    assert len(lines) == 1 + 3
    assert lines[1].startswith("cosi,4,2,0,")


def test_leader_crash_without_view_change_reports_failure():
    cfg = SimConfig(seed=11, n=4, branching=3, scheme="cosi",
                    failures=(FailureAction(0, "announce", "crash"),))
    metrics = run_sim(cfg)
    assert metrics[0].outcome == "failed"


def test_compute_model_mapping():
    net = simnet.VirtualNet(1, SimConfig.rtt, SimConfig.start_time)
    assert net.process(0, 2) - SimConfig.start_time == pytest.approx(100e-6)


def test_config_from_obj_and_sweep(tmp_path):
    cfg = config_from_obj({"scheme": "cosi", "n": 8, "branching": 2,
                           "mode": "norestart", "group": "toy"}, {"seed": 3})
    assert cfg.mode == MODE_NO_RESTART and cfg.seed == 3
    sweep = tmp_path / "sweep.json"
    sweep.write_text('{"defaults": {"seed": 5}, "entries": '
                     '[{"scheme": "naive", "n": 4}, {"scheme": "cosi", "n": 4, '
                     '"branching": 2}]}')
    configs = simnet.load_sweep(str(sweep))
    assert [c.scheme for c in configs] == ["naive", "cosi"]
    assert all(c.seed == 5 for c in configs)


def test_config_from_obj_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown sweep keys: brancing, grop"):
        config_from_obj({"brancing": 8, "grop": "prod"})
    with pytest.raises(ValueError, match="unknown sweep keys: sed"):
        config_from_obj({"n": 4}, {"sed": 3})
    with pytest.raises(ValueError,
                       match="unknown mode 'bogus'; known modes: restart, norestart"):
        config_from_obj({"mode": "bogus"})
    # settings the simulator fixes, as constants, are not sweep keys
    for key, value in (("rtt", 0.2), ("start_time", 1_000_000.0), ("compute", {}),
                       ("progress_timeout", 2.0), ("jvss_threshold", None),
                       ("policy_skew", 60.0)):
        with pytest.raises(ValueError, match=f"unknown sweep keys: {key}$"):
            config_from_obj({key: value})


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        SimConfig(scheme="bogus")
    with pytest.raises(ValueError):
        SimConfig(failures=(FailureAction(0, "weird", "crash"),))
    with pytest.raises(ValueError, match="unknown validation policy 'bogus'"):
        SimConfig(scheme="naive", validation_policy="bogus")


def test_multi_round_metrics_independent():
    out = run_sim_detailed(SimConfig(seed=12, n=7, branching=2, scheme="cosi",
                                     rounds=3))
    assert [m.round_index for m in out.metrics] == [0, 1, 2]
    latencies = [m.latency for m in out.metrics]
    assert max(latencies) - min(latencies) < 0.05
    for m in out.metrics:
        assert m.outcome == "ok"


def _liars(*nodes):
    return tuple(FailureAction(i, "response", "lie") for i in nodes)


_BACKDATED = TimestampRecord(round_number=1, wall_time=1_000_000 - 120, merkle_root=b"\x11" * 32,
                             prev_record_hash=GENESIS_HASH).pack()


@pytest.mark.parametrize("cfg, sent_one", [
    # 1 is interior (children 3, 4); 9 is a leaf two levels below 0
    pytest.param(SimConfig(seed=21, n=15, branching=2, scheme="cosi", group_name="prod",
                           mode=MODE_NO_RESTART, failures=_liars(1, 9)),
                 lambda src, dst, msg: isinstance(msg, Response)
                 and any(e.proof.step_count > 2 for e in msg.exceptions),  # lifted a level
                 id="prod-interior-and-leaf-liars"),
    pytest.param(SimConfig(seed=7, n=15, branching=2, scheme="cosi", mode=MODE_NO_RESTART,
                           failures=(FailureAction(1, "challenge", "crash"),)),
                 lambda src, dst, msg: isinstance(msg, Challenge) and (src, dst) == (0, 3),
                 id="bridge-past-crashed-interior"),
    pytest.param(SimConfig(seed=900, n=4, branching=3, scheme="cosi", statement=_BACKDATED,
                           validation_policy="timestamp-window", min_participants=3),
                 lambda src, dst, msg: isinstance(msg, Refuse), id="timestamp-window-refusal"),
    pytest.param(SimConfig(seed=14, n=4, branching=3, scheme="cosi", view_change=True,
                           failures=(FailureAction(0, "announce", "crash"),)),
                 lambda src, dst, msg: isinstance(msg, ViewChange), id="leader-crash-view-change"),
])
def test_every_message_charged_its_encoded_length(monkeypatch, cfg, sent_one):
    """The simulator counts bytes from each message's fields; on paths the
    shipped sweep never takes, every charge still equals the encoded frame."""
    sent = []
    transmit = simnet.VirtualNet.transmit

    def recording(net, src, dst, size, depart, deliver, *args):
        sent.append((src, dst, size, args[-1]))
        transmit(net, src, dst, size, depart, deliver, *args)

    monkeypatch.setattr(simnet.VirtualNet, "transmit", recording)
    metrics = run_sim(cfg)
    assert any(sent_one(src, dst, msg) for src, dst, _, msg in sent)
    for _, _, size, msg in sent:
        assert size == len(encode_message(msg, cfg.group)), msg
    assert len(sent) == sum(m.total_msgs for m in metrics)
    assert sum(size for *_, size, _ in sent) == sum(m.total_bytes_sent for m in metrics)


@pytest.mark.parametrize("cfg, msgs, sent_bytes, root_bytes, latency", [
    (SimConfig(seed=1, n=1024, branching=16, scheme="cosi", statement=bytes(32)),
     4092, 182_094, 2_848, 1.2037),
    (SimConfig(seed=1, n=128, branching=8, scheme="cosi", group_name="prod",
               mode=MODE_NO_RESTART, statement=bytes(32), failures=_liars(5, 40, 77)),
     524, 106_379, 14_784, 1.2024),
], ids=["toy-1024-restart", "prod-128-no-restart-liars"])
def test_benchmark_shaped_rounds_pinned(cfg, msgs, sent_bytes, root_bytes, latency):
    """The rounds the benchmark times, with a 32-byte statement as it binds:
    message and byte counts and simulated latency are behaviour."""
    m = run_sim(cfg)[0]
    assert m.outcome == "ok"
    assert (m.total_msgs, m.total_bytes_sent, m.root_bytes) == (msgs, sent_bytes, root_bytes)
    assert m.latency == pytest.approx(latency, abs=1e-6)


KERNELS = ("_comb", "_straus", "_window", "_fixed_base_rows")


def fresh_generator(monkeypatch):
    """G as a new process holds it, not powered yet, for as long as the test
    runs: its powers below `_TABLE_USES` take the ladder and the one that
    reaches it builds its table."""
    monkeypatch.setattr(ED25519.generator, "_pre", 0)


def test_benchmark_shaped_prod_round_kernel_calls_pinned(monkeypatch):
    """Ed25519 kernel calls of the prod round above, a cost that does not
    depend on the machine's speed: fixed-base powers (`_comb`), Straus
    ladders, ladder windows and table builds (`_fixed_base_rows`) in
    building the roster (where G's first 17 powers take the ladder and its
    18th builds G's table), in the first round (which takes every subtree
    key's window, and builds the rows of the keys a failed batch checks
    again), in the second (which builds the other keys' rows, the windows of
    K, 2^64 * K and 2^128 * K) and in the rounds after. Each batch of
    partials is one ladder. A change that adds a ladder, a window or a table
    moves them. Every round's signature leaves the three liars absent, so
    the leader's self-check powers the roster's kept present key once a
    round: by the ladder in rounds 0 to 16, by the table it builds in round
    17 and by walking that table from round 18 on, which then costs what
    every round cost from round 2 on when the second power built the table.
    No other element builds a table."""
    fresh_generator(monkeypatch)
    calls = count_calls(monkeypatch, Ed25519Group, KERNELS)
    sim = simnet.CosiSim(SimConfig(seed=1, n=128, branching=8, scheme="cosi",
                                   group_name="prod", mode=MODE_NO_RESTART,
                                   statement=bytes(32), failures=_liars(5, 40, 77)))
    counts = {"roster": dict(calls)}
    for rnd in range(_TABLE_USES + 1):
        calls.clear()
        assert sim.run_round(rnd)[1].ok
        counts[f"round {rnd}"] = dict(calls)
    walk = {"_comb": 177, "_straus": 47, "_window": 151}
    assert counts == {"roster": {"_comb": 240, "_straus": 18, "_window": 273,
                                 "_fixed_base_rows": 1},
                      "round 0": {"_comb": 176, "_straus": 48, "_window": 335},
                      "round 1": {"_comb": 176, "_straus": 48, "_window": 509},
                      **{f"round {rnd}": {"_comb": 176, "_straus": 48, "_window": 152}
                         for rnd in range(2, 17)},
                      "round 17": {**walk, "_fixed_base_rows": 1},
                      "round 18": walk}


def test_benchmark_shaped_stamp_batch_kernel_calls_pinned(monkeypatch):
    """The same kernel calls for batches of a timestamp authority signing
    through a 16-witness prod simulation, restart mode with the statement
    bound at challenge, as `cosi run-leader` runs it: per batch of submits,
    round close and receipt encodes. Building the roster takes G's 17
    ladders and builds G's table. Every witness signs, so the leader's
    self-check powers the roster's full key once a batch, by the ladder in
    batches 0 to 16, by the table it builds in batch 17 and by walking that
    table from batch 18 on, which then costs what every batch cost from
    batch 2 on when the second power built the table. Batch 0 takes every
    subtree key's window, and batch 1 builds every subtree key's rows. No
    other element builds a table."""
    fresh_generator(monkeypatch)
    calls = count_calls(monkeypatch, Ed25519Group, KERNELS)
    sim = simnet.CosiSim(SimConfig(seed=1, n=16, branching=3, group_name="prod",
                                   mode=multisig.MODE_RESTART,
                                   statement_timing=engine.STATEMENT_AT_CHALLENGE))
    sign_round = itertools.count()

    def sign(statement):
        sim.cfg = dataclasses.replace(sim.cfg, statement=statement)
        _, result = sim.run_round(next(sign_round))
        return result.signature if result is not None and result.ok else None
    authority = timestamp.TimestampAuthority(sign)
    counts = {"roster": dict(calls)}
    for batch in range(_TABLE_USES + 1):
        calls.clear()
        for i in range(16):
            authority.submit(bytes([batch, i]) * 16)
        _, receipts = authority.round_close(SimConfig.start_time + 10 * batch)
        assert len({receipt.to_bytes() for receipt in receipts.values()}) == 16
        counts[f"batch {batch}"] = dict(calls)
    walk = {"_comb": 23, "_straus": 5, "_window": 15}
    assert counts == {"roster": {"_comb": 16, "_straus": 18, "_window": 49,
                                 "_fixed_base_rows": 1},
                      "batch 0": {"_comb": 22, "_straus": 6, "_window": 31},
                      "batch 1": {"_comb": 22, "_straus": 6, "_window": 61},
                      **{f"batch {batch}": {"_comb": 22, "_straus": 6, "_window": 16}
                         for batch in range(2, 17)},
                      "batch 17": {**walk, "_fixed_base_rows": 1},
                      "batch 18": walk}


_PROD_13 = dict(n=13, branching=3, scheme="cosi", group_name="prod")


@pytest.mark.parametrize("cfg, msgs, sent_bytes, root_bytes, latency, rejected", [
    # 4 and 6 are leaves under 1
    pytest.param(SimConfig(seed=31, mode=MODE_NO_RESTART, failures=_liars(4, 6), **_PROD_13),
                 48, 7064, 2474, 0.80085, [(1, 4), (1, 6)], id="no-restart-two-liars-one-parent"),
    # 1 lies and 0 bridges to its children 4, 5 and 6, of which 5 lies too
    pytest.param(SimConfig(seed=32, mode=MODE_NO_RESTART, failures=_liars(1, 5), **_PROD_13),
                 54, 7879, 3289, 1.00095, [(0, 1), (0, 5), (1, 5)],
                 id="no-restart-interior-liar-bridged-liar"),
    pytest.param(SimConfig(seed=33, failures=_liars(7), **_PROD_13),
                 92, 6446, 1688, 1.60145, [(2, 7)], id="restart-leaf-liar"),
    # 4 and 6 answer 1, 5 never does: 1's response timer fires
    pytest.param(SimConfig(seed=34, mode=MODE_NO_RESTART,
                           failures=_liars(6) + (FailureAction(5, "response", "crash"),),
                           **_PROD_13),
                 47, 7005, 2474, 2.20035, [(1, 6)], id="response-timer-after-partials"),
])
def test_prod_liar_rounds_pinned(caplog, cfg, msgs, sent_bytes, root_bytes, latency,
                                 rejected):
    """Message and byte counts, latency, and which node rejected whose
    partial response, over prod rounds with lying witnesses."""
    caplog.set_level("WARNING", logger="cosikit.engine")
    m = run_sim(cfg)[0]
    assert m.outcome == "ok"
    assert (m.total_msgs, m.total_bytes_sent, m.root_bytes) == (msgs, sent_bytes, root_bytes)
    assert m.latency == pytest.approx(latency, abs=1e-6)
    assert sorted(r.args for r in caplog.records
                  if "invalid partial response" in str(r.msg)) == rejected


@pytest.mark.parametrize("bound", [None, 2])
def test_subtree_key_memo_stays_bounded(monkeypatch, bound):
    """Over 20 prod no-restart rounds with an interior and a leaf liar, each
    node remembers at most the memo's bound of present keys, at the shipped
    bound and at one below a node's child count, and every round names the
    liars."""
    if bound is not None:
        monkeypatch.setattr(engine, "SUBTREE_KEY_MEMO", bound)
    sim = simnet.CosiSim(SimConfig(
        seed=4, n=13, branching=3, group_name="prod", mode=MODE_NO_RESTART,
        failures=(FailureAction(1, "response", "lie"), FailureAction(7, "response", "lie"))))
    sizes = []
    for r in range(20):
        _, result = sim.run_round(r)
        assert result.ok
        assert sorted(e.index for e in result.signature.exceptions) == [1, 7]
        sizes.append([len(node.subtree_keys) for node in sim.nodes])
        assert max(sizes[-1]) <= engine.SUBTREE_KEY_MEMO
    # Every round checks the same subtrees. The root checks its three
    # children and, past liar 1, the three it bridges to.
    assert sizes[-1] == sizes[0]
    assert sizes[0][0] == min(6, engine.SUBTREE_KEY_MEMO)


@pytest.mark.parametrize("mode", [multisig.MODE_RESTART, MODE_NO_RESTART])
def test_one_more_round_retains_little_per_node(mode):
    """What a node keeps of a round it took part in, read under tracemalloc as
    the growth of traced memory over one more toy round at N=256, branching
    16, once the tree is cached and before `ROUND_STATES_KEPT` drops any
    round. The bounds were set about a fifth above the 680 bytes per node
    (restart) and 833 (no-restart) that Python 3.11 to 3.13 read, which
    Python 3.10 read as 741 and 874; since a head lists no contributors,
    Python 3.11 reads 613 and 690, and since a restart head holds no commit
    and no tree hash, 508 and 689."""
    n = 256
    sim = simnet.CosiSim(SimConfig(seed=1, n=n, branching=16, mode=mode))
    tracemalloc.start()
    try:
        for r in range(2):
            sim.run_round(r)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        _, result = sim.run_round(2)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.ok and all(len(node.rounds) == 3 for node in sim.nodes)
    bound = {multisig.MODE_RESTART: 820, MODE_NO_RESTART: 1000}[mode]
    assert retained <= bound * n, f"{retained / n:.0f} bytes per node"


@pytest.mark.parametrize("mode", [multisig.MODE_RESTART, MODE_NO_RESTART])
def test_node_and_simulator_state_stop_growing(mode):
    """A long-lived simulation holds bounded state: after warm-up, the summed
    sizes of every node's containers and the simulator's event queue stay
    where they are, with a liar and view change on."""
    sim = simnet.CosiSim(SimConfig(seed=1, n=16, branching=3, mode=mode, view_change=True,
                                   failures=_liars(5)))
    sizes = {}
    for r in range(250):
        _, result = sim.run_round(r)
        assert result.ok and 5 in result.failed
        if r + 1 in (50, 250):
            sizes[r + 1] = [sum(len(getattr(node, name)) for node in sim.nodes)
                            for name in ("rounds", "nonce_log", "subtree_keys", "view_votes")]
            sizes[r + 1].append(len(sim.net.heap))
    assert sizes[50] == sizes[250]
    assert sizes[50][:2] == [16 * engine.ROUND_STATES_KEPT] * 2
