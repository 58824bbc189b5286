import hashlib
import io
import json
import logging
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import make_toy_roster, manual_round

import cosikit
from cosikit import cli
from cosikit.cli import NodeRuntime, main
from cosikit.engine import (
    REFUSE_STALE, STATEMENT_AT_ANNOUNCE, STATEMENT_AT_CHALLENGE, Refuse, RoundConfig,
    SigningNode, StampReply, StampRequest, decode_frame_body, encode_message,
)
from cosikit.group import ED25519, TOY, KeyPair, keygen, prove_possession
from cosikit.multisig import MODE_NO_RESTART
from cosikit.participation import Threshold, predicate_to_json
from cosikit.roster import RosterEntry, build_roster, load_roster
from cosikit.timestamp import StampReceipt, TimestampAuthority


def free_ports(n: int) -> list[int]:
    """n loopback ports that were free: every socket stays bound until all n
    are drawn, so no port comes out twice."""
    socks = [socket.socket() for _ in range(n)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def test_keygen_and_roster_init(tmp_path, capsys):
    keyfiles = []
    for i in range(3):
        path = tmp_path / f"k{i}.json"
        assert main(["keygen", "--group", "toy", "--seed", str(100 + i),
                     "--out", str(path)]) == 0
        keyfiles.append(str(path))
    roster_path = tmp_path / "roster.json"
    rc = main(["roster-init", "--keys", *keyfiles, "--leader", "0",
               "--endpoints", "a:1,b:2,c:3", "--out", str(roster_path)])
    assert rc == 0
    roster = load_roster(str(roster_path))
    assert len(roster) == 3
    assert roster.entries[1].endpoint == "b:2"


def test_keygen_deterministic_with_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["keygen", "--group", "toy", "--seed", "7", "--out", str(a)])
    main(["keygen", "--group", "toy", "--seed", "7", "--out", str(b)])
    assert json.loads(a.read_text())["public-hex"] == json.loads(b.read_text())["public-hex"]


def test_keyfile_with_zero_secret_rejected(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["keygen", "--group", "prod", "--seed", "3", "--out", str(good)]) == 0
    obj = json.loads(good.read_text())
    assert cli.load_keyfile(str(good))[2].public.encode().hex() == obj["public-hex"]
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(dict(obj, **{"secret-hex": "00" * 32})))
    with pytest.raises(ValueError, match="nonzero"):
        cli.load_keyfile(str(zero))
    capsys.readouterr()
    rc = main(["roster-init", "--keys", str(zero), "--leader", "0",
               "--out", str(tmp_path / "roster.json")])
    assert rc == cli.EXIT_PROTOCOL
    assert "secret key must be nonzero" in capsys.readouterr().err
    assert not (tmp_path / "roster.json").exists()


def test_tree_dump(tmp_path, capsys):
    assert main(["tree-dump", "--n", "7", "--branching", "2"]) == 0
    out = capsys.readouterr().out
    assert "depth 2, 7 members" in out
    assert main(["tree-dump", "--n", "7", "--branching", "2", "--fail", "1"]) == 0
    out = capsys.readouterr().out
    assert "depth 2, 6 members" in out or "depth 1" in out


def test_tree_dump_deep_chain(capsys):
    assert main(["tree-dump", "--n", "5000", "--branching", "1"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("depth 4999, 5000 members\n")
    assert out.splitlines()[4999] == "  " * 4999 + "4999"


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tree-dump"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["bogus-command"])


@pytest.mark.parametrize("command, timing", [("sign", STATEMENT_AT_ANNOUNCE),
                                             ("run-leader", STATEMENT_AT_CHALLENGE)])
def test_round_flags_build_the_round_config(command, timing):
    extra = ["--statement-file", "s", "--out", "o"] if command == "sign" else []
    args = cli.build_parser().parse_args(
        [command, "--roster", "r", "--key", "k", "--mode", "norestart", "--branching", "4",
         "--max-restarts", "1", "--min-participants", "2", "--rtt", "0.1", *extra])
    assert cli._round_config(args, 9, timing) == RoundConfig(
        round_number=9, mode=MODE_NO_RESTART, statement_timing=timing, branching=4,
        max_restarts=1, min_participants=2, rtt_hint=0.1)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--roster", "r", "--key", "k",
                                       "--mode", "sometimes", *extra])


def test_log_records_reach_the_current_stderr(monkeypatch, capsys):
    first = io.StringIO()
    with monkeypatch.context() as m:
        m.setattr(sys, "stderr", first)
        assert main(["tree-dump", "--n", "3", "--branching", "2"]) == 0
    first.close()  # as a test's capture is closed when that test ends
    capsys.readouterr()
    logging.getLogger("cosikit.cli").warning("after the first capture closed")
    err = capsys.readouterr().err
    assert "after the first capture closed" in err
    assert "Logging error" not in err


def test_simulate_deterministic(tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "defaults": {"seed": 3, "group": "toy"},
        "entries": [
            {"scheme": "cosi", "n": 8, "branching": 2, "rounds": 2},
            {"scheme": "naive", "n": 8},
        ],
    }))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--sweep", str(sweep), "--out", str(out1)]) == 0
    assert main(["simulate", "--sweep", str(sweep), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "scheme,N,B,round,latency_ms,root_msgs,root_bytes,root_compute"
    assert len(lines) == 1 + 3


def test_simulate_seed_overrides_every_entry(tmp_path, monkeypatch):
    """`--seed` reaches every entry, over a default and an entry's own seed,
    and leaves the rest of each entry as the sweep wrote it."""
    entries = [{"scheme": "cosi", "n": 8, "branching": 2, "mode": "norestart",
                "statement": "s", "view_change": True},
               {"scheme": "jvss", "n": 6, "seed": 4}]
    overridden, written = tmp_path / "overridden.json", tmp_path / "written.json"
    overridden.write_text(json.dumps({"defaults": {"seed": 3}, "entries": entries}))
    written.write_text(json.dumps({"entries": [{**e, "seed": 11} for e in entries]}))
    run = []
    run_sim = cli.simnet.run_sim
    monkeypatch.setattr(cli.simnet, "run_sim", lambda cfg: run.append(cfg) or run_sim(cfg))
    out = {}
    for name, sweep, extra in (("overridden", overridden, ["--seed", "11"]),
                               ("written", written, [])):
        path = tmp_path / f"{name}.csv"
        assert main(["simulate", "--sweep", str(sweep), "--out", str(path), *extra]) == 0
        out[name] = path.read_bytes()
    assert run[:2] == run[2:] == cli.simnet.load_sweep(str(written))
    assert [cfg.seed for cfg in run] == [11] * 4
    assert out["overridden"] == out["written"]


@pytest.mark.parametrize("entry, message", [
    ({"group": "bogus"}, "unknown group 'bogus'"),
    ({"mode": "bogus"}, "unknown mode 'bogus'"),
    ({"validation_policy": "bogus"}, "unknown validation policy 'bogus'"),
    ({"rtt": 0.2}, "unknown sweep keys: rtt"),
    ({"mode": ["restart"]}, "sweep key mode must be of type str, not ['restart']"),
    ({"n": "4"}, "sweep key n must be of type int, not '4'"),
    ({"n": 4.5}, "sweep key n must be of type int, not 4.5"),
    ({"view_change": "yes"}, "sweep key view_change must be of type bool, not 'yes'"),
])
def test_simulate_rejects_a_bad_sweep_entry(tmp_path, capsys, entry, message):
    """A bad sweep entry is named on an `error:` line with exit code 3, not
    raised, which would exit 1, the code for a failed verification."""
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"entries": [{"scheme": "naive", "n": 4, **entry}]}))
    assert main(["simulate", "--sweep", str(sweep)]) == cli.EXIT_PROTOCOL
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.fixture
def cli_process(tmp_path):
    """Starts `python -m cosikit.cli <args>` as a child process and waits
    until it listens on `addr`; every child is stopped at teardown."""
    procs = []
    env = dict(os.environ, PYTHONPATH=str(Path(cosikit.__file__).parent.parent))

    def start(args, addr):
        log = tmp_path / f"{args[0]}-{len(procs)}.log"
        with open(log, "wb") as out:
            proc = subprocess.Popen([sys.executable, "-m", "cosikit.cli", *args],
                                    env=env, stdout=out, stderr=subprocess.STDOUT)
        procs.append(proc)
        deadline = time.monotonic() + 30
        while proc.poll() is None and time.monotonic() < deadline:
            try:
                socket.create_connection(addr, timeout=1).close()
                return proc
            except OSError:
                time.sleep(0.05)
        pytest.fail(f"{args[0]} did not start listening:\n{log.read_text()}")

    yield start
    for proc in procs:
        proc.terminate()
        proc.wait(timeout=10)


@pytest.fixture
def deployment(tmp_path, cli_process):
    """Key files, roster with loopback endpoints, witness runtimes running;
    yields the roster path, the key files and the roster.

    Runs in the production group: the negative checks below rely on a
    challenge mismatch, which the toy group's 11-element challenge space
    would fail to deliver about one run in eleven.
    """
    n = 3
    rng = random.Random(55)
    ports = free_ports(n)
    keypairs = [keygen(ED25519, rng) for _ in range(n)]
    keyfiles = []
    for i, kp in enumerate(keypairs):
        ssk = prove_possession(kp, rng)
        path = tmp_path / f"key{i}.json"
        cli.save_keyfile(str(path), "prod", kp, ssk, witness_id=bytes([i]))
        keyfiles.append(path)
    entries = [
        RosterEntry(witness_id=bytes([i]), key=prove_possession(keypairs[i], rng),
                    endpoint=f"127.0.0.1:{ports[i]}")
        for i in range(n)
    ]
    roster = build_roster(entries, 0)
    roster_path = tmp_path / "roster.json"
    from cosikit.roster import save_roster
    save_roster(roster, str(roster_path))

    served = []
    for i in range(1, n - 1):
        node = SigningNode(i, roster, keypairs[i], random.Random(70 + i))
        rt = NodeRuntime(node, roster, f"127.0.0.1:{ports[i]}")
        rt.start_server()
        thread = threading.Thread(target=rt.serve_forever, daemon=True)
        thread.start()
        served.append((rt, thread))
    # the last witness runs through the actual CLI entry point
    cli_process(["run-witness", "--roster", str(roster_path),
                 "--key", str(keyfiles[n - 1])], ("127.0.0.1", ports[n - 1]))
    yield roster_path, keyfiles, roster
    for rt, thread in served:
        rt.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()


# The round-trip hint of the loopback rounds that must sign with every
# witness. A leader waits 4 * rtt per tree level for each phase, so 8 s here.
# On a shared virtual machine a process can stall for tenths of a second (a
# 7 ms response handler has taken 118 ms, a frame 163 ms to be read, and the
# test process, which hosts witness 1, has paused 0.42 s in a collection),
# which the 0.4 s phases of a 0.05 s hint did not always absorb; a witness
# then missed the round and the signature had 2 of 3 present. A round whose
# witnesses all answer still ends when the last response arrives.
LIVE_ROUND_RTT = "1.0"


def test_sign_and_verify_over_loopback(tmp_path, capsys, deployment):
    roster_path, keyfiles, _ = deployment
    statement = tmp_path / "statement.bin"
    statement.write_bytes(b"loopback integration statement")
    sig_path = tmp_path / "out.sig"
    rc = main(["sign", "--roster", str(roster_path), "--key", str(keyfiles[0]),
               "--statement-file", str(statement), "--out", str(sig_path),
               "--rtt", LIVE_ROUND_RTT, "--timeout", "30", "--round", "0"])
    assert rc == 0
    assert main(["verify", "--roster", str(roster_path),
                 "--statement-file", str(statement), "--sig", str(sig_path),
                 "--threshold", "3"]) == 0
    out = capsys.readouterr().out
    assert "present 3/3" in out

    # a stricter predicate than the participation supports exits 1
    assert main(["verify", "--roster", str(roster_path),
                 "--statement-file", str(statement), "--sig", str(sig_path),
                 "--threshold", "4"]) == 1
    out = capsys.readouterr().out
    assert "REJECT" in out and "predicate" in out

    # verification against the wrong statement exits 1 with a crypto reason
    wrong = tmp_path / "wrong.bin"
    wrong.write_bytes(b"some other statement")
    assert main(["verify", "--roster", str(roster_path),
                 "--statement-file", str(wrong), "--sig", str(sig_path),
                 "--threshold", "3"]) == 1


def test_sign_with_unreachable_witnesses_exits_protocol_failure(tmp_path):
    rng = random.Random(66)
    ports = free_ports(3)
    keypairs = [keygen(ED25519, rng) for _ in range(3)]
    keyfile = tmp_path / "leader.key"
    cli.save_keyfile(str(keyfile), "prod", keypairs[0],
                     prove_possession(keypairs[0], rng), witness_id=b"\x00")
    entries = [RosterEntry(witness_id=bytes([i]), key=prove_possession(keypairs[i], rng),
                           endpoint=f"127.0.0.1:{ports[i]}")
               for i in range(3)]
    roster = build_roster(entries, 0)
    from cosikit.roster import save_roster
    roster_path = tmp_path / "roster.json"
    save_roster(roster, str(roster_path))
    statement = tmp_path / "s.bin"
    statement.write_bytes(b"nobody home")
    # nobody listens on the witness ports: timeouts, restarts, then exit 3
    rc = main(["sign", "--roster", str(roster_path), "--key", str(keyfile),
               "--statement-file", str(statement), "--out", str(tmp_path / "x.sig"),
               "--rtt", "0.05", "--timeout", "20", "--max-restarts", "1",
               "--min-participants", "3"])
    assert rc == 3


def test_engine_refusal_exits_protocol_failure(tmp_path, capsys, monkeypatch):
    class MovedOn(SigningNode):
        """A leader whose view has moved on: view 1 is led by witness 1."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.current_view = 1

    monkeypatch.setattr(cli, "SigningNode", MovedOn)
    rng = random.Random(67)
    keypairs = [KeyPair.from_secret(TOY, x) for x in (3, 4, 5)]
    keyfile = tmp_path / "leader.key"
    cli.save_keyfile(str(keyfile), "toy", keypairs[0],
                     prove_possession(keypairs[0], rng), witness_id=b"\x00")
    entries = [RosterEntry(witness_id=bytes([i]), key=prove_possession(kp, rng),
                           endpoint=f"127.0.0.1:{port}")
               for i, (kp, port) in enumerate(zip(keypairs, free_ports(3)))]
    from cosikit.roster import save_roster
    roster_path = tmp_path / "roster.json"
    save_roster(build_roster(entries, 0), str(roster_path))
    statement = tmp_path / "s.bin"
    statement.write_bytes(b"too late")
    rc = main(["sign", "--roster", str(roster_path), "--key", str(keyfile),
               "--statement-file", str(statement), "--out", str(tmp_path / "x.sig")])
    assert rc == cli.EXIT_PROTOCOL
    err = capsys.readouterr().err
    assert "error: node 0 does not lead view 1" in err
    assert "Traceback" not in err


def test_dial_failures_counted_per_peer(caplog):
    rng = random.Random(77)
    keypairs = [KeyPair.from_secret(TOY, x) for x in (3, 4)]
    [closed] = free_ports(1)  # bound and released: nothing listens there
    entries = [RosterEntry(witness_id=bytes([i]), key=prove_possession(kp, rng),
                           endpoint=f"127.0.0.1:{closed}")
               for i, kp in enumerate(keypairs)]
    roster = build_roster(entries, 0)
    rt = NodeRuntime(SigningNode(0, roster, keypairs[0], rng), roster, "127.0.0.1:0")
    assert rt.dial_failures == {}
    rt.loop.run_until_complete(
        rt._dial(1, Refuse(view=0, round=0, attempt=0, sender=0, reason=REFUSE_STALE)))
    rt.shutdown()
    assert rt.dial_failures == {1: 1}
    assert "dial to witness 1" in caplog.text


@pytest.fixture
def toy_loopback():
    """Spins up n toy-group runtimes on free loopback ports: every runtime
    listens, and witnesses 1..n-1 serve on their own threads."""
    spun = []

    def spin(n):
        rng = random.Random(88)
        keypairs = [keygen(TOY, rng) for _ in range(n)]
        ports = free_ports(n)
        roster = build_roster([RosterEntry(witness_id=bytes([i]),
                                           key=prove_possession(kp, rng),
                                           endpoint=f"127.0.0.1:{ports[i]}")
                               for i, kp in enumerate(keypairs)], 0)
        runtimes = [NodeRuntime(SigningNode(i, roster, keypairs[i], random.Random(90 + i)),
                                roster, f"127.0.0.1:{ports[i]}")
                    for i in range(n)]
        threads = [threading.Thread(target=rt.serve_forever, daemon=True)
                   for rt in runtimes[1:]]
        spun.append((runtimes, threads))
        for rt in runtimes:
            rt.start_server()
        for thread in threads:
            thread.start()
        return runtimes

    yield spin
    for runtimes, threads in spun:
        for rt in runtimes:
            rt.shutdown()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert all(rt.loop.is_closed() for rt in runtimes)


def _loopback_round(leader, n):
    result = leader.run_leader_round(RoundConfig(round_number=1, rtt_hint=0.5),
                                     b"loopback round", timeout=30)
    assert result is not None and result.ok
    assert len(result.signature.participation.response_present) == n


def test_loopback_round_starts_no_threads(toy_loopback, monkeypatch):
    runtimes = toy_loopback(16)
    starts = []
    real_start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        real_start(thread)

    with monkeypatch.context() as m:
        m.setattr(threading.Thread, "start", counting_start)
        _loopback_round(runtimes[0], 16)
    assert starts == []
    assert [rt.dial_failures for rt in runtimes] == [{}] * 16


def test_dropped_connections_logged_with_cause(toy_loopback, caplog):
    leader = toy_loopback(4)[0]
    inputs = [
        ((0).to_bytes(4, "big"), "bad frame length 0"),
        ((64 * 1024 * 1024 + 1).to_bytes(4, "big"), "bad frame length 67108865"),
        ((100).to_bytes(4, "big") + bytes(10), "truncated frame"),
        ((3).to_bytes(4, "big") + b"\xee\x00\x00", "unknown message tag 238"),
        (b"", None),  # a clean EOF before any frame is not a fault
    ]
    causes = {}
    for data, cause in inputs:
        with socket.create_connection(leader.listen_addr) as sock:
            sock.sendall(data)
            causes[sock.getsockname()[1]] = cause

    def dropped():
        return [r for r in caplog.records if "dropped connection" in r.getMessage()]

    deadline = time.monotonic() + 10
    while len(dropped()) < 4 and time.monotonic() < deadline:
        leader.drain(0.1)
    leader.drain(0.2)
    assert len(dropped()) == 4
    for record in dropped():
        assert record.levelname == "WARNING"
        port = record.args[0][1]
        assert causes.pop(port) in record.getMessage()
    assert list(causes.values()) == [None]
    _loopback_round(leader, 4)


def test_stamp_reply_to_a_witness_dropped(toy_loopback, caplog):
    """A frame the engine has no handler for is dropped with a warning naming
    it, not raised out of the connection's task, and rounds go on."""
    runtimes = toy_loopback(2)
    with socket.create_connection(runtimes[1].listen_addr, timeout=1) as sock:
        sock.sendall(encode_message(StampReply(ok=True, payload=b"receipt"), TOY))
    deadline = time.monotonic() + 10
    while "dropping StampReply" not in caplog.text and time.monotonic() < deadline:
        time.sleep(0.05)
    assert "dropping StampReply" in caplog.text
    _loopback_round(runtimes[0], 2)
    assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


def test_witness_refuses_stamp_requests_at_once(toy_loopback):
    """A runtime that serves no timestamps answers a stamp request with
    StampReply(ok=False) rather than holding the client's connection."""
    witness = toy_loopback(2)[1]
    started = time.monotonic()
    with socket.create_connection(witness.listen_addr, timeout=1) as sock:
        sock.sendall(encode_message(StampRequest(digest=b"\x01" * 32), TOY))
        frame = cli.read_frame(sock)
    assert time.monotonic() - started < 1
    assert decode_frame_body(frame, TOY, 2) == StampReply(ok=False, payload=b"")
    assert witness.stamps is None and witness._stamp_conns == {}


def test_predicate_file(tmp_path, capsys):
    roster = make_toy_roster([3, 4, 5])
    sig = manual_round(roster, [3, 4, 5], b"pred")
    from cosikit.roster import save_roster
    roster_path = tmp_path / "r.json"
    save_roster(roster, str(roster_path))
    stmt = tmp_path / "s.bin"
    stmt.write_bytes(b"pred")
    sig_path = tmp_path / "s.sig"
    sig_path.write_bytes(sig.to_bytes())
    pred_path = tmp_path / "p.json"
    pred_path.write_text(json.dumps(predicate_to_json(Threshold(2))))
    assert main(["verify", "--roster", str(roster_path), "--statement-file",
                 str(stmt), "--sig", str(sig_path), "--predicate", str(pred_path)]) == 0


def test_stamp_verify_command(tmp_path, capsys):
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    authority = TimestampAuthority(
        lambda stmt: manual_round(roster, secrets, stmt, rng=random.Random(31)))
    digest = hashlib.sha256(b"the document").digest()
    authority.submit(digest)
    _, receipts = authority.round_close(clock=900.0)
    from cosikit.roster import save_roster
    roster_path = tmp_path / "r.json"
    save_roster(roster, str(roster_path))
    receipt_path = tmp_path / "doc.tsr"
    receipt_path.write_bytes(receipts[digest].to_bytes())
    rc = main(["stamp-verify", "--roster", str(roster_path),
               "--receipt", str(receipt_path), "--hash", digest.hex(),
               "--threshold", "2"])
    assert rc == 0
    assert "round 1" in capsys.readouterr().out
    rc = main(["stamp-verify", "--roster", str(roster_path),
               "--receipt", str(receipt_path),
               "--hash", hashlib.sha256(b"oops").digest().hex(),
               "--threshold", "2"])
    assert rc == 1


def test_run_leader_timestamp_service_end_to_end(tmp_path, deployment, cli_process):
    """Full service loop: run-leader batches a stamp request into a cosigned
    round and the client's receipt verifies."""
    roster_path, keyfiles, roster = deployment
    leader_endpoint = roster.entries[0].endpoint
    cli_process(["run-leader", "--roster", str(roster_path), "--key", str(keyfiles[0]),
                 "--period", "1.0", "--rtt", LIVE_ROUND_RTT, "--timeout", "20"],
                cli._parse_addr(leader_endpoint))
    doc = tmp_path / "serviced.txt"
    doc.write_bytes(b"service me")
    out = tmp_path / "serviced.tsr"
    rc = main(["stamp", "--roster", str(roster_path),
               "--connect", leader_endpoint, "--file", str(doc),
               "--out", str(out), "--timeout", "30"])
    assert rc == 0
    digest = hashlib.sha256(b"service me").digest()
    assert main(["stamp-verify", "--roster", str(roster_path),
                 "--receipt", str(out), "--hash", digest.hex(),
                 "--threshold", "3"]) == 0


def start_unsignable_leader(tmp_path, cli_process):
    """Starts `run-leader` with a 0.3 s period on a three-witness toy roster
    whose witnesses never run, asking four participants of it; returns the
    leader's address, the roster file and the leader's log."""
    rng = random.Random(68)
    keypairs = [KeyPair.from_secret(TOY, x) for x in (3, 4, 5)]
    keyfile = tmp_path / "leader.key"
    cli.save_keyfile(str(keyfile), "toy", keypairs[0],
                     prove_possession(keypairs[0], rng), witness_id=b"\x00")
    entries = [RosterEntry(witness_id=bytes([i]), key=prove_possession(kp, rng),
                           endpoint=f"127.0.0.1:{port}")
               for i, (kp, port) in enumerate(zip(keypairs, free_ports(3)))]
    roster = build_roster(entries, 0)
    from cosikit.roster import save_roster
    roster_path = tmp_path / "roster.json"
    save_roster(roster, str(roster_path))
    leader = cli._parse_addr(entries[0].endpoint)
    cli_process(["run-leader", "--roster", str(roster_path), "--key", str(keyfile),
                 "--period", "0.3", "--min-participants", "4"], leader)
    return leader, roster_path, tmp_path / "run-leader-0.log"


def test_run_leader_logs_why_a_round_failed(tmp_path, cli_process):
    leader, _, log = start_unsignable_leader(tmp_path, cli_process)
    with socket.create_connection(leader, timeout=5) as sock:
        sock.sendall(encode_message(StampRequest(digest=b"\x01" * 32), TOY))
        deadline = time.monotonic() + 20
        while "round failed" not in log.read_text() and time.monotonic() < deadline:
            time.sleep(0.05)
    line = next(x for x in log.read_text().splitlines() if "round failed" in x)
    assert "WARNING round failed: signing failed for round " in line
    assert line.endswith(": below minimum participation before start")


def test_run_leader_rejects_the_clients_of_a_failed_round(tmp_path, cli_process, capsys):
    """A round that cannot sign answers its waiting client with
    StampReply(ok=False) long before the client's own 30 s timeout, and its
    batch is dropped, not retried every period."""
    leader, roster_path, log = start_unsignable_leader(tmp_path, cli_process)
    started = time.monotonic()
    rc = main(["stamp", "--roster", str(roster_path), "--connect", "%s:%d" % leader,
               "--hash", "01" * 32, "--out", str(tmp_path / "never.tsr"), "--timeout", "30"])
    assert rc == cli.EXIT_PROTOCOL
    assert time.monotonic() - started < 10
    assert "stamp request rejected" in capsys.readouterr().err
    assert not (tmp_path / "never.tsr").exists()
    time.sleep(1.2)  # four periods
    assert log.read_text().count("round failed") == 1


def test_stamp_request_reply_protocol(tmp_path):
    # a miniature stamp server speaking the framed protocol end to end
    secrets = [3, 4, 5]
    roster = make_toy_roster(secrets)
    authority = TimestampAuthority(
        lambda stmt: manual_round(roster, secrets, stmt, rng=random.Random(41)))
    [port] = free_ports(1)
    from cosikit.engine import StampReply, decode_frame_body, encode_message

    def server():
        srv = socket.socket()
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind(("127.0.0.1", port))
        srv.listen(1)
        conn, _ = srv.accept()
        frame = cli.read_frame(conn)
        msg = decode_frame_body(frame, roster.group, len(roster))
        authority.submit(msg.digest)
        _, receipts = authority.round_close(clock=910.0)
        payload = receipts[msg.digest].to_bytes()
        conn.sendall(encode_message(StampReply(ok=True, payload=payload),
                                    roster.group))
        conn.close()
        srv.close()

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    time.sleep(0.1)
    from cosikit.roster import save_roster
    roster_path = tmp_path / "r.json"
    save_roster(roster, str(roster_path))
    doc = tmp_path / "doc.txt"
    doc.write_bytes(b"stamp me")
    out = tmp_path / "doc.tsr"
    rc = main(["stamp", "--roster", str(roster_path),
               "--connect", f"127.0.0.1:{port}", "--file", str(doc),
               "--out", str(out), "--timeout", "10"])
    assert rc == 0
    thread.join(timeout=5)
    receipt = StampReceipt.from_bytes(out.read_bytes(), len(roster))
    digest = hashlib.sha256(b"stamp me").digest()
    rc = main(["stamp-verify", "--roster", str(roster_path),
               "--receipt", str(out), "--hash", digest.hex(), "--threshold", "2"])
    assert rc == 0
