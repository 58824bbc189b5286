"""`scripts/diffcheck.py`: a tree run against itself shows no difference in
any suite. In the `sim` suite, a copy whose simulator links are slower is
named by its first differing field, and listed by every field that differs,
with its cases per mode; in the `frames` suite, a copy with a looser flag
reader is named by the mutants it accepts, with its cases per message type;
in the `verify` suite, a copy that skips the commit-exception proofs is
named by the mutant signatures it accepts, in no-restart cases only."""

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_diffcheck():
    spec = importlib.util.spec_from_file_location("diffcheck",
                                                  ROOT / "scripts" / "diffcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_working_tree_matches_itself():
    assert load_diffcheck().compare(ROOT / "src", ROOT / "src", cases=40) == (40, None)


def test_copy_with_another_rtt_named_by_field(tmp_path):
    shutil.copytree(ROOT / "src" / "cosikit", tmp_path / "cosikit")
    simnet = tmp_path / "cosikit" / "simnet.py"
    text = simnet.read_text()
    assert text.count("rtt: ClassVar[float] = 0.2") == 1
    simnet.write_text(text.replace("rtt: ClassVar[float] = 0.2", "rtt: ClassVar[float] = 0.3"))
    compared, report = load_diffcheck().compare(ROOT / "src", tmp_path, cases=40)
    assert compared == 40
    lines = report.splitlines()
    first = re.match(r"seed (\d+): rounds\[0\]\.latency: base '", lines[0])
    assert first
    assert lines[1].startswith('  case: {"branching": ')
    assert re.fullmatch(r"fields that differ, in \d+ of 40 cases:", lines[2])
    listed = {line.split(": ")[0].strip(): line for line in lines[3:]}
    latency = re.fullmatch(r"  rounds\[\]\.latency: (\d+) cases \((\d+) restart, (\d+) "
                           r"norestart\), first seed (\d+)", listed["rounds[].latency"])
    assert latency and latency.group(4) == first.group(1)
    count, restart, norestart = (int(latency.group(i)) for i in (1, 2, 3))
    assert count == restart + norestart and restart > 0 and norestart > 0


def test_fields_listed_with_their_cases_per_mode(tmp_path):
    """A copy that charges each no-restart challenge one byte more differs
    only in no-restart cases, and only in their byte counts."""
    shutil.copytree(ROOT / "src" / "cosikit", tmp_path / "cosikit")
    simnet = tmp_path / "cosikit" / "simnet.py"
    text = simnet.read_text()
    charge = "frame_size(msg, self.group), when,"
    assert text.count(charge) == 1
    simnet.write_text(text.replace(charge, "frame_size(msg, self.group)\n"
                                   "                          + (type(msg) is Challenge), when,"))
    diffcheck = load_diffcheck()
    compared, report = diffcheck.compare(ROOT / "src", tmp_path, cases=40)
    assert compared == 40
    listed = dict(re.fullmatch(r"  (\S+): \d+ cases \((.*)\), first seed \d+", line).groups()
                  for line in report.splitlines()[3:])
    norestart = sum(diffcheck.draw_sim_case(seed)["mode"] == "norestart"
                    for seed in range(1, 41))
    assert set(listed) == {"rounds[].nodes[].bytes_sent", "rounds[].nodes[].bytes_recv"}
    for modes in listed.values():
        restart_cases, norestart_cases = re.fullmatch(r"(\d+) restart, (\d+) norestart",
                                                      modes).groups()
        assert restart_cases == "0" and 0 < int(norestart_cases) <= norestart


def test_refusing_policies_are_registered_and_drawn():
    """The script names its refusing policies itself, so a seed draws the same
    case from any revision; each is a registered hook and some case draws it."""
    from cosikit import engine

    diffcheck = load_diffcheck()
    assert set(diffcheck.REFUSING) < set(engine.HOOKS)
    drawn = {diffcheck.draw_sim_case(seed)["validation_policy"] for seed in range(40)}
    assert drawn == set(diffcheck.REFUSING) | {"accept-all"}


def test_a_drawn_hash_chain_case_signs():
    """A `hash-chain` case signs a chained record, which its witnesses accept:
    some drawn case signs a round under the policy."""
    diffcheck = load_diffcheck()
    seeds = [seed for seed in range(1, 200)
             if diffcheck.draw_sim_case(seed)["validation_policy"] == "hash-chain"]
    signed = []
    for seed in seeds[:3]:
        out = diffcheck.run_sim_case(seed)
        assert bytes.fromhex(out["case"]["statement"])[:40] == bytes(7) + b"\x01" + bytes(32)
        signed += [seed for row in out["rounds"] if row["outcome"] == "ok"]
    assert signed


def test_working_tree_frames_match_themselves():
    assert load_diffcheck().compare(ROOT / "src", ROOT / "src", cases=40,
                                    suite="frames") == (40, None)


def test_copy_whose_flag_reader_accepts_2_reported(tmp_path):
    """A copy whose flag reader takes a flag byte of 2 for 0 accepts mutants
    that this tree rejects, and only in frames that carry a flag."""
    shutil.copytree(ROOT / "src" / "cosikit", tmp_path / "cosikit")
    wire = tmp_path / "cosikit" / "wire.py"
    text = wire.read_text()
    assert text.count("if raw[0] > 1:") == 1
    wire.write_text(text.replace("if raw[0] > 1:", "if raw[0] > 2:"))
    compared, report = load_diffcheck().compare(ROOT / "src", tmp_path, cases=40,
                                                suite="frames")
    assert compared == 40
    lines = report.splitlines()
    assert re.match(r"seed \d+: mutants\[\d+\]: base 'DecodeError', here '", lines[0])
    assert lines[1].startswith('  case: {"frame": ')
    assert re.fullmatch(r"fields that differ, in \d+ of 40 cases:", lines[2])
    [listed] = lines[3:]
    kinds = re.fullmatch(r"  mutants\[\]: (\d+) cases \((.*)\), first seed \d+", listed)
    counts = {kind: int(n) for n, kind in (part.split(" ") for part in kinds.group(2).split(", "))}
    assert set(counts) <= {"Announce", "Challenge", "RestartChallenge", "StampReply"}
    assert sum(counts.values()) == int(kinds.group(1)) > 0


# seeds 11-15 draw two no-restart cases whose signatures carry commit
# exceptions (11 and 12) and three restart cases, in about 2 s per tree
VERIFY_SEEDS = {"first_seed": 11, "cases": 5}


def test_working_tree_verdicts_match_themselves():
    assert load_diffcheck().compare(ROOT / "src", ROOT / "src", suite="verify",
                                    **VERIFY_SEEDS) == (5, None)


def test_copy_that_skips_exception_proofs_reported(tmp_path):
    """A copy whose `verify_collective` reads no commit-exception proof
    accepts a signature whose exception proof is mutated, which this tree
    rejects; only no-restart signatures carry exceptions."""
    shutil.copytree(ROOT / "src" / "cosikit", tmp_path / "cosikit")
    multisig = tmp_path / "cosikit" / "multisig.py"
    text = multisig.read_text()
    check = "if not verify_commit_inclusion(sig.commit_root, exc.commit, exc.proof):"
    assert text.count(check) == 1
    multisig.write_text(text.replace(check, "if False:"))
    diffcheck = load_diffcheck()
    compared, report = diffcheck.compare(ROOT / "src", tmp_path, suite="verify",
                                         **VERIFY_SEEDS)
    assert compared == 5
    lines = report.splitlines()
    first = re.match(r"seed (\d+): mutants\[\d+\]\[0\]\[0\]: base False, here True",
                     lines[0])
    assert first and diffcheck.draw_sim_case(int(first.group(1)))["mode"] == "norestart"
    assert lines[1].startswith('  case: {"branching": ')
    assert lines[2] == "fields that differ, in 2 of 5 cases:"
    listed = {line.split(": ")[0].strip() for line in lines[3:]}
    assert "mutants[][][]" in listed and all(p.startswith("mutants[]") for p in listed)
    for line in lines[3:]:
        assert re.fullmatch(r"  \S+: \d+ cases \(0 restart, \d+ norestart\), first seed \d+",
                            line)
