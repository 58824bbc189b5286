#!/usr/bin/env python3
"""Differential check: run the same seeded cases against this tree and a git
revision, and report the first case whose results differ and every field that
differs in any case.

    python scripts/diffcheck.py --base HEAD~1 --cases 1000

The revision is checked out with `git worktree add` into a temporary
directory, which is removed afterwards. Each tree runs the cases in its own
Python subprocess, with that tree's `src` first on its path, and writes one
canonical JSON line per case; the two streams are compared line by line.

Its one suite, `sim`, draws a random simulator configuration from each
case's seed: N 1-200, branching 1-5, either mode and statement
timing, view change on or off, up to three crash, omit or lie failures,
0-3 restarts and 1-4 rounds, in the toy group. About one case in four has
its witnesses validate statements by one of the `REFUSING` policies,
under which they refuse the simulator's statements. Compared per round: outcome, latency, view, each node's
messages, bytes and compute units, the signature's bytes, the attempts, the
reason, and the failed and refused sets. A case that raises is compared by
its exception.

Exits 0 when every case matches. Otherwise it prints the first differing
case's seed, field and configuration, then every field path that differs over
all the cases, list indices collapsed to `[]` (`rounds[].latency`), each with
its count of cases and its first seed, and exits 1. A declared behaviour
change can so list exactly what moved.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

REPO = Path(__file__).resolve().parent.parent
PHASES = ("announce", "commit", "challenge", "response")
BEHAVIORS = ("crash", "omit", "lie")
# validation policies under which witnesses refuse the simulator's statements;
# a constant, so that a seed draws the same case from every revision
REFUSING = ("hash-chain", "timestamp-window")


def draw_sim_case(seed: int) -> dict:
    """The simulator configuration of case `seed`, as plain JSON values."""
    rng = random.Random(seed)
    n = rng.randint(1, 200)
    case = {
        "seed": seed, "n": n, "branching": rng.randint(1, 5),
        "mode": rng.choice(("restart", "norestart")),
        "statement_timing": rng.randint(0, 1),
        "view_change": rng.random() < 0.5,
        "failures": [[rng.randrange(n), rng.choice(PHASES), rng.choice(BEHAVIORS)]
                     for _ in range(rng.randint(0, 3))],
        "max_restarts": rng.randint(0, 3),
        "rounds": rng.randint(1, 4),
    }
    # drawn after the other fields, whose draws so do not depend on it
    case["validation_policy"] = (rng.choice(REFUSING) if rng.random() < 0.25
                                 else "accept-all")
    return case


def run_sim_case(seed: int) -> dict:
    """Case `seed` run against the `cosikit` on the path: its configuration
    and, per round, what the comparison reads."""
    from cosikit import multisig, simnet

    case = draw_sim_case(seed)
    cfg = simnet.SimConfig(
        seed=seed, n=case["n"], branching=case["branching"],
        mode=multisig.MODE_NAMES[case["mode"]], statement_timing=case["statement_timing"],
        view_change=case["view_change"], max_restarts=case["max_restarts"],
        rounds=case["rounds"], validation_policy=case["validation_policy"],
        failures=tuple(simnet.FailureAction(*f) for f in case["failures"]))
    try:
        out = simnet.run_sim_detailed(cfg)
    except Exception as exc:  # compared like any other outcome
        return {"case": case, "error": f"{type(exc).__name__}: {exc}"}
    rounds = []
    for metrics, result in zip(out.metrics, out.results):
        row = {"outcome": metrics.outcome, "latency": repr(metrics.latency),
               "view": metrics.view,
               "nodes": [{"msgs_sent": m.msgs_sent, "msgs_recv": m.msgs_recv,
                          "bytes_sent": m.bytes_sent, "bytes_recv": m.bytes_recv,
                          "compute_units": m.compute_units} for m in metrics.nodes]}
        if result is not None:
            row.update(
                signature=result.signature.to_bytes().hex() if result.signature else None,
                attempts=result.attempts, reason=result.reason,
                failed=sorted(result.failed), refused=sorted(result.refused))
        rounds.append(row)
    return {"case": case, "rounds": rounds}


def emit(src: str, cases: int, first_seed: int) -> None:
    """Write one JSON line per case, run against the `cosikit` in `src`."""
    sys.path.insert(0, src)
    logging.getLogger("cosikit").setLevel(logging.CRITICAL)
    for seed in range(first_seed, first_seed + cases):
        print(json.dumps(run_sim_case(seed), sort_keys=True, separators=(",", ":")),
              flush=True)


def differences(base, here, path: str = ""):
    """Yield (path, what differs) for each field where `base` and `here`
    differ, in order."""
    if isinstance(base, dict) and isinstance(here, dict):
        for key in sorted(base.keys() | here.keys()):
            if key not in base or key not in here:
                yield (f"{path}.{key}".lstrip("."),
                       f"present only in {'here' if key in here else 'base'}")
            else:
                yield from differences(base[key], here[key], f"{path}.{key}")
    elif isinstance(base, list) and isinstance(here, list) and len(base) == len(here):
        for i, (a, b) in enumerate(zip(base, here)):
            yield from differences(a, b, f"{path}[{i}]")
    elif base != here:
        yield path.lstrip("."), f"base {base!r}, here {here!r}"


def _lines(src: Path, cases: int, first_seed: int) -> tuple:
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(src),
         "--cases", str(cases), "--first-seed", str(first_seed)],
        stdout=subprocess.PIPE, text=True)
    return proc, iter(proc.stdout.readline, "")


def compare(base_src: Path, here_src: Path, cases: int = 1000,
            first_seed: int = 1) -> tuple[int, Optional[str]]:
    """Run the cases against both trees' `src`, side by side. Returns the
    number of cases compared and, if any differ, a report (None if every case
    matched): the first differing case's seed, field and configuration, then
    each differing field path with its count of cases and its first seed."""
    base_proc, base_lines = _lines(base_src, cases, first_seed)
    here_proc, here_lines = _lines(here_src, cases, first_seed)
    compared, differing, report = 0, 0, []
    paths: dict[str, list[int]] = {}  # collapsed path -> [cases, first seed]
    try:
        for seed in range(first_seed, first_seed + cases):
            base_line, here_line = next(base_lines, ""), next(here_lines, "")
            if not base_line or not here_line:
                report.append(f"seed {seed}: a tree stopped without writing its case")
                break
            compared += 1
            if base_line == here_line:
                continue
            base, here = json.loads(base_line), json.loads(here_line)
            found = list(differences(base, here)) or [
                ("(layout)", "the lines differ only in layout")]
            if not differing:
                path, what = found[0]
                report += [f"seed {seed}: {path}: {what}",
                           f"  case: {json.dumps(base['case'])}"]
            differing += 1
            for path in dict.fromkeys(re.sub(r"\[\d+\]", "[]", p) for p, _ in found):
                paths.setdefault(path, [0, seed])[0] += 1
    finally:
        for proc in (base_proc, here_proc):
            proc.kill()
            proc.wait()
            proc.stdout.close()
    if differing:
        report.append(f"fields that differ, in {differing} of {compared} cases:")
        report += [f"  {path}: {count} cases, first seed {first}"
                   for path, (count, first) in sorted(paths.items())]
    return compared, "\n".join(report) or None


def _git(*args: str) -> None:
    subprocess.run(["git", "-C", str(REPO), *args], check=True, stdout=subprocess.DEVNULL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", help="git revision to compare this tree with")
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first case; a reported seed reruns alone "
                             "with --first-seed SEED --cases 1")
    parser.add_argument("--emit", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit, args.cases, args.first_seed)
        return 0
    if not args.base:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="diffcheck-") as tmp:
        tree = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(tree), args.base)
        try:
            compared, report = compare(tree / "src", REPO / "src", args.cases,
                                       args.first_seed)
        finally:
            _git("worktree", "remove", "--force", str(tree))
    if report:
        print(f"sim: differs from {args.base} over {compared} cases\n{report}")
        return 1
    print(f"sim: {compared} cases (seeds {args.first_seed}-"
          f"{args.first_seed + compared - 1}) match {args.base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
