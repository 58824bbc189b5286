#!/usr/bin/env python3
"""Differential check: run the same seeded cases against this tree and a git
revision, and report the first case whose results differ and every field that
differs in any case.

    python scripts/diffcheck.py --base HEAD~1 --cases 1000

The revision is checked out with `git worktree add` into a temporary
directory, which is removed afterwards. Each suite runs the cases in one
Python subprocess per tree, with that tree's `src` first on its path, and
writes one canonical JSON line per case; the two streams are compared line
by line. Every suite runs the same seeds.

The `sim` suite draws a random simulator configuration from each case's
seed: N 1-200, branching 1-5, either mode and statement timing, view change
on or off, up to three crash, omit or lie failures, 0-3 restarts and 1-4
rounds, in the toy group. About one case in four has its witnesses validate
statements by one of the `REFUSING` policies: under `timestamp-window` they
refuse the simulator's statements, and a `hash-chain` case signs a chained
record (sequence 1, a zero head, then a payload) in every round, which they
accept, and accept again when it is presented again. Compared per round:
outcome, latency, view, each node's messages, bytes and compute units, the
signature's bytes, the attempts, the reason, and the failed and refused
sets. A case that raises is
compared by its exception.

The `frames` suite draws one toy-group message of a random type from each
case's seed and encodes it. Every byte of the frame's tag and body is then
set to each of `SMALL_BYTES` and to each of its one-bit flips, and each
mutated frame is decoded against a roster of `FRAME_WITNESSES`. Compared: the
frame, and each mutant's verdict: the exception's class name, `same` if what
was decoded re-encodes to the mutated bytes, or else the re-encoded hex. The
codec is `cosikit.wire`'s, or `cosikit.engine`'s in a revision that predates
`wire`.

The `verify` suite runs each case's simulator configuration as the `sim`
suite draws it (every roster has unit weights) and takes its first signed
round; a case with no signed round is compared by that absence. The
signature's bytes are mutated as a frame's are, and each mutant is decoded
and verified against the roster and against its compact anchor
(`compact_certificate`) with key proofs for the mutant's absent set, under a
weighted threshold of the signed round's present witnesses, which reads each
anchor's weights. Compared: the signature, and each mutant's verdict: the
exception's class name if it does not decode, else per anchor the
exception's class name or `(ok, crypto_ok, predicate_ok, reason)`.

Exits 0 when every case of every suite matches. Otherwise it prints, per
suite, the first differing case's seed, field and case, then every field path
that differs over all the cases, list indices collapsed to `[]`
(`rounds[].latency`), each with its count of cases, how many of those had
each mode (`sim`, `verify`) or message type (`frames`), and its first seed,
and exits 1. A declared behaviour change can so list exactly what moved, and
where.
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
MODES = ("restart", "norestart")
PHASES = ("announce", "commit", "challenge", "response")
BEHAVIORS = ("crash", "omit", "lie")
# validation policies under which witnesses can refuse a statement; a
# constant, so that a seed draws the same case from every revision
REFUSING = ("hash-chain", "timestamp-window")
# the values each frame byte is set to, besides its one-bit flips
SMALL_BYTES = (0, 1, 2, 3, 255)
FRAME_WITNESSES = 16  # the roster size that frames are drawn for and decoded against


def draw_sim_case(seed: int) -> dict:
    """The simulator configuration of case `seed`, as plain JSON values."""
    rng = random.Random(seed)
    n = rng.randint(1, 200)
    case = {
        "seed": seed, "n": n, "branching": rng.randint(1, 5),
        "mode": rng.choice(MODES),
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
    if case["validation_policy"] == "hash-chain":  # a record the hook can accept
        case["statement"] = (bytes(7) + b"\x01" + bytes(32)
                             + rng.randbytes(rng.randint(0, 8))).hex()
    return case


def simulate(case: dict):
    """The simulator's output for a drawn case, run against the `cosikit` on
    the path."""
    from cosikit import multisig, simnet

    return simnet.run_sim_detailed(simnet.SimConfig(
        seed=case["seed"], n=case["n"], branching=case["branching"],
        mode=multisig.MODE_NAMES[case["mode"]], statement_timing=case["statement_timing"],
        view_change=case["view_change"], max_restarts=case["max_restarts"],
        rounds=case["rounds"], validation_policy=case["validation_policy"],
        statement=bytes.fromhex(case["statement"]) if "statement" in case else None,
        failures=tuple(simnet.FailureAction(*f) for f in case["failures"])))


def run_sim_case(seed: int) -> dict:
    """Case `seed` run against the `cosikit` on the path: its configuration
    and, per round, what the comparison reads."""
    case = draw_sim_case(seed)
    try:
        out = simulate(case)
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


def mutants(data: bytes):
    """Every copy of `data` with one byte set to each of `SMALL_BYTES` and to
    each of its one-bit flips, the unchanged copies left out."""
    for at, byte in enumerate(data):
        for value in dict.fromkeys([*SMALL_BYTES, *(byte ^ 1 << k for k in range(8))]):
            if value != byte:
                yield data[:at] + bytes([value]) + data[at + 1:]


def draw_message(seed: int, codec):
    """The toy-group message of case `seed`: a random type, and each field
    drawn by its name, in declaration order."""
    from dataclasses import fields

    from cosikit import group, merkle, multisig

    rng, toy = random.Random(seed), group.TOY

    def index_set():
        return frozenset(rng.sample(range(FRAME_WITNESSES), rng.randint(0, 3)))

    def element():
        return toy.generator ** rng.randrange(1, toy.order)

    def scalar():
        return toy.scalar(rng.randrange(toy.order))

    def proof():
        return merkle.InclusionProof(bytes([0, n := rng.randint(0, 3)]) + b"".join(
            bytes([rng.randint(0, 1)]) + rng.randbytes(32) for _ in range(n)))

    def build(cls):
        return cls(*[draw[f.name]() for f in fields(cls)])

    draw = {
        **dict.fromkeys(("view", "round", "timeout_ms", "proposed_view"),
                        lambda: rng.getrandbits(32)),
        **dict.fromkeys(("attempt", "branching"), lambda: rng.getrandbits(16)),
        **dict.fromkeys(("mode", "timing", "reason"), lambda: rng.getrandbits(8)),
        **dict.fromkeys(("sender", "signer", "index"), lambda: rng.randrange(FRAME_WITNESSES)),
        **dict.fromkeys(("topology_digest", "tree_hash", "digest"), lambda: rng.randbytes(32)),
        **dict.fromkeys(("failed", "absent", "refused"), index_set),
        **dict.fromkeys(("aggregate", "commit", "aggregate_commit"), element),
        **dict.fromkeys(("challenge", "aggregate_response"), scalar),
        "statement": lambda: rng.choice((None, rng.randbytes(rng.randint(0, 8)))),
        "commit_root": lambda: rng.randbytes(32),
        "proof": proof,
        "summaries": lambda: tuple(build(codec.SubtreeSummary) for _ in range(rng.randint(0, 2))),
        "exceptions": lambda: tuple(build(multisig.CommitException)
                                    for _ in range(rng.randint(0, 2))),
        "signature": lambda: group.Signature(element(), scalar()),
        "ok": lambda: rng.random() < 0.5,
        "payload": lambda: rng.randbytes(rng.randint(0, 8)),
    }
    return build(codec._MESSAGE_TYPES[rng.choice(sorted(codec._MESSAGE_TYPES))])


def run_frame_case(seed: int) -> dict:
    """Case `seed`'s frame and its mutants' verdicts, decoded by the codec of
    the `cosikit` on the path."""
    from cosikit.group import TOY

    try:
        from cosikit import wire as codec
    except ImportError:  # a revision that predates `wire`
        from cosikit import engine as codec

    def verdict(data: bytes) -> str:
        try:
            msg = codec.decode_frame_body(data, TOY, FRAME_WITNESSES)
        except Exception as exc:  # compared like any other verdict
            return type(exc).__name__
        back = codec.encode_message(msg, TOY)[4:]
        return "same" if back == data else back.hex()

    try:
        msg = draw_message(seed, codec)
        frame = codec.encode_message(msg, TOY)[4:]
    except Exception as exc:
        return {"case": {"seed": seed}, "error": f"{type(exc).__name__}: {exc}"}
    return {"case": {"seed": seed, "type": type(msg).__name__, "frame": frame.hex()},
            "verdict": verdict(frame), "mutants": [verdict(m) for m in mutants(frame)]}


def run_verify_case(seed: int) -> dict:
    """Case `seed`'s first signed signature and its mutants' verdicts against
    the roster and its compact anchor, by the `cosikit` on the path."""
    from cosikit.multisig import CollectiveSignature, verify_collective
    from cosikit.participation import WeightedThreshold
    from cosikit.roster import ProvenKey, build_key_tree, compact_certificate

    case = draw_sim_case(seed)
    try:
        out = simulate(case)
    except Exception as exc:
        return {"case": case, "error": f"{type(exc).__name__}: {exc}"}
    signed = [(sig, statement) for sig, statement in zip(out.signatures, out.statements)
              if sig is not None]
    if not signed:
        return {"case": case, "signature": None}
    sig, statement = signed[0]
    roster, n = out.roster, len(out.roster)
    anchor, tree = compact_certificate(roster), build_key_tree(roster)
    proven = [ProvenKey(i, roster.public_key(i), tree.prove(i)) for i in range(n)]
    predicate = WeightedThreshold(n - len(sig.participation.response_absent))

    def checked(verify):
        try:
            res = verify()
        except Exception as exc:  # compared like any other verdict
            return type(exc).__name__
        return [res.ok, res.crypto_ok, res.predicate_ok, res.reason]

    def verdict(data: bytes):
        try:
            mutant = CollectiveSignature.from_bytes(data, n)
        except Exception as exc:
            return type(exc).__name__
        proofs = [proven[i] for i in sorted(mutant.participation.response_absent)]
        return [checked(lambda: verify_collective(roster, statement, mutant, predicate)),
                checked(lambda: verify_collective(anchor, statement, mutant, predicate,
                                                  proofs))]

    data = sig.to_bytes()
    return {"case": case, "signature": data.hex(), "verdict": verdict(data),
            "mutants": [verdict(m) for m in mutants(data)]}


# suite -> (case runner, the case field whose values a report counts, those
# values listed even where no case had them)
SUITES = {"sim": (run_sim_case, "mode", MODES), "frames": (run_frame_case, "type", ()),
          "verify": (run_verify_case, "mode", MODES)}


def emit(suite: str, src: str, cases: str, first_seed: str) -> None:
    """Write one JSON line per case of `suite`, run against the `cosikit` in
    `src`."""
    sys.path.insert(0, src)
    logging.getLogger("cosikit").setLevel(logging.CRITICAL)
    run = SUITES[suite][0]
    for seed in range(int(first_seed), int(first_seed) + int(cases)):
        print(json.dumps(run(seed), sort_keys=True, separators=(",", ":")), flush=True)


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


# the program a suite's subprocess runs: this script's `emit`, with argv
# script, suite, src, cases and first seed
_EMIT = "import runpy, sys; runpy.run_path(sys.argv[1])['emit'](*sys.argv[2:])"


def _lines(suite: str, src: Path, cases: int, first_seed: int) -> tuple:
    proc = subprocess.Popen(
        [sys.executable, "-c", _EMIT, str(Path(__file__).resolve()), suite, str(src),
         str(cases), str(first_seed)],
        stdout=subprocess.PIPE, text=True)
    return proc, iter(proc.stdout.readline, "")


def compare(base_src: Path, here_src: Path, cases: int = 1000, first_seed: int = 1,
            suite: str = "sim") -> tuple[int, Optional[str]]:
    """Run `suite`'s cases against both trees' `src`, side by side. Returns
    the number of cases compared and, if any differ, a report (None if every
    case matched): the first differing case's seed, field and case, then each
    differing field path with its count of cases, its cases per mode or
    message type, and its first seed."""
    _, key, listed = SUITES[suite]
    base_proc, base_lines = _lines(suite, base_src, cases, first_seed)
    here_proc, here_lines = _lines(suite, here_src, cases, first_seed)
    compared, differing, report = 0, 0, []
    paths: dict[str, tuple] = {}  # collapsed path -> (first seed, cases per kind)
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
            kind = base["case"].get(key, "error")
            for path in dict.fromkeys(re.sub(r"\[\d+\]", "[]", p) for p, _ in found):
                kinds = paths.setdefault(path, (seed, dict.fromkeys(listed, 0)))[1]
                kinds[kind] = kinds.get(kind, 0) + 1
    finally:
        for proc in (base_proc, here_proc):
            proc.kill()
            proc.wait()
            proc.stdout.close()
    if differing:
        report.append(f"fields that differ, in {differing} of {compared} cases:")
        report += [f"  {path}: {sum(kinds.values())} cases ("
                   + ", ".join(f"{n} {kind}" for kind, n in kinds.items())
                   + f"), first seed {first}"
                   for path, (first, kinds) in sorted(paths.items())]
    return compared, "\n".join(report) or None


def _git(*args: str) -> None:
    subprocess.run(["git", "-C", str(REPO), *args], check=True, stdout=subprocess.DEVNULL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare this tree with")
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first case; a reported seed reruns alone "
                             "with --first-seed SEED --cases 1")
    args = parser.parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory(prefix="diffcheck-") as tmp:
        tree = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(tree), args.base)
        try:
            for suite in SUITES:
                compared, report = compare(tree / "src", REPO / "src", args.cases,
                                           args.first_seed, suite)
                if report:
                    print(f"{suite}: differs from {args.base} over {compared} cases\n{report}")
                    status = 1
                else:
                    print(f"{suite}: {compared} cases (seeds {args.first_seed}-"
                          f"{args.first_seed + compared - 1}) match {args.base}", flush=True)
        finally:
            _git("worktree", "remove", "--force", str(tree))
    return status


if __name__ == "__main__":
    sys.exit(main())
