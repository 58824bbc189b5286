"""Runs one workload in this process and prints its result as one JSON line.

run.py starts this once per measurement, single-threaded, with
PYTHONHASHSEED fixed and cosikit's sources on PYTHONPATH:

    python3 perfbench/worker.py --workload cosi-toy --seed 1 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload cosi-toy --seed 1 --setup-only

Set-up time runs from the first line of this file, before cosikit is
imported, to the end of one untimed warm-up operation.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Traced units per traced run; each is one untraced and one traced operation.
TRACE_UNITS = 3
# Peak memory is read after this many units, which every run completes even
# when the machine runs at a third of its usual speed. Memory grows with each
# round kept, so a run cut short by the clock would otherwise read lower.
RSS_UNITS = 4


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Run:
    """Counts operations and failures, and turns failed checks into
    `correct = False`."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, out, what: str) -> bool:
        """Untimed checks of one operation's output; logs every problem."""
        problems = self.w.check(out)
        for p in problems:
            log(f"{self.w.name} {what}: {p}")
        self.correct &= not problems
        return not problems

    def operate(self):
        """The timed operation; returns (seconds, seconds at the reference
        speed, output), all None on failure."""
        self.w.prepare()
        self.attempted += 1
        try:
            return timed(self.w.operate)
        except Exception:
            log(f"{self.w.name} operation failed:\n{traceback.format_exc()}")
            self.failed += 1
            return None, None, None

    def verify(self, items) -> tuple[float, float]:
        """Times one batch of verifications; returns seconds per verdict,
        measured and at the reference speed."""
        def batch():
            ok = 0
            for item in items:
                try:
                    ok += self.w.verify(item)
                except Exception:
                    log(f"{self.w.name} verification raised:\n{traceback.format_exc()}")
            return ok

        measured, scaled, ok = timed(batch)
        self.attempted += len(items)
        self.failed += len(items) - ok
        return measured / len(items), scaled / len(items)


def timed(fn):
    """Runs fn between two runs of the reference computation; returns
    (seconds, seconds at the reference speed, fn's result)."""
    before = reference.reference()
    gc.collect()
    start = time.perf_counter()
    out = fn()
    measured = time.perf_counter() - start
    after = reference.reference()
    return measured, reference.scale(measured, before, after), out


def setup(run: Run) -> dict:
    """Sets up and warms up; returns the set-up time and the reference time
    just after it. run.py, which times the reference just before starting
    this process, scales the set-up time by the two."""
    run.w.setup()
    run.w.prepare()
    out = run.w.operate()
    setup_s = time.perf_counter() - PROCESS_START
    after = reference.reference()
    run.check(out, "warm-up")
    return {"setup_measured_s": setup_s, "setup_reference_s": after}


def measure(run: Run, seconds: float) -> dict:
    w = run.w
    result = setup(run)
    rounds, verifies = [], []
    begin = time.perf_counter()
    last_unit = 0.0
    peak_rss = None
    for unit in range(w.units):
        if unit == RSS_UNITS:
            peak_rss = peak_rss_mb()
        unit_start = time.perf_counter()
        if unit and unit_start - begin + last_unit > seconds:
            log(f"{w.name}: stopped after {unit} of {w.units} units, at the "
                f"{seconds} s bound")
            break
        measured, scaled, out = run.operate()
        if out is None:
            run.attempted += w.verify_batch
            run.failed += w.verify_batch
            continue
        rounds.append((measured, scaled))
        run.failed += not run.check(out, f"unit {unit + 1}")
        items = w.verify_items(out)
        del out
        verifies.append(run.verify(items))
        del items
        last_unit = time.perf_counter() - unit_start
    if peak_rss is None:
        peak_rss = peak_rss_mb()
    measured, scaled = median_pairs(rounds)
    log(f"{w.name}: {len(rounds)} units; median round {measured} s measured, "
        f"{scaled} s at the reference speed")
    result["metrics"] = {
        "round_s": (scaled, "s"),
        "verify_s": (median_pairs(verifies)[1], "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median_pairs(pairs) -> tuple[float | None, float | None]:
    """Medians of (measured, scaled) pairs, each taken on its own."""
    if not pairs:
        return None, None
    return tuple(statistics.median(column) for column in zip(*pairs))


def trace(run: Run, seconds: float, workloads_module) -> dict:
    import tracer as tracing

    w = run.w
    tr = tracing.Tracer()
    tr.install([workloads_module])
    with tr.span("setup"):
        setup(run)
    setup_totals = tr.totals()
    tr.uninstall()

    plain, traced = [], []
    sim_counts = {"simnet.msgs": 0, "simnet.bytes": 0, "simnet.virtual_latency_s": 0.0}
    begin = time.perf_counter()
    # Each traced unit costs two operations of the workload's memory budget.
    for unit in range(min(TRACE_UNITS, w.units // 2)):
        if unit and time.perf_counter() - begin > seconds:
            break
        _, elapsed, out = run.operate()
        if out is None:
            continue
        plain.append(elapsed)
        run.failed += not run.check(out, "untraced unit")
        del out

        tr.install([workloads_module])
        with tr.span("op.round"):
            _, elapsed, out = run.operate()
        tr.uninstall()
        if out is None:
            continue
        traced.append(elapsed)
        metrics = w.last_metrics
        sim_counts["simnet.msgs"] += metrics.total_msgs
        sim_counts["simnet.bytes"] += metrics.total_bytes_sent
        sim_counts["simnet.virtual_latency_s"] += metrics.latency
        run.failed += not run.check(out, "traced unit")
        items = w.verify_items(out)[:1]
        del out
        tr.install([workloads_module])
        with tr.span("op.verify"):
            run.verify(items)
        tr.uninstall()

    totals = tr.totals()
    units = max(len(traced), 1)
    values = {}
    for name in tracing.PER_LAYER:
        if name in tracing.SETUP_METRICS:
            values[name] = setup_totals.get(name.removeprefix("setup."), 0)
        elif name in sim_counts:
            values[name] = sim_counts[name] / units
        else:
            values[name] = (totals.get(name, 0) - setup_totals.get(name, 0)) / units
    if traced and plain:
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{w.name}-seed{w.seed}.csv"
    tr.write_spans(spans)
    log(f"{len(tr.span_name)} spans written to {spans}")
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import cosikit

    if Path(cosikit.__file__).resolve().parent != SRC / "cosikit":
        log(f"cosikit imported from {cosikit.__file__}, not from {SRC}")
        return 2
    import workloads

    run = Run(workloads.WORKLOADS[args.workload](args.seed))
    if args.setup_only:
        result = setup(run)
        result["correct"] = run.correct
    else:
        result = {"metrics": trace(run, args.seconds, workloads)} if args.trace \
            else measure(run, args.seconds)
        result.update(correct=run.correct, attempted=run.attempted, failed=run.failed)
        result["metrics"] = {name: {"value": value, "unit": unit}
                             for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
