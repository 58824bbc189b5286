"""Benchmark for cosikit's signing rounds, verification and batched timestamping.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cosi-prod --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Each workload runs in fresh single-threaded worker processes, one after
another, with PYTHONHASHSEED fixed. With --trace 0 the result carries the
end-to-end metrics; set-up time is the median over SETUP_SAMPLES processes.
Timings are scaled to the reference speed (see reference.py).
With --trace 1 one traced worker reports the per-module metrics. The last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cosi-toy", "cosi-prod", "stamp-prod")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 25


class BenchError(RuntimeError):
    pass


def run_worker(args: list[str], timeout: float) -> dict:
    """Runs one worker and returns its result, with its set-up time scaled
    by the reference times just before the worker starts and just after its
    set-up ends."""
    before = reference.reference()
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past {timeout} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "setup_measured_s" in result:
        result["setup_s"] = reference.scale(result.pop("setup_measured_s"), before,
                                            result.pop("setup_reference_s"))
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    result = run_worker(base + ["--seconds", str(seconds), "--trace", str(trace)],
                        WORKER_TIMEOUT_S)
    if trace:
        return result
    samples = [result.pop("setup_s")]
    for _ in range(SETUP_SAMPLES - 1):
        extra = run_worker(base + ["--setup-only"], SETUP_TIMEOUT_S)
        samples.append(extra["setup_s"])
        result["correct"] &= extra["correct"]
    result["metrics"] = {"setup_s": {"value": statistics.median(samples), "unit": "s"},
                         **result["metrics"]}
    return result


def describe(name: str, result: dict) -> str:
    parts = [f"{k} {m['value'] if m['value'] is None else format(m['value'], '.6g')} "
             f"{m['unit']}" for k, m in result["metrics"].items()]
    return (f"{name}: " + ", ".join(parts)
            + f"; attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload; all of them, one after another, if omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cosikit" / "__init__.py").is_file():
        print(f"perfbench: no cosikit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print(describe(name, results[name]), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
