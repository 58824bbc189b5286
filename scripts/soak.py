#!/usr/bin/env python3
"""Memory soak: a long-lived simulation must hold bounded state.

Runs a 16-node toy cosi simulation (branching 3, a lying witness, view change
on) in each mode: warm-up rounds first, then more rounds under `tracemalloc`.
Exits 1 if traced memory grows by more than `LIMIT_KB` over the measured
rounds, whichever container holds it. It also prints, in each mode, the bytes
each node retains over one more toy round at N=256, branching 16, as
`tests/test_simnet.py::test_one_more_round_retains_little_per_node` bounds it.

    python scripts/soak.py
"""

import gc
import logging
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cosikit import simnet  # noqa: E402
from cosikit.multisig import MODE_NAMES  # noqa: E402

WARMUP, ROUNDS, LIMIT_KB = 100, 1000, 64


def growth(cfg: simnet.SimConfig, warmup: int, rounds: int) -> int:
    """Bytes of traced memory gained over `rounds` rounds after `warmup`.
    Tracing starts before the warm-up, so the state the warm-up leaves is in
    the baseline and what later rounds free of it counts."""
    tracemalloc.start()
    try:
        sim = simnet.CosiSim(cfg)
        for r in range(warmup):
            sim.run_round(r)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for r in range(warmup, warmup + rounds):
            _, result = sim.run_round(r)
            if result is None or not result.ok:
                raise SystemExit(f"round {r} did not sign")
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def main() -> int:
    logging.getLogger("cosikit").setLevel(logging.ERROR)  # the liar is named every round
    ok = True
    for name, mode in MODE_NAMES.items():
        grown = growth(simnet.SimConfig(seed=1, n=16, branching=3, mode=mode, view_change=True,
                                        failures=(simnet.FailureAction(5, "response", "lie"),)),
                       WARMUP, ROUNDS)
        within = grown <= LIMIT_KB * 1024
        ok &= within
        print(f"{name}: traced memory grew {grown / 1024:.1f} KB over {ROUNDS} rounds "
              f"after {WARMUP} warm-up (limit {LIMIT_KB} KB){'' if within else ': FAIL'}")
        # the tree is cached after two rounds, and no round is dropped yet
        kept = growth(simnet.SimConfig(seed=1, n=256, branching=16, mode=mode), 2, 1)
        print(f"{name}: one more round at N=256, B=16 retains {kept / 256:,.0f} B per node")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
