#!/usr/bin/env python3
"""Memory soak: a long-lived simulation, timestamp authority or verifier must
hold bounded state.

Runs a 16-node toy cosi simulation (branching 3, a lying witness, view change
on) in each mode, a timestamp authority that closes small batches through
a 4-witness toy simulation and encodes every receipt, and a verifier that
checks prod signatures with different absent sets against one roster: warm-up
rounds first, then more rounds under `tracemalloc`. Exits 1 if traced memory
grows by more than `LIMIT_KB` over the measured rounds, whichever container
holds it, so a receipt, head or record that outlives its batch fails it, and
so does a present-key table that outlives its replacement in the roster's
slot. It also prints, in each mode, the bytes each node retains over one
more toy round at N=256, branching 16, as
`tests/test_simnet.py::test_one_more_round_retains_little_per_node` bounds it.

    python scripts/soak.py
"""

import dataclasses
import gc
import hashlib
import itertools
import logging
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cosikit import simnet, timestamp  # noqa: E402
from cosikit.multisig import (MODE_NAMES, MODE_NO_RESTART, CollectiveSignature,  # noqa: E402
                              verify_collective)
from cosikit.participation import Threshold  # noqa: E402

WARMUP, ROUNDS, LIMIT_KB = 100, 1000, 64
STAMP_HASHES = 16  # hashes per timestamp batch
# verifies of one signature in a row: a ladder, a table build, then walks
VERIFY_RUN = 20


def growth(start, warmup: int, rounds: int) -> int:
    """Bytes of traced memory gained over `rounds` calls of the step that
    `start()` returns, after `warmup` calls. Tracing starts before `start`,
    so the state the warm-up leaves is in the baseline and what later rounds
    free of it counts."""
    tracemalloc.start()
    try:
        step = start()
        for r in range(warmup):
            step(r)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for r in range(warmup, warmup + rounds):
            step(r)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def signing_rounds(cfg: simnet.SimConfig):
    """A step that runs signing round r of a new simulation and exits if it
    did not sign."""
    sim = simnet.CosiSim(cfg)

    def step(r: int) -> None:
        _, result = sim.run_round(r)
        if result is None or not result.ok:
            raise SystemExit(f"round {r} did not sign")
    return step


def stamp_batches():
    """A step that submits batch b's hashes to a timestamp authority, closes
    its round and encodes every receipt, then drops them. The authority signs
    through a 4-witness toy simulation; a failed round raises."""
    sim = simnet.CosiSim(simnet.SimConfig(seed=1, n=4, branching=3))
    sign_round = itertools.count()

    def sign(statement: bytes):
        sim.cfg = dataclasses.replace(sim.cfg, statement=statement)
        _, result = sim.run_round(next(sign_round))
        return result.signature if result is not None and result.ok else None

    authority = timestamp.TimestampAuthority(sign)

    def step(b: int) -> None:
        for i in range(STAMP_HASHES):
            authority.submit(hashlib.sha256(b"soak/%d/%d" % (b, i)).digest())
        _, receipts = authority.round_close(simnet.SimConfig.start_time + b)
        for receipt in receipts.values():
            receipt.to_bytes()
    return step


def verify_runs():
    """A step that decodes and verifies one of three prod signatures against
    one 8-witness roster, each signature with a different lying witness and
    so a different absent set, in runs of `VERIFY_RUN` verifies of the same
    one. Each run's first verify replaces the roster's present-key slot and
    its second builds that key's fixed-base table, so every run drops the
    table of the run before it. A rejected signature raises."""
    signed = []
    for liar in (2, 5, 7):
        # one seed, so each simulation builds the same roster
        sim = simnet.CosiSim(simnet.SimConfig(
            seed=1, n=8, branching=3, group_name="prod", mode=MODE_NO_RESTART,
            failures=(simnet.FailureAction(liar, "response", "lie"),)))
        _, result = sim.run_round(0)
        signed.append((result.statement, result.signature.to_bytes()))
    roster = sim.roster
    predicate = Threshold(len(roster) - 1)

    def step(v: int) -> None:
        statement, blob = signed[v // VERIFY_RUN % len(signed)]
        sig = CollectiveSignature.from_bytes(blob, len(roster))
        if not verify_collective(roster, statement, sig, predicate).ok:
            raise SystemExit(f"verify {v} rejected")
    return step


def report(name: str, grown: int, what: str) -> bool:
    within = grown <= LIMIT_KB * 1024
    print(f"{name}: traced memory grew {grown / 1024:.1f} KB over {ROUNDS} {what} "
          f"after {WARMUP} warm-up (limit {LIMIT_KB} KB){'' if within else ': FAIL'}")
    return within


def main() -> int:
    logging.getLogger("cosikit").setLevel(logging.ERROR)  # the liar is named every round
    ok = True
    for name, mode in MODE_NAMES.items():
        cfg = simnet.SimConfig(seed=1, n=16, branching=3, mode=mode, view_change=True,
                               failures=(simnet.FailureAction(5, "response", "lie"),))
        ok &= report(name, growth(lambda: signing_rounds(cfg), WARMUP, ROUNDS), "rounds")
        # the tree is cached after two rounds, and no round is dropped yet
        cfg = simnet.SimConfig(seed=1, n=256, branching=16, mode=mode)
        kept = growth(lambda: signing_rounds(cfg), 2, 1)
        print(f"{name}: one more round at N=256, B=16 retains {kept / 256:,.0f} B per node")
    ok &= report("timestamp", growth(stamp_batches, WARMUP, ROUNDS),
                 f"{STAMP_HASHES}-hash batches")
    ok &= report("verify", growth(verify_runs, WARMUP, ROUNDS),
                 f"prod verifies in runs of {VERIFY_RUN}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
