"""A fixed computation that gauges how fast the machine runs at the moment.

On a shared virtual machine the speed of a process can change by up to 2.7
times, for seconds to minutes at a time, and its CPU time moves with wall
time (perfbench/README.md has the figures, from a 2-vCPU machine). A median taken within one run cannot remove a shift that lasts the whole
run. So every timed section is bracketed by two runs of `reference()`, fixed
pure-Python work of the kinds cosikit does: 255-bit modular arithmetic, small
tuples and dicts, and SHA-256 over short byte strings. The section's time is
then reported at the reference speed:

    scaled = measured * NOMINAL_S / mean(reference before, reference after)

A change to cosikit moves `measured` and leaves the reference alone, so the
scaled time moves by the same share as the measured one. A shift in the
machine's speed moves both and cancels.
"""

from __future__ import annotations

import gc
import hashlib
import time

# The reference's time on the README's 2-vCPU machine at its usual (faster)
# speed, so that scaled times read close to seconds measured there. Only a
# fixed scale; it cancels out of every comparison between runs.
NOMINAL_S = 0.08

_P = 2**255 - 19
ROUNDS = 20


def _arith() -> int:
    x, y, z = 9, 12345678901234567890, 1
    for _ in range(1500):
        x = (x * y + z) % _P
        y = (y * y - x) % _P
        z = (z + 2 * x) % _P
    return x ^ y ^ z


def _objects() -> int:
    table = {}
    for i in range(2500):
        key = (i, i + 1, i * 3)
        table[key] = [key, i]
    return sum(k[1] + v[1] for k, v in table.items())


def _hashing() -> int:
    h = bytes(32)
    out = []
    for i in range(2500):
        h = hashlib.sha256(b"\x01" + h + i.to_bytes(4, "big")).digest()
        out.append(h)
    return len(b"".join(out))


def reference() -> float:
    """Runs the fixed work once; returns its wall time in seconds. The work
    is done in small rounds, so that it adds little to peak memory, and with
    the garbage collector off, so that its time does not depend on how many
    objects the process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            _arith()
            _objects()
            _hashing()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(measured: float, before: float, after: float) -> float:
    """`measured` seconds at the reference speed, given the reference times
    taken just before and just after it."""
    return measured * NOMINAL_S * 2 / (before + after)
