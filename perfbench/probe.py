"""The machine-speed probe that host times are scaled by.

On a shared machine the speed of the CPUs drifts: other tenants' load
changes the clock and contends for caches, and the same op can take 30%
longer in one minute than in the next.  The probe is a fixed piece of
program-independent work timed right before and right after every timed
step; the step's wall time is reported at the speed where the probe takes
``REFERENCE_MS``.  The work is hashing a fixed set of small integer tuples
into a dict, which is what the program's hot paths (structural cache keys,
Python-level bookkeeping around NumPy calls) mostly do, so its speed tracks
theirs more closely than a bare arithmetic loop does.

This module imports only ``time``, so a fresh interpreter can use it before
it imports the program.
"""

from __future__ import annotations

import time

#: probe time at the reference speed (about its median on a 2-CPU x86 VM)
REFERENCE_MS = 3.0
PASSES = 4
KEYS = tuple(tuple((i * 7919 + j) % 1000 for j in range(12)) for i in range(4000))


def probe_ms() -> float:
    """Wall milliseconds of the fixed probe work."""
    start = time.perf_counter()
    for _ in range(PASSES):
        table = {}
        for key in KEYS:
            table[hash(key)] = key
    return (time.perf_counter() - start) * 1e3


def speed_scale(before_ms: float, after_ms: float) -> float:
    """Factor taking a wall time measured between two probes to reference speed."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2)
