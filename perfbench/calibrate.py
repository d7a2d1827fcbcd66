"""Machine-speed calibration for the benchmark's timing metrics.

On a shared virtual machine (2 vCPUs, other tenants on the same host)
a fixed CPU loop runs anywhere from 1x to 2x slower for stretches of
seconds to minutes, so wall-clock figures from two runs of the same
code disagree by more than any useful regression bound.  The
benchmark therefore times a fixed unit of work (the same kind of work
the program does: SHA-256 state copies, big-int conversion, a small
dict) between operations, at most once per :data:`INTERVAL_NS`, and
reports each timing metric twice:

* ``wall_*`` — as measured;
* the plain name — scaled to a machine that runs :func:`unit` exactly
  :data:`REFERENCE_UNITS_PER_S` times a second, i.e. multiplied (for
  times) or divided (for rates) by ``measured units per second /
  REFERENCE_UNITS_PER_S`` over the same window.

The injected-delay self-test shows the scaled figures still move by
what a slower layer costs.
"""

from __future__ import annotations

import hashlib
from time import perf_counter_ns

#: Calibration units per second of the reference machine.
REFERENCE_UNITS_PER_S = 100_000.0

#: Minimum wall time between two calibration units inside a timed loop
#: (one unit takes about 10 us, so about 2% of the loop).
INTERVAL_NS = 500_000

_STATE = hashlib.sha256(b"perfbench calibration")


def unit() -> int:
    """One fixed unit of CPU work."""
    acc = 0
    for i in range(8):
        digest = _STATE.copy()
        digest.update(i.to_bytes(4, "big"))
        acc ^= int.from_bytes(digest.digest(), "little")
    table = {}
    for i in range(8):
        table[i] = acc >> i
    return len(table)


def rate(duration_s: float) -> float:
    """Calibration units per second over ``duration_s`` of back-to-back units."""
    for _ in range(20):
        unit()
    count = 0
    start = perf_counter_ns()
    end = start + int(duration_s * 1e9)
    while True:
        unit()
        count += 1
        now = perf_counter_ns()
        if now >= end:
            return count / ((now - start) / 1e9)
