"""Reference seconds: times scaled to cancel the machine's speed drift.

On the shared VMs this benchmark was built on, speed drifts by 20 % and
more, for seconds to minutes at a time, which no repetition inside one run
averages out (bench/README.md, Steadiness).  Every reported time is
therefore scaled to a reference speed: it is multiplied by
CALIBRATION_REF_S over the time `calibrate` takes around it.  All of the
benchmark's processes share one CPU, so the calibration sees the same
contention as the work it brackets.  CALIBRATION_REF_S is the typical
`calibrate` time on the 2-core VM the bounds were set on, so reported times
read as that machine's wall seconds at its usual speed.
"""

from __future__ import annotations

from time import perf_counter

CALIBRATION_REF_S = 0.0052


def calibrate() -> float:
    """Best of three runs of a fixed pure-Python task (tuple hashing, dict
    and set work, sorting) that does not touch kpvcr."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        counts: dict[tuple, int] = {}
        for i in range(8000):
            key = (i % 977, i % 13, "s")
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        [frozenset(range(i % 50)) for i in range(700)]
        best = min(best, perf_counter() - t0)
    return best


def speed_factor(before: float, after: float) -> float:
    """Multiplier that takes a time measured between two calibrations to
    reference seconds."""
    return CALIBRATION_REF_S / ((before + after) / 2)
