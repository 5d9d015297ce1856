"""Calibration: the score of a fixed pure-Python spin loop."""

from __future__ import annotations

import math
import time


def calibrate(loops: int = 200_000, k: int = 3) -> float:
    """Score (iterations/s) of a fixed pure-Python spin loop.

    Dividing any benchmark score by this number yields a roughly
    machine-portable "calibrated" score: the reference loop exercises the
    same interpreter dispatch the hot paths do, so the ratio cancels most
    of the difference between a laptop and a CI container.
    """
    perf = time.perf_counter
    best = math.inf
    for _ in range(k):
        acc = 0
        t0 = perf()
        for i in range(loops):
            acc += i
        dt = perf() - t0
        best = min(best, max(dt, 1e-9))
    return loops / best
