"""Machine-speed calibration of the benchmark's times.

The benchmark runs on a shared machine whose speed drifts: a fixed gw-multi
op on one M1 instance, repeated for 150 s on the 2-vCPU reference machine,
took 0.36 s to 0.54 s as medians of 28-op stretches. The kernel below, run
after each op, slowed down in step with it (the op/kernel ratio of those
stretches stayed within 20.0-21.7), so each time the benchmark reports is
scaled to one fixed machine speed:

    calibrated = measured * NOMINAL_S / kernel time measured next to it

The kernel only uses the interpreter, numpy and scipy; no gwqap code, so a
change to the program under test cannot change it. It mixes the same kinds
of work as the workloads: interpreted loops and dicts, small dense numpy
products and small HiGHS linear programs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# calibrated seconds are seconds at the speed at which the kernel takes this
# long; the reference machine (2 vCPU, OpenBLAS 1 thread) ran it in 18-35 ms
NOMINAL_S = 0.025

_RNG = np.random.default_rng(0)
_MATS = _RNG.random((150, 12, 12))
_COST = _RNG.random(64)
_A_EQ = np.zeros((16, 64))
for _r in range(8):
    _A_EQ[_r, _r * 8:(_r + 1) * 8] = 1.0
    _A_EQ[8 + _r, _r::8] = 1.0
_B_EQ = np.ones(16)


def _kernel() -> float:
    acc = 0.0
    for a in _MATS:
        acc += float((a @ a).sum())
        table = {j: j * j for j in range(100)}
        acc += sum(table.values())
    for _ in range(8):
        res = linprog(_COST, A_eq=_A_EQ, b_eq=_B_EQ, bounds=(0, None), method="highs")
        acc += res.fun
    return acc


def sample() -> float:
    """Time one kernel run."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Scale from measured to calibrated seconds, from kernel times taken
    around the measured interval."""
    return NOMINAL_S / statistics.median(samples)


def interval_factors(kernel) -> list[float]:
    """Scale factors of the intervals between consecutive kernel runs.

    Interval i ran between kernel[i] and kernel[i + 1]; it is scaled by the
    median of the two kernel runs before it and the two after it, so one
    slow kernel run does not move it. One factor per interval.
    """
    return [factor(kernel[max(0, i - 1):i + 3]) for i in range(len(kernel) - 1)]


def calibrated(fn, k: int = 3) -> tuple[object, float]:
    """Run fn() between k kernel runs before and k after it.

    Returns fn's result and the scale factor from those 2k kernel runs, for
    one-off intervals such as a set-up.
    """
    before = [sample() for _ in range(k)]
    out = fn()
    return out, factor(before + [sample() for _ in range(k)])
