"""Latency statistics of a run."""

from __future__ import annotations

import numpy as np
from scipy.special import betainc

TAIL_BEYOND = 10


def hd_quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of quantile q.

    A Beta-weighted mean of all order statistics. Ops of several instance
    sizes give a lumpy latency distribution, where a single order statistic
    jumps between the lumps from run to run; this estimate moves smoothly.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = xs.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ xs)


def tail(samples):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that percentile is at or
    below the median, so the rank just above the middle is used instead.
    Returns (value, percentile, samples beyond).
    """
    n = len(samples)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return hd_quantile(samples, rank / n), 100.0 * rank / n, n - rank
