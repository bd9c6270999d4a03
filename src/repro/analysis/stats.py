"""Small statistics helpers: bootstrap confidence intervals, CDF utilities.

Figure 7 reports per-provider averages with standard errors; bootstrap
confidence intervals are the distribution-free upgrade, and CDF helpers
back the Figure 9/12-style comparisons.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 17,
) -> Tuple[float, float]:
    """Percentile bootstrap CI of the mean.

    Deterministic given *seed*; degenerates to (v, v) for single-value
    input and raises for empty input.
    """
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence out of (0,1): {confidence}")
    data = np.asarray(list(values), dtype=float)
    if data.size == 1:
        return (float(data[0]), float(data[0]))
    rng = np.random.default_rng(seed)
    means = np.empty(resamples)
    for i in range(resamples):
        sample = rng.choice(data, size=data.size, replace=True)
        means[i] = sample.mean()
    alpha = (1.0 - confidence) / 2.0
    low, high = np.percentile(means, [100 * alpha, 100 * (1 - alpha)])
    return (float(low), float(high))


def empirical_cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Sorted (value, cumulative fraction) points."""
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of values <= threshold."""
    if not values:
        return 0.0
    return sum(1 for v in values if v <= threshold) / len(values)


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance between two samples.

    Used to quantify how far the traffic-overlaid sharing distribution
    moved from the physical one (Figure 9's visual gap, as a number).
    """
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    points = sorted(set(a) | set(b))
    return max(abs(cdf_at(a, x) - cdf_at(b, x)) for x in points)
