"""Closed-form tail bounds and phase classification."""

from __future__ import annotations

import math
from dataclasses import dataclass


class BoundsError(ValueError):
    pass


def nagaev_bound(n: int, x: float, variance: float, upper_moment: float,
                 tail_exponent: float) -> float:
    """Two-term upper bound on P[S_n > x] for centered i.i.d. sums.

    upper_moment is the positive-part (2 + tail_exponent)-moment of one
    summand. The raw value can exceed 1 for small x; it is clamped to [0, 1].
    """
    if x <= 0:
        raise BoundsError("threshold x must be positive")
    if n <= 0 or variance <= 0 or upper_moment <= 0 or tail_exponent <= 0:
        raise BoundsError("n, variance, upper_moment, tail_exponent must be positive")
    p = 2.0 + tail_exponent
    power_term = ((4.0 + tail_exponent) / p) ** p * n * upper_moment * x ** (-p)
    exp_term = math.exp(
        -2.0 * math.exp(-p) * x * x / ((4.0 + tail_exponent) ** 2 * n * variance)
    )
    return min(power_term + exp_term, 1.0)


# (mean, threshold) pairs, 4 means x 4 ratios, of the bounds table and its validate row
CHERNOFF_GRID = tuple((m, m * r) for m in (1.0, 5.0, 10.0, 50.0) for r in (1.1, 1.5, 2.0, 5.0))


def poisson_chernoff(mean: float, threshold: float) -> float:
    """Chernoff upper bound on P[N >= a] for N Poisson(mean), valid for a > mean.

    exp(-mean * g(mean/a)) with g(x) = (x - 1 - log x)/x, evaluated in the
    algebraically equivalent form exp(a - mean + a*log(mean/a)) with log1p
    near the ratio 1 to avoid cancellation.
    """
    if mean <= 0:
        raise BoundsError("mean must be positive")
    if threshold <= mean:
        raise BoundsError("bound only valid for threshold > mean")
    w = mean / threshold - 1.0
    exponent = threshold - mean + threshold * math.log1p(w)
    return min(math.exp(exponent), 1.0)


@dataclass(frozen=True)
class PhaseParams:
    intensity: float
    scale: float
    mean_appetite_base: float  # E[V] of the base variable


def classify_phase(p: PhaseParams) -> str:
    """Phase of the allocation by the product intensity * scale * E[V];
    critical within 1e-12 of 1."""
    product = p.intensity * p.scale * p.mean_appetite_base
    if abs(product - 1.0) <= 1e-12:
        return "critical"
    return "subcritical" if product < 1.0 else "supercritical"


def finiteness_threshold(intensity: float, d: int, mean_truncated: float) -> float:
    """Scale below which every dominating radius is almost surely finite."""
    if intensity <= 0 or d < 1 or mean_truncated <= 0:
        raise BoundsError("inputs must be positive")
    return 1.0 / (intensity * 2.0 ** d * mean_truncated)
