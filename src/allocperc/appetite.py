"""Random appetite distributions, the floor-truncated variant, and moment diagnostics.

An appetite is scale * max(V, floor) where V is drawn from one of four base
families. The same uniform draw drives the truncated and untruncated variable,
so raising the floor is a pathwise coupling (monotone in the floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtri


class AppetiteConfigError(ValueError):
    pass


FAMILIES = ("constant", "exponential", "pareto", "lognormal")


@dataclass(frozen=True)
class AppetiteDistribution:
    """Law of one center's appetite: scale * max(V, floor).

    family/params pick the base variable V:
      constant:    params = {"value": c}
      exponential: params = {"mean": m}
      pareto:      params = {"scale": x_m, "index": a}   (survival (x_m/x)^a)
      lognormal:   params = {"mu": m, "sigma": s}
    floor is the lower truncation (0 disables it); tail_exponent is the
    delta used by the (2+delta)-moment diagnostics.
    """

    family: str
    params: dict
    scale: float = 1.0
    floor: float = 0.0
    tail_exponent: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise AppetiteConfigError(f"unknown appetite family {self.family!r}")
        if self.scale < 0:
            raise AppetiteConfigError("scale must be nonnegative")
        if self.floor < 0:
            raise AppetiteConfigError("floor must be nonnegative")
        if self.tail_exponent <= 0:
            raise AppetiteConfigError("tail exponent must be positive")
        p = self.params
        try:
            if self.family == "constant":
                if p["value"] < 0:
                    raise AppetiteConfigError("constant value must be nonnegative")
            elif self.family == "exponential":
                if p["mean"] <= 0:
                    raise AppetiteConfigError("exponential mean must be positive")
            elif self.family == "pareto":
                if p["scale"] <= 0 or p["index"] <= 0:
                    raise AppetiteConfigError("pareto scale and index must be positive")
            elif self.family == "lognormal":
                if p["sigma"] <= 0:
                    raise AppetiteConfigError("lognormal sigma must be positive")
        except KeyError as exc:
            raise AppetiteConfigError(
                f"{self.family} family needs parameter {exc.args[0]!r}"
            ) from exc

    def base_quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF of the base variable V at u in (0, 1)."""
        u = np.asarray(u, dtype=float)
        p = self.params
        if self.family == "constant":
            return np.full_like(u, float(p["value"]))
        if self.family == "exponential":
            return -p["mean"] * np.log1p(-u)
        if self.family == "pareto":
            return p["scale"] * (1.0 - u) ** (-1.0 / p["index"])
        if self.family == "lognormal":
            return np.exp(p["mu"] + p["sigma"] * ndtri(u))
        raise AssertionError(self.family)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF of the appetite scale * max(V, floor)."""
        return self.scale * np.maximum(self.base_quantile(u), self.floor)


def sample_appetites(dist: AppetiteDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. appetites, shape (n,)."""
    return dist.quantile(rng.random(n))


def sample_appetite(dist: AppetiteDistribution, rng: np.random.Generator) -> float:
    return float(sample_appetites(dist, 1, rng)[0])


def _truncated_moment(dist: AppetiteDistribution, order: float) -> float:
    """E[max(V, floor)^order] of the base variable by quadrature in u-space;
    inf when the moment or its integrand leaves the float range."""

    def integrand(u):
        return float(np.maximum(dist.base_quantile(u), dist.floor)) ** order

    points = []
    if dist.floor > 0:
        u_star = _base_cdf(dist, dist.floor)
        if 0.0 < u_star < 1.0:
            points.append(u_star)
    try:
        if dist.family == "constant":
            return max(dist.params["value"], dist.floor) ** order
        return integrate.quad(integrand, 0.0, 1.0, points=points or None, limit=200)[0]
    except OverflowError:
        return math.inf


def _base_cdf(dist: AppetiteDistribution, v: float) -> float:
    p = dist.params
    if dist.family == "constant":
        return 0.0 if v < p["value"] else 1.0
    if dist.family == "exponential":
        return -math.expm1(-v / p["mean"]) if v > 0 else 0.0
    if dist.family == "pareto":
        return 1.0 - (p["scale"] / v) ** p["index"] if v > p["scale"] else 0.0
    if dist.family == "lognormal":
        if v <= 0:
            return 0.0
        from scipy.special import ndtr

        return float(ndtr((math.log(v) - p["mu"]) / p["sigma"]))
    raise AssertionError(dist.family)


@dataclass(frozen=True)
class MomentReport:
    mean: float
    variance: float
    upper_moment: float  # E[max(V, floor)^(2 + tail_exponent)]
    finite: bool


def moment_report(dist: AppetiteDistribution) -> MomentReport:
    """Moments of the floor-truncated base variable max(V, floor).

    upper_moment is the (2 + tail_exponent)-moment; finite=False flags a
    Pareto tail too heavy for it (index <= 2 + tail_exponent), in which case
    upper_moment is reported as inf.
    """
    order = 2.0 + dist.tail_exponent
    if dist.family == "pareto" and dist.params["index"] <= order:
        mean = _truncated_moment(dist, 1.0) if dist.params["index"] > 1 else math.inf
        var = math.inf
        if dist.params["index"] > 2:
            m2 = _truncated_moment(dist, 2.0)
            var = m2 - mean * mean
        return MomentReport(mean=mean, variance=var, upper_moment=math.inf, finite=False)
    mean = _truncated_moment(dist, 1.0)
    m2 = _truncated_moment(dist, 2.0)
    upper = _truncated_moment(dist, order)
    if not math.isfinite(upper):
        return MomentReport(mean=mean, variance=math.inf, upper_moment=math.inf, finite=False)
    return MomentReport(mean=mean, variance=max(m2 - mean * mean, 0.0), upper_moment=upper, finite=True)
