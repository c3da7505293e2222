"""Random appetite distributions, the floor-truncated variant, and moment diagnostics.

An appetite is scale * max(V, floor) where V is drawn from one of four base
families. The same uniform draw drives the truncated and untruncated variable,
so raising the floor is a pathwise coupling (monotone in the floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, ndtr, ndtri


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
        """Inverse CDF of the base variable V at u in (0, 1); inf past the
        float range."""
        u = np.asarray(u, dtype=float)
        p = self.params
        with np.errstate(over="ignore"):
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
        """Inverse CDF of the appetite scale * max(V, floor); inf past the
        float range."""
        with np.errstate(over="ignore"):
            return self.scale * np.maximum(self.base_quantile(u), self.floor)


def sample_appetites(dist: AppetiteDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. appetites, shape (n,)."""
    return dist.quantile(rng.random(n))


def _truncated_moment(dist: AppetiteDistribution, order: float) -> float:
    """E[max(V, floor)^order] = floor^q P[V <= floor] + E[V^q; V > floor] in
    closed form; inf for a Pareto law with order >= index, and past the float
    range."""
    p, f, q = dist.params, dist.floor, order
    try:
        if dist.family == "constant":
            return max(p["value"], f) ** q
        if dist.family == "exponential":
            # m^q Gamma(q + 1) Q(q + 1, f/m); the first two factors in logs, since
            # either alone can overflow or underflow where their product does not
            tail = math.exp(q * math.log(p["mean"]) + math.lgamma(q + 1.0)) * float(
                gammaincc(q + 1.0, f / p["mean"]))
        elif dist.family == "pareto":  # a x_m^a g^(q - a) / (a - q), g = max(f, x_m)
            if q >= p["index"]:
                return math.inf
            g = max(f, p["scale"])
            tail = p["index"] / (p["index"] - q) * g ** q * (p["scale"] / g) ** p["index"]
        else:  # e^(q mu + q^2 sigma^2 / 2) Phi(q sigma - z), z = (ln f - mu) / sigma
            z = (math.log(f) - p["mu"]) / p["sigma"] if f > 0 else -math.inf
            tail = math.exp(q * p["mu"] + 0.5 * (q * p["sigma"]) ** 2) * float(
                ndtr(q * p["sigma"] - z))
        return f ** q * _base_cdf(dist, f) + tail
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
        return float(ndtr((math.log(v) - p["mu"]) / p["sigma"])) if v > 0 else 0.0
    raise AssertionError(dist.family)


@dataclass(frozen=True)
class MomentReport:
    mean: float
    variance: float
    upper_moment: float  # E[max(V, floor)^(2 + tail_exponent)]
    finite: bool


def moment_report(dist: AppetiteDistribution) -> MomentReport:
    """Moments of the floor-truncated base variable max(V, floor).

    upper_moment is the (2 + tail_exponent)-moment, inf when it is infinite
    (a Pareto index <= 2 + tail_exponent) or past the float range; finite
    flags it finite. The variance is finite whenever E[max(V, floor)^2] is.
    """
    mean = _truncated_moment(dist, 1.0)
    m2 = _truncated_moment(dist, 2.0)
    upper = _truncated_moment(dist, 2.0 + dist.tail_exponent)
    var = max(m2 - mean * mean, 0.0) if math.isfinite(m2) else math.inf
    return MomentReport(mean=mean, variance=var, upper_moment=upper, finite=math.isfinite(upper))
