import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import allocperc
from allocperc.appetite import (
    AppetiteConfigError,
    AppetiteDistribution,
    _truncated_moment,
    moment_report,
    sample_appetites,
)
from allocperc.geometry import replica_rng


def _density(family, params):
    if family == "exponential":
        m = params["mean"]
        return lambda v: math.exp(-v / m) / m
    if family == "pareto":
        x_m, a = params["scale"], params["index"]
        return lambda v: a * x_m ** a * v ** (-a - 1.0) if v > x_m else 0.0
    mu, sigma = params["mu"], params["sigma"]
    return lambda v: (math.exp(-0.5 * ((math.log(v) - mu) / sigma) ** 2)
                      / (v * sigma * math.sqrt(2.0 * math.pi)) if v > 0 else 0.0)


def oracle_moment(family, params, floor, q):
    """E[max(V, floor)^q] by quadrature of v^q times the density in v-space,
    split at the floor and at the Pareto scale."""
    if family == "constant":
        return max(params["value"], floor) ** q
    if family == "pareto" and q >= params["index"]:
        return math.inf
    pdf = _density(family, params)
    cuts = sorted({0.0, floor, params["scale"] if family == "pareto" else 0.0})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:] + [math.inf]):
        power = (lambda v: floor ** q) if hi <= floor else (lambda v: v ** q)
        total += integrate.quad(lambda v: power(v) * pdf(v), lo, hi,
                                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total


def test_constant_family():
    dist = AppetiteDistribution("constant", {"value": 1.0}, scale=0.5)
    assert sample_appetites(dist, 1, replica_rng(0))[0] == 0.5


def test_zero_scale_is_zero():
    for family, params in [
        ("constant", {"value": 3.0}),
        ("exponential", {"mean": 1.0}),
        ("pareto", {"scale": 1.0, "index": 3.0}),
        ("lognormal", {"mu": 0.0, "sigma": 1.0}),
    ]:
        dist = AppetiteDistribution(family, params, scale=0.0)
        assert np.all(sample_appetites(dist, 100, replica_rng(1)) == 0.0)


def test_truncated_exponential_empirical_mean():
    dist = AppetiteDistribution("exponential", {"mean": 1.0}, scale=1.0, floor=0.2)
    samples = sample_appetites(dist, 100_000, replica_rng(2))
    want = oracle_moment("exponential", {"mean": 1.0}, 0.2, 1.0)
    assert want == pytest.approx(0.2 + math.exp(-0.2), abs=1e-9)
    assert np.mean(samples) == pytest.approx(want, abs=0.01)


def test_samples_never_below_floor():
    dist = AppetiteDistribution("exponential", {"mean": 1.0}, scale=0.7, floor=0.3)
    samples = sample_appetites(dist, 10_000, replica_rng(3))
    assert np.all(samples >= 0.7 * 0.3)


def test_floor_monotone_pathwise():
    # same uniforms, larger floor -> samplewise >=
    lo = AppetiteDistribution("lognormal", {"mu": 0.0, "sigma": 0.5}, floor=0.1)
    hi = AppetiteDistribution("lognormal", {"mu": 0.0, "sigma": 0.5}, floor=0.8)
    u = replica_rng(4).random(5000)
    assert np.all(hi.quantile(u) >= lo.quantile(u))


def test_invalid_parameters_rejected():
    with pytest.raises(AppetiteConfigError):
        AppetiteDistribution("exponential", {"mean": -1.0})
    with pytest.raises(AppetiteConfigError):
        AppetiteDistribution("pareto", {"scale": 1.0})
    with pytest.raises(AppetiteConfigError):
        AppetiteDistribution("gamma", {})


def test_moment_report_constant():
    dist = AppetiteDistribution("constant", {"value": 2.0}, tail_exponent=1.0)
    rep = moment_report(dist)
    assert rep.mean == pytest.approx(2.0)
    assert rep.variance == pytest.approx(0.0)
    assert rep.upper_moment == pytest.approx(8.0)
    assert rep.finite


def test_moment_report_exponential_third_moment():
    # E[V^3] = Gamma(4) = 6 for a unit exponential
    dist = AppetiteDistribution("exponential", {"mean": 1.0}, tail_exponent=1.0)
    rep = moment_report(dist)
    assert rep.mean == pytest.approx(1.0, abs=1e-8)
    assert rep.variance == pytest.approx(1.0, abs=1e-7)
    assert rep.upper_moment == pytest.approx(6.0, abs=1e-6)


def test_moment_report_heavy_pareto_flags_divergence():
    dist = AppetiteDistribution("pareto", {"scale": 1.0, "index": 2.5}, tail_exponent=1.0)
    rep = moment_report(dist)
    assert not rep.finite
    assert rep.upper_moment == math.inf
    # an order at or past the index diverges; a negative "moment" is wrong
    light = AppetiteDistribution("pareto", {"scale": 1.0, "index": 0.8})
    assert _truncated_moment(light, 1.0) == _truncated_moment(light, 0.8) == math.inf


def test_moment_report_variance_survives_an_overflowing_upper_moment():
    # lognormal(0, 15): E[V^2] = e^450 is a float, E[V^3] = e^1012.5 is not
    rep = moment_report(AppetiteDistribution("lognormal", {"mu": 0.0, "sigma": 15.0}))
    assert not rep.finite and rep.upper_moment == math.inf
    assert rep.variance == pytest.approx(math.exp(450.0) - math.exp(225.0), rel=1e-12)


def test_empirical_upper_moment_matches_report():
    dist = AppetiteDistribution("exponential", {"mean": 1.0}, floor=0.5, tail_exponent=1.0)
    rep = moment_report(dist)
    v = np.maximum(dist.base_quantile(replica_rng(6).random(100_000)), 0.5)
    emp = np.mean(v ** 3)
    assert abs(emp - rep.upper_moment) / rep.upper_moment < 0.1


_LAWS = {
    "exp-1": ("exponential", {"mean": 1.0}),
    "exp-2.5": ("exponential", {"mean": 2.5}),
    "pareto-1-3.5": ("pareto", {"scale": 1.0, "index": 3.5}),
    "pareto-0.5-6": ("pareto", {"scale": 0.5, "index": 6.0}),
    "pareto-1-2.5": ("pareto", {"scale": 1.0, "index": 2.5}),
    "pareto-1-1.5": ("pareto", {"scale": 1.0, "index": 1.5}),
    "lognormal-0-1": ("lognormal", {"mu": 0.0, "sigma": 1.0}),
    "lognormal--0.3-0.5": ("lognormal", {"mu": -0.3, "sigma": 0.5}),
    "constant-2": ("constant", {"value": 2.0}),
}


@pytest.mark.parametrize("tail", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("floor", [0.0, 0.3, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("law", _LAWS.values(), ids=_LAWS.keys())
def test_moment_report_matches_quadrature_oracle(law, floor, tail):
    family, params = law
    rep = moment_report(AppetiteDistribution(family, params, floor=floor, tail_exponent=tail))
    mean, m2, upper = (oracle_moment(family, params, floor, q) for q in (1.0, 2.0, 2.0 + tail))
    want = {"mean": mean, "variance": m2 - mean * mean if math.isfinite(m2) else math.inf,
            "upper_moment": upper}
    assert rep.finite == math.isfinite(upper)
    for name, value in want.items():
        got = getattr(rep, name)
        assert math.isinf(got) == math.isinf(value), name
        assert got == pytest.approx(value, rel=1e-9), name


def test_import_leaves_out_quadrature_and_optimizers():
    code = "import sys, allocperc; print(' '.join(sorted(sys.modules)))"
    src = str(Path(allocperc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    modules = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env=env).stdout.split()
    assert "allocperc" in modules
    assert "scipy.integrate" not in modules and "scipy.optimize" not in modules
