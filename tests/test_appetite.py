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
from allocperc.cli import EXIT_CONFIG, main
from allocperc.config import resolve_config
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
    """E[max(V, floor)^q] = floor^q (1 - P[V > floor]) + E[V^q; V > floor],
    both parts above the floor (or the Pareto scale, where that is higher) by
    quadrature of the density in v-space; inf past the float range."""
    try:
        if family == "constant":
            return max(params["value"], floor) ** q
        if family == "pareto" and q >= params["index"]:
            return math.inf
        pdf = _density(family, params)
        lo = max(floor, params["scale"]) if family == "pareto" else floor
        above, tail = (integrate.quad(fn, lo, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                       for fn in (pdf, lambda v: pdf(v) and v ** q * pdf(v)))
        return floor ** q * (1.0 - above) + tail
    except OverflowError:
        return math.inf


def test_constant_family():
    dist = AppetiteDistribution("constant", {"value": 1.0}, scale=0.5)
    assert sample_appetites(dist, 1, replica_rng(0))[0] == 0.5


def test_zero_scale_is_zero():
    for family, params in [
        ("constant", {"value": 3.0}),
        ("exponential", {"mean": 1.0}),
        ("pareto", {"scale": 1.0, "index": 3.0}),
        ("lognormal", {"mu": 0.0, "sigma": 1.0}),
        # base draws past the float range, still finite numbers times 0
        ("lognormal", {"mu": 1e308, "sigma": 1.0}),
        ("pareto", {"scale": 1e308, "index": 3.0}),
        ("pareto", {"scale": 1.0, "index": 0.001}),
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
    with pytest.raises(AppetiteConfigError, match="pareto family needs parameter 'index'"):
        AppetiteDistribution("pareto", {"scale": 1.0})
    with pytest.raises(AppetiteConfigError):
        AppetiteDistribution("gamma", {})


_LAW_DEFAULTS = {"value": "1.0", "mean": "1.0", "pareto_scale": "1.0", "pareto_index": "3.5",
                 "lognormal_mu": "0.0", "lognormal_sigma": "1.0"}


@pytest.mark.parametrize("family, overrides, want", [
    ("constant", {}, {"value": 1.0}),
    ("constant", {"value": "0"}, {"value": 0.0}),
    ("exponential", {}, {"mean": 1.0}),
    ("exponential", {"mean": "2.5"}, {"mean": 2.5}),
    ("exponential", {"pareto_index": "-1", "value": "-1"}, {"mean": 1.0}),  # not its keys
    ("pareto", {}, {"scale": 1.0, "index": 3.5}),
    ("pareto", {"pareto_scale": "0.5"}, {"scale": 0.5, "index": 3.5}),
    ("pareto", {"pareto_index": "6"}, {"scale": 1.0, "index": 6.0}),
    ("lognormal", {}, {"mu": 0.0, "sigma": 1.0}),
    ("lognormal", {"lognormal_mu": "-1e308"}, {"mu": -1e308, "sigma": 1.0}),
    ("lognormal", {"lognormal_sigma": "0.5"}, {"mu": 0.0, "sigma": 0.5}),
])
def test_resolve_config_builds_each_law(family, overrides, want):
    cfg = resolve_config({"family": family, "floor": "0.5", **overrides})
    assert cfg.appetite == AppetiteDistribution(family, want, scale=0.5, floor=0.5)
    assert all(type(v) is float for v in cfg.appetite.params.values())
    assert {k: cfg.raw[k] for k in _LAW_DEFAULTS} == {**_LAW_DEFAULTS, **overrides}


_REFUSED = {  # config key, value: the law, its params and the parameter refused
    ("value", "-1"): ("constant", {"value": -1.0}, "value"),
    ("mean", "0"): ("exponential", {"mean": 0.0}, "mean"),
    ("pareto_scale", "0"): ("pareto", {"scale": 0.0, "index": 3.5}, "scale"),
    ("pareto_index", "0"): ("pareto", {"scale": 1.0, "index": 0.0}, "index"),
    ("lognormal_sigma", "0"): ("lognormal", {"mu": 0.0, "sigma": 0.0}, "sigma"),
}


@pytest.mark.parametrize("key, value", _REFUSED, ids=[f"{k}={v}" for k, v in _REFUSED])
def test_out_of_range_law_values_are_refused(key, value, tmp_path, capsys):
    family, params, name = _REFUSED[key, value]
    with pytest.raises(AppetiteConfigError, match=f"^{family} {name} must be "):
        AppetiteDistribution(family, params)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"sides = 2\nfamily = {family}\n{key} = {value}\n")
    out = tmp_path / "run"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {family} {name} must be "
                   + ("nonnegative" if family == "constant" else "positive")]
    assert not out.exists()


def test_least_law_values_that_are_not_refused():
    AppetiteDistribution("constant", {"value": 0.0})
    AppetiteDistribution("lognormal", {"mu": -math.inf, "sigma": 1.0})  # mu has no bound
    for family, params, name in _REFUSED.values():  # the least float above each refused value
        AppetiteDistribution(family, {**params, name: 5e-324})


_DEFAULT_PARAMS = {"constant": {"value": 1.0}, "exponential": {"mean": 1.0},
                   "pareto": {"scale": 1.0, "index": 3.5}, "lognormal": {"mu": 0.0, "sigma": 1.0}}
_NAN_FIELDS = {  # field: the law, and the keyword arguments that set the field to NaN
    "scale": ("exponential", {"scale": math.nan}),
    "floor": ("exponential", {"floor": math.nan}),
    "tail_exponent": ("exponential", {"tail_exponent": math.nan}),
    **{f"{family} {name}": (family, {"params": {**params, name: math.nan}})
       for family, params in _DEFAULT_PARAMS.items() for name in params},
}


@pytest.mark.parametrize("field", _NAN_FIELDS)
def test_nan_in_any_field_is_refused(field):
    family, kwargs = _NAN_FIELDS[field]
    with pytest.raises(AppetiteConfigError):
        AppetiteDistribution(family, **{"params": _DEFAULT_PARAMS[family], **kwargs})


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
@pytest.mark.parametrize("floor", [0.0, 0.3, 0.5, 1.0, 3.0, 1e-300, 1e300])
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
    # perfbench's setup_s times this import, so it pays for every module loaded here
    assert "scipy.ndimage" not in modules and "allocperc.validation" not in modules
