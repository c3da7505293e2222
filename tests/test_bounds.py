import math

import numpy as np
import pytest

from allocperc.appetite import AppetiteDistribution, moment_report
from allocperc.bounds import (
    BoundsError,
    PhaseParams,
    classify_phase,
    finiteness_threshold,
    nagaev_bound,
    poisson_chernoff,
)
from allocperc.geometry import replica_rng
from allocperc.validation import exact_poisson_tail


def test_nagaev_leading_constant():
    # tail_exponent 2: ((4+2)/(2+2))^4 = 5.0625 multiplies n * moment / x^4
    x = 10.0
    got = nagaev_bound(1, x, variance=1e-9, upper_moment=1.0, tail_exponent=2.0)
    assert got == pytest.approx((6.0 / 4.0) ** 4 * x ** -4.0, rel=1e-6)


def test_nagaev_vanishes_at_large_threshold():
    assert nagaev_bound(100, 1e9, 1.0, 1.0, 1.0) < 1e-12


def test_nagaev_clamped_and_validated():
    assert nagaev_bound(100, 0.01, 1.0, 1.0, 1.0) == 1.0
    with pytest.raises(BoundsError):
        nagaev_bound(100, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(BoundsError):
        nagaev_bound(0, 1.0, 1.0, 1.0, 1.0)


def test_nagaev_dominates_exponential_sums():
    # centered unit exponentials: variance 1, positive-part third moment
    # E[(V-1)^3 1_{V>1}] = 6/e by direct integration
    n = 100
    x = 50.0
    upper = 6.0 / math.e
    rng = replica_rng(101)
    samples = rng.exponential(1.0, size=(200_000, n)).sum(axis=1) - n
    emp = float(np.mean(samples > x))
    assert nagaev_bound(n, x, 1.0, upper, 1.0) >= emp


def test_poisson_chernoff_near_mean_is_one():
    assert poisson_chernoff(10.0, 10.0 + 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_poisson_chernoff_dominates_exact_tail():
    for mean in (1.0, 5.0, 10.0, 50.0):
        for ratio in (1.1, 1.5, 2.0, 5.0):
            a = mean * ratio
            assert poisson_chernoff(mean, a) >= exact_poisson_tail(mean, math.ceil(a)) - 1e-12


@pytest.mark.parametrize("mean, threshold, tail", [
    (10.0, 50, 1.8547268838698e-19),  # 1 - (the mass below) cancels to 1.1e-16
    (50.0, 250, 4.116822054435e-90),  # ... and to 0
])
def test_exact_poisson_tail_far_past_the_mean(mean, threshold, tail):
    # an independent check of the expected value: the upper-tail terms, in log space
    logs = [k * math.log(mean) - mean - math.lgamma(k + 1) for k in range(threshold, 4 * threshold)]
    top = max(logs)
    summed = math.exp(top) * math.fsum(math.exp(x - top) for x in logs)
    assert summed == pytest.approx(tail, rel=1e-9, abs=0)
    assert exact_poisson_tail(mean, threshold) == pytest.approx(tail, rel=1e-9, abs=0)
    assert exact_poisson_tail(mean, 0) == 1.0


def test_poisson_chernoff_decreasing_in_threshold():
    values = [poisson_chernoff(10.0, a) for a in np.linspace(10.5, 60.0, 50)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_poisson_chernoff_vanishing_ratio():
    assert poisson_chernoff(1.0, 1e6) < 1e-300 or poisson_chernoff(1.0, 1e6) == 0.0


def test_poisson_chernoff_domain():
    with pytest.raises(BoundsError):
        poisson_chernoff(10.0, 5.0)
    with pytest.raises(BoundsError):
        poisson_chernoff(-1.0, 5.0)


def test_classify_phase():
    assert classify_phase(PhaseParams(1.0, 0.5, 1.0)) == "subcritical"
    assert classify_phase(PhaseParams(2.0, 0.5, 1.0)) == "critical"
    assert classify_phase(PhaseParams(1.0, 3.0, 1.0)) == "supercritical"


@pytest.mark.parametrize("family, params", [
    ("lognormal", {"mu": -0.5, "sigma": 1.0}),
    ("exponential", {"mean": 1.0}),
], ids=["lognormal", "exponential"])
def test_unit_mean_laws_are_critical(family, params):
    mean = moment_report(AppetiteDistribution(family, params)).mean
    assert classify_phase(PhaseParams(1.0, 1.0, mean)) == "critical"


def test_finiteness_threshold_values():
    assert finiteness_threshold(1.0, 2, 1.0) == pytest.approx(0.25)
    assert finiteness_threshold(2.0, 2, 1.0) == pytest.approx(0.125)
    assert finiteness_threshold(1.0, 1, 2.0) == pytest.approx(0.25)
    with pytest.raises(BoundsError, match="inputs must be positive"):
        finiteness_threshold(0.0, 2, 1.0)
