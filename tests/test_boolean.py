import math

import numpy as np
import pytest

from allocperc import geometry
from allocperc.allocation import PointConfiguration, SiteGrid, gale_shapley
from allocperc.appetite import AppetiteDistribution, sample_appetites
from allocperc.booleanmodel import (
    BooleanModel,
    BooleanModelError,
    build_boolean,
    check_domination,
    compute_radius,
    min_radius,
    tail_statistics,
)
from allocperc.geometry import (
    Domain,
    distance,
    replica_rng,
    sample_poisson,
    unit_ball_volume,
)
from allocperc.validation import bisection_radius_oracle


def unit_square_config(points, appetites, sides=(10.0, 10.0), periodic=True):
    return (
        PointConfiguration(np.asarray(points, dtype=float), np.asarray(appetites, dtype=float)),
        Domain(sides=sides, periodic=periodic),
    )


def test_isolated_center_radius():
    a = 0.7
    config, dom = unit_square_config([[5.0, 5.0]], [a])
    want = (a / math.pi) ** 0.5
    assert compute_radius(0, config, dom) == pytest.approx(want, abs=1e-12)


def test_minimum_radius_formula():
    # scale * floor = pi in d=2 gives a unit minimum radius
    assert min_radius(scale=1.0, floor=math.pi, d=2) == pytest.approx(1.0)
    config, dom = unit_square_config([[5.0, 5.0]], [math.pi])
    assert compute_radius(0, config, dom) == pytest.approx(1.0, abs=1e-12)


def test_two_centers_match_bisection_oracle():
    config, dom = unit_square_config([[4.5], [5.5]], [0.3, 0.3], sides=(10.0,))
    for j in (0, 1):
        fast = compute_radius(j, config, dom)
        slow = bisection_radius_oracle(j, config, dom)
        assert fast == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_sweep_vs_oracle_random(seed):
    dom = Domain(sides=(10.0, 10.0), periodic=bool(seed % 2))
    rng = replica_rng(seed + 40)
    centers = sample_poisson(dom, 0.6, rng)
    if len(centers) == 0:
        pytest.skip("empty draw")
    appetites = rng.uniform(0.02, 0.4, size=len(centers))
    config = PointConfiguration(centers, appetites)
    j = int(rng.integers(len(centers)))
    assert compute_radius(j, config, dom) == pytest.approx(
        bisection_radius_oracle(j, config, dom), abs=1e-9
    )


def test_radius_requires_positive_appetites():
    config, dom = unit_square_config([[1.0, 1.0], [2.0, 2.0]], [0.5, 0.0])
    with pytest.raises(BooleanModelError):
        compute_radius(0, config, dom)
    with pytest.raises(BooleanModelError):
        build_boolean(config, dom)


def test_truncated_cap_semantics():
    a = 0.7
    config, dom = unit_square_config([[5.0, 5.0]], [a])
    r = (a / math.pi) ** 0.5
    assert min(compute_radius(0, config, dom), 2 * r) == pytest.approx(r, abs=1e-12)
    assert min(compute_radius(0, config, dom), r / 2) == pytest.approx(r / 2)
    # cap below the minimum radius: no root at all
    assert min(compute_radius(0, config, dom), 0.01) == pytest.approx(0.01)


@pytest.mark.parametrize("seed", range(10))
def test_truncation_consistency(seed):
    # R < cap or truncated < cap forces equality with the full radius of
    # the whole model
    dom = Domain(sides=(12.0, 12.0), periodic=True)
    rng = replica_rng(seed + 70)
    centers = sample_poisson(dom, 0.8, rng)
    if len(centers) == 0:
        pytest.skip("empty draw")
    config = PointConfiguration(centers, rng.uniform(0.05, 0.5, size=len(centers)))
    cap = 0.6
    radii = build_boolean(config, dom).radii
    for j in range(min(len(centers), 20)):
        full = radii[j]
        trunc = min(compute_radius(j, config, dom), cap)
        if full < cap or trunc < cap:
            assert trunc == full
        else:
            assert trunc == cap


@pytest.mark.parametrize("seed", range(10))
def test_locality_of_truncated_radii(seed):
    # the sub-cap set inside B(x, r) looks the same computed from just B(x, 3r)
    dom = Domain(sides=(20.0, 20.0), periodic=False)
    rng = replica_rng(seed + 90)
    centers = sample_poisson(dom, 0.7, rng)
    if len(centers) < 3:
        pytest.skip("too few centers")
    config = PointConfiguration(centers, rng.uniform(0.05, 0.4, size=len(centers)))
    x = np.array([10.0, 10.0])
    r = 2.0
    d_x = distance(x[None, :], centers, dom)
    inside = d_x < r
    local_mask = d_x < 3 * r
    local = PointConfiguration(centers[local_mask], config.appetites[local_mask])
    global_set = set()
    local_set = set()
    local_ids = np.flatnonzero(local_mask)
    for gi in np.flatnonzero(inside):
        if compute_radius(gi, config, dom) < r:
            global_set.add(gi)
        li = int(np.searchsorted(local_ids, gi))
        if compute_radius(li, local, dom) < r:
            local_set.add(gi)
    assert global_set == local_set


def test_build_boolean_empty():
    config = PointConfiguration(np.zeros((0, 2)), np.zeros(0))
    dom = Domain(sides=(5.0, 5.0), periodic=True)
    model = build_boolean(config, dom)
    assert model.n_balls == 0


def test_build_boolean_floor_bound():
    dom = Domain(sides=(20.0, 20.0), periodic=True)
    rng = replica_rng(11)
    centers = sample_poisson(dom, 1.0, rng)
    dist = AppetiteDistribution("constant", {"value": 1.0}, scale=0.05, floor=1.0)
    appetites = sample_appetites(dist, len(centers), rng)
    config = PointConfiguration(centers, appetites)
    model = build_boolean(config, dom)
    b = min_radius(0.05, 1.0, 2)
    assert b == pytest.approx((0.05 / math.pi) ** 0.5)
    assert np.all(model.radii >= b - 1e-12)
    # the own root of the smallest sampled appetite lies between
    own_root = (appetites.min() / unit_ball_volume(2)) ** 0.5
    assert b <= own_root <= model.radii.min()
    # equality witnessed by an isolated center
    iso_config, iso_dom = unit_square_config([[10.0, 10.0]], [0.05], sides=(20.0, 20.0))
    assert compute_radius(0, iso_config, iso_dom) == pytest.approx(b, abs=1e-12)


def test_build_boolean_matches_per_center_sweep():
    dom = Domain(sides=(15.0, 15.0), periodic=True)
    rng = replica_rng(13)
    centers = sample_poisson(dom, 0.8, rng)
    config = PointConfiguration(centers, rng.uniform(0.05, 0.3, size=len(centers)))
    model = build_boolean(config, dom)
    for j in range(len(centers)):
        assert model.radii[j] == pytest.approx(compute_radius(j, config, dom), abs=1e-12)


def dense_boolean(config, domain):
    """Radii and censoring flags by the all-pairs sweep: one distance matrix,
    one stable row sort and the first admissible root of every row. Shares no
    code with the booleanmodel kernel, whose radii it must match bit for bit."""
    n, d = config.n_centers, domain.dim
    pi_d = unit_ball_volume(d)
    dmat = distance(config.centers[:, None], config.centers[None], domain)
    order = np.argsort(dmat, axis=1, kind="stable")
    sd = np.take_along_axis(dmat, order, axis=1)
    cum = np.cumsum(config.appetites[order], axis=1)
    starts = sd / 2.0
    ends = np.hstack([sd[:, 1:] / 2.0, np.full((n, 1), np.inf)])
    roots = (cum / pi_d) ** (1.0 / d)
    first = np.argmax((roots < ends) & (starts < ends), axis=1)
    rows = np.arange(n)
    radii = np.maximum(starts[rows, first], roots[rows, first])
    sides = np.asarray(domain.sides)
    caps = [min(domain.sides) / 4.0 if domain.periodic
            else float(np.minimum(c, sides - c).min()) / 2.0 for c in config.centers]
    return radii, radii > np.asarray(caps)


@pytest.mark.parametrize("seed", range(24))
def test_build_boolean_matches_dense_sweep(seed):
    d = 1 + seed % 3
    periodic = bool(seed // 3 % 2)
    rng = replica_rng(seed + 300)
    sides = rng.uniform(3.0, 9.0, size=d)
    centers = rng.random((int(rng.integers(20, 150)), d)) * sides
    appetites = rng.uniform(0.05, 1.5, size=len(centers))
    if seed % 4 == 3:  # lattice centers and equal appetites: ties everywhere
        centers = np.floor(centers)
        appetites[:] = 0.4
    if periodic:
        centers[0] = sides  # a coordinate equal to the side length wraps to 0
    config = PointConfiguration(centers, appetites)
    dom = Domain(sides=tuple(sides), periodic=periodic)
    model = build_boolean(config, dom)
    radii, truncated = dense_boolean(config, dom)
    assert np.array_equal(model.radii, radii)
    assert np.array_equal(model.truncated, truncated)


def pareto_instance(seed):
    """Heavy-tailed appetites on a small box: some radii exceed the window,
    so their lists end up holding every center, while most stay small."""
    d = 1 + seed % 3
    periodic = bool(seed // 3 % 2)
    rng = replica_rng(seed + 600)
    sides = rng.uniform(3.0, 7.0, size=d)
    centers = rng.random((int(rng.integers(30, 120)), d)) * sides
    appetites = 0.05 * (1.0 + rng.pareto(0.8, size=len(centers)))
    return PointConfiguration(centers, appetites), Domain(sides=tuple(sides), periodic=periodic)


def assert_matches_dense(config, dom, cap):
    radii, truncated = dense_boolean(config, dom)
    model = build_boolean(config, dom)
    assert np.array_equal(model.radii, radii)
    assert np.array_equal(model.truncated, truncated)
    capped = [min(compute_radius(j, config, dom), cap) for j in range(config.n_centers)]
    assert np.array_equal(capped, np.minimum(radii, cap))
    return radii


@pytest.mark.parametrize("block", [None, 1, 300])
@pytest.mark.parametrize("seed", range(6))
def test_batched_kernel_matches_dense_on_heavy_tails(seed, block, monkeypatch):
    if block is not None:  # a pass then spans many blocks of 1 to 10 rows
        monkeypatch.setattr(geometry, "BLOCK", block)
    config, dom = pareto_instance(seed)
    cap = float(np.median(dense_boolean(config, dom)[0]))
    radii = assert_matches_dense(config, dom, cap)
    far = distance(config.centers[:, None], config.centers[None], dom).max(axis=1)
    assert np.any(2.0 * radii >= far)  # some lists hold every center
    assert np.any(radii > cap) and np.any(radii < cap)  # some radii are clipped at the cap


@pytest.mark.parametrize("seed", range(6))
def test_radius_memory_is_linear_on_heavy_tails(seed, monkeypatch):
    # a Pareto index below 1 makes some rows hold every center; no geometry
    # call of the kernel covers more than max(block, one row) entries
    block = 64
    monkeypatch.setattr(geometry, "BLOCK", block)
    real_nearest, real_distance = geometry.nearest, geometry.distance
    sizes, widths = [], []

    def nearest(tree, pts, k, others, domain):
        sizes.append(len(pts) * min(k, len(others)))
        widths.append(min(k, len(others)))
        return real_nearest(tree, pts, k, others, domain)

    def distance(a, b, domain):
        d = real_distance(a, b, domain)
        sizes.append(d.size)
        return d

    monkeypatch.setattr(geometry, "nearest", nearest)
    monkeypatch.setattr(geometry, "distance", distance)
    config, dom = pareto_instance(seed)
    radii = build_boolean(config, dom).radii
    monkeypatch.undo()
    assert np.array_equal(radii, dense_boolean(config, dom)[0])
    n = config.n_centers
    assert max(sizes) <= max(block, n)
    assert max(widths) == n  # some row holds every center
    assert sum(sizes) > 10 * n  # the kernel ran in many blocks


@pytest.mark.parametrize("block", [None, 1, 240])
@pytest.mark.parametrize("seed", range(6))
def test_batched_kernel_matches_dense_on_lattice_ties(seed, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(geometry, "BLOCK", block)
    d = 1 + seed % 3
    periodic = bool(seed // 3 % 2)
    rng = replica_rng(seed + 700)
    sides = np.full(d, 6.0)
    centers = np.floor(rng.random((60, d)) * sides)  # equidistant neighbours everywhere
    if periodic:
        centers[0] = sides  # a coordinate equal to the side length wraps to 0
    # distinct appetites, so the order of equidistant neighbours moves the sums
    config = PointConfiguration(centers, rng.uniform(0.05, 1.5, size=len(centers)))
    assert_matches_dense(config, Domain(sides=tuple(sides), periodic=periodic), cap=1.0)


def test_open_mode_truncation_flags():
    # a center hugging the wall cannot resolve its 2R-ball
    config, dom = unit_square_config([[0.05, 5.0]], [1.0], periodic=False)
    model = build_boolean(config, dom)
    assert model.truncated[0]


@pytest.mark.parametrize("seed", range(10))
def test_domination_random_instances(seed):
    dom = Domain(sides=(10.0, 10.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.125)
    rng = replica_rng(seed + 200)
    centers = sample_poisson(dom, 1.0, rng)
    if len(centers) == 0:
        pytest.skip("empty draw")
    # scale at half the finiteness threshold with a unit floor
    dist = AppetiteDistribution("constant", {"value": 1.0}, scale=0.125, floor=1.0)
    appetites = sample_appetites(dist, len(centers), rng)
    config = PointConfiguration(centers, appetites)
    alloc = gale_shapley(config, grid)
    model = build_boolean(config, dom)
    assert check_domination(alloc, model, config, grid) == []


def test_domination_single_center_exact():
    a = 0.8
    dom = Domain(sides=(10.0, 10.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.05)
    config = PointConfiguration(np.array([[5.0, 5.0]]), np.array([a]))
    alloc = gale_shapley(config, grid)
    model = build_boolean(config, dom)
    assert model.radii[0] == pytest.approx((a / math.pi) ** 0.5)
    assert check_domination(alloc, model, config, grid) == []


def test_domination_negative_control():
    dom = Domain(sides=(10.0, 10.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.125)
    rng = replica_rng(33)
    centers = sample_poisson(dom, 1.0, rng)
    config = PointConfiguration(centers, np.full(len(centers), 0.2))
    alloc = gale_shapley(config, grid)
    model = build_boolean(config, dom)
    shrunk = BooleanModel(
        centers=model.centers,
        radii=model.radii * 0.5,
        truncated=model.truncated,
    )
    assert check_domination(alloc, shrunk, config, grid) != []


def test_tail_statistics_step_at_constant_radius():
    centers = np.array([[1.0, 1.0], [5.0, 5.0], [9.0, 9.0]])
    b = 0.4
    model = BooleanModel(
        centers=centers,
        radii=np.full(3, b),
        truncated=np.zeros(3, dtype=bool),
    )
    stats = tail_statistics([model])
    assert stats.sup_statistic == pytest.approx(b ** 2, rel=1e-6)


def test_tail_statistics_requires_data():
    centers = np.array([[1.0, 1.0]])
    model = BooleanModel(
        centers=centers, radii=np.array([0.5]),
        truncated=np.array([True]),
    )
    with pytest.raises(BooleanModelError):
        tail_statistics([model])
    with pytest.raises(BooleanModelError):
        tail_statistics([])


def _pooled_models(scale, seeds, dom):
    dist = AppetiteDistribution("constant", {"value": 1.0}, scale=scale, floor=1.0)
    models = []
    for s in seeds:
        rng = replica_rng(s)
        centers = sample_poisson(dom, 1.0, rng)
        if len(centers) == 0:
            continue
        appetites = sample_appetites(dist, len(centers), rng)
        models.append(build_boolean(PointConfiguration(centers, appetites), dom))
    return models


def test_sup_statistic_decreases_with_scale():
    dom = Domain(sides=(20.0, 20.0), periodic=True)
    seeds = range(900, 925)
    lo = tail_statistics(_pooled_models(0.05, seeds, dom))
    hi = tail_statistics(_pooled_models(0.2, seeds, dom))
    assert lo.sup_statistic < hi.sup_statistic


def test_tail_slope_sanity():
    # log-log slope of the upper-decade survival should fall at least like -d
    dom = Domain(sides=(20.0, 20.0), periodic=True)
    stats = tail_statistics(_pooled_models(0.1, range(950, 990), dom))
    r, s = stats.r_grid, stats.survival
    m = (r >= r[np.argmax(s < 0.5)]) & (s > 0)
    slope = np.polyfit(np.log(r[m]), np.log(s[m]), 1)[0]
    assert slope <= -2.0


def _radius_pools():
    rng = replica_rng(17)
    for d in (1, 2, 3):
        for n in (1, 2, 7, 60, 400):
            yield d, rng.exponential(1.0, n)
            yield d, rng.pareto(rng.uniform(0.5, 3.0), n) + 0.1
            yield d, np.round(rng.exponential(1.0, n), 1) + 0.1  # ties
            yield d, np.full(n, rng.uniform(0.1, 2.0))  # all radii equal


def test_sup_statistic_is_the_maximum_over_the_jump_points():
    # brute force: r^d P[R > r] at every jump point x (where it reads
    # x^d #{R >= x} / n) and on a fine grid, which can only approach it
    for case, (d, radii) in enumerate(_radius_pools()):
        # one censored radius of 1e3 on top, which the pool leaves out
        model = BooleanModel(centers=np.zeros((radii.size + 1, d)),
                             radii=np.append(radii, 1e3),
                             truncated=np.arange(radii.size + 1) == radii.size)
        sup = tail_statistics([model]).sup_statistic
        n = radii.size
        jumps = max(x ** d * np.count_nonzero(radii >= x) / n for x in radii)
        fine = np.geomspace(radii.min() * 0.5, radii.max() * 1.001, 10 ** 5)
        grid = np.max(fine ** d * (n - np.searchsorted(np.sort(radii), fine, "right")) / n)
        assert sup == pytest.approx(jumps, rel=1e-12), (case, d)
        assert (1 - 1e-3) * sup <= grid <= sup * (1 + 1e-12), (case, d)


def _pool(radii):
    radii = np.asarray(radii, dtype=float)
    return BooleanModel(centers=np.zeros((radii.size, 2)), radii=radii,
                        truncated=np.zeros(radii.size, dtype=bool))


@pytest.mark.parametrize("radii", [
    [8e-161, 6e-161, 9e-161],  # far below 1e-12
    [0.0, 3e-20, 4e-20],  # an underflowed radius beside positive ones
    [0.3, 0.7, 1.9],
])
def test_tail_grid_starts_at_half_the_smallest_positive_radius(radii):
    stats = tail_statistics([_pool(radii)])
    smallest = min(r for r in radii if r > 0)
    assert stats.r_grid[0] == smallest * 0.5
    assert np.all(np.diff(stats.r_grid) > 0)
    assert stats.survival[0] == np.count_nonzero(np.array(radii) > 0) / len(radii)
    assert stats.survival[-1] == 0


def test_tail_grid_unchanged_above_2e_12():
    # the former start max(smallest / 2, 1e-12) is the same float there
    for smallest in (2.000001e-12, 1e-6, 0.5, 40.0):
        stats = tail_statistics([_pool([smallest, smallest * 3])])
        assert stats.r_grid[0] == max(smallest * 0.5, 1e-12)


@pytest.mark.parametrize("radii", [[0.0, 0.0], [5e-324, 1e-300]],
                         ids=["all-zero", "smallest-subnormal"])
def test_tail_statistics_refuses_underflowed_radii(radii):
    with pytest.raises(BooleanModelError, match="underflow"):
        tail_statistics([_pool(radii)])
