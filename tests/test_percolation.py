import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from allocperc import allocation, geometry, percolation
from allocperc.allocation import PointConfiguration, SiteGrid, gale_shapley
from allocperc.appetite import AppetiteDistribution
from allocperc.booleanmodel import BooleanModel
from allocperc.geometry import Domain, distance, palm_origin, replica_rng, sample_poisson
from allocperc.percolation import (
    PercolationError,
    ball_components,
    claimed_components,
    critical_sweep,
    crossing_event,
    mask_components,
    run_replica,
)
from allocperc.validation import (
    bfs_ball_components_oracle,
    floodfill_mask_oracle,
    same_partition,
)


def make_model(centers, radii):
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    return BooleanModel(
        centers=centers,
        radii=radii,
        min_radius=float(radii.min()) if len(radii) else 0.0,
        truncated=np.zeros(len(radii), dtype=bool),
    )


def test_collinear_chain_is_one_component():
    dom = Domain(sides=(10.0,), periodic=False)
    model = make_model([[2.0], [3.5], [5.0]], [1.0, 1.0, 1.0])
    report = ball_components(model, dom)
    assert report.n_components == 1


def test_tangency_does_not_connect():
    dom = Domain(sides=(10.0,), periodic=False)
    model = make_model([[2.0], [4.0]], [1.0, 1.0])
    report = ball_components(model, dom)
    assert report.n_components == 2


def test_infinite_radius_rejected():
    dom = Domain(sides=(10.0,), periodic=False)
    model = make_model([[2.0]], [np.inf])
    with pytest.raises(PercolationError):
        ball_components(model, dom)


@pytest.mark.parametrize("seed", range(8))
def test_ball_components_match_bfs(seed):
    dom = Domain(sides=(10.0, 10.0), periodic=bool(seed % 2))
    rng = replica_rng(seed + 10)
    centers = sample_poisson(dom, 1.5, rng)
    if len(centers) == 0:
        pytest.skip("empty draw")
    radii = rng.uniform(0.1, 0.7, size=len(centers))
    report = ball_components(make_model(centers, radii), dom)
    assert same_partition(report.labels, bfs_ball_components_oracle(centers, radii, dom))


def overlap_instance(case, d, periodic, seed):
    """Centers and radii on a side-6 box where the per-ball proposal radius
    2 r_i differs most from 2 max r, or where ties decide."""
    rng = replica_rng(seed)
    dom = Domain(sides=(6.0,) * d, periodic=periodic)
    if case.startswith("lattice"):
        # equal radii; 0.5 is tangent to every lattice neighbour, 1.0 overlaps
        # at distances 1 and sqrt(2) and is tangent at 2
        lattice = np.stack(np.meshgrid(*[np.arange(6.0)] * d, indexing="ij"), -1).reshape(-1, d)
        centers = lattice[rng.random(len(lattice)) < 0.7]
        return dom, centers, np.full(len(centers), 0.5 if case == "lattice-tangent" else 1.0)
    centers = sample_poisson(dom, 40.0 / 6.0 ** d, rng)
    if case == "heavy":
        return dom, centers, 0.05 * (1.0 + rng.pareto(1.1, len(centers)))
    radii = rng.uniform(0.05, 0.4, len(centers))
    if case == "wide":  # one ball with 2r above half a side
        radii[0] = 1.8
        return dom, centers, radii
    # duplicated centers, half with the same radius as their twin
    twin = rng.integers(0, len(centers), size=len(centers) // 3)
    twin_radii = radii[twin]
    twin_radii[1::2] = rng.uniform(0.05, 0.4, len(twin) // 2)
    return dom, np.vstack([centers, centers[twin]]), np.concatenate([radii, twin_radii])


@pytest.mark.parametrize("case", ["heavy", "lattice", "lattice-tangent", "duplicates", "wide"])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_components_exact_where_radii_differ_or_tie(case, periodic, d):
    for seed in range(3):
        dom, centers, radii = overlap_instance(case, d, periodic, 100 * d + seed)
        report = ball_components(make_model(centers, radii), dom)
        want = bfs_ball_components_oracle(centers, radii, dom)
        assert same_partition(report.labels, want)
        if case == "lattice-tangent":
            assert report.n_components == len(centers)


def test_ball_components_proposes_per_ball(monkeypatch):
    # One ball of radius 5 among ~2000 of radius ~0.2: a proposal radius of
    # 2 max r recomputes ~325 k distances, per-ball radii ~1 k of the ~4 k
    # pairs within 2 r_i.
    dom = Domain(sides=(40.0, 40.0), periodic=False)
    rng = replica_rng(7)
    centers = sample_poisson(dom, 1.25, rng)
    radii = rng.uniform(0.15, 0.25, len(centers))
    radii[0] = 5.0
    real_distance = percolation.distance
    sizes = []

    def spy(a, b, domain):
        out = real_distance(a, b, domain)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(percolation, "distance", spy)
    ball_components(make_model(centers, radii), dom)
    within = int((distance(centers[:, None], centers[None], dom) <= 2 * radii[:, None]).sum())
    assert sizes[0] <= within  # the first distances recomputed are the proposed pairs


def crossing_event_brute(model, dom, x, radius_low, beta):
    sel = (model.radii >= radius_low) & (model.radii <= beta)
    centers, radii = model.centers[sel], model.radii[sel]
    labels = bfs_ball_components_oracle(centers, radii, dom)
    d_x = distance(x, centers, dom)
    return bool(np.intersect1d(labels[d_x < radii + beta], labels[d_x + radii > 2 * beta]).size)


def test_crossing_event_matches_brute_force():
    outcomes = []
    for seed in range(20):
        rng = replica_rng(seed + 300)
        dom = Domain(sides=(20.0, 20.0), periodic=bool(seed % 2))
        centers = sample_poisson(dom, 1.0, rng)
        model = make_model(centers, 0.12 * (1.0 + rng.pareto(1.2, len(centers))))
        beta = rng.uniform(1.5, 3.0)
        x = rng.uniform(3 * beta, 20.0 - 3 * beta, size=2)
        radius_low = rng.choice([0.0, 0.25])
        got = crossing_event(model, dom, x, radius_low, beta)
        assert got == crossing_event_brute(model, dom, x, radius_low, beta)
        outcomes.append(got)
    assert 0 < sum(outcomes) < len(outcomes)


def test_origin_cluster_statistics():
    dom = Domain(sides=(10.0, 10.0), periodic=False)
    # chain through the box center
    model = make_model([[5.0, 5.0], [6.5, 5.0]], [1.0, 1.0])
    report = ball_components(model, dom)
    assert report.origin_component >= 0
    assert report.max_origin_distance == pytest.approx(2.5)
    assert report.diameter == pytest.approx(3.5)
    assert report.max_origin_distance <= report.diameter <= 2 * report.max_origin_distance


def test_grid_all_and_none_claimed():
    dom = Domain(sides=(4.0, 4.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.5)
    full = mask_components(np.ones(grid.shape, dtype=bool), grid)
    assert full.n_components == 1
    assert full.crossing_axes.all()
    assert full.percolates
    empty = mask_components(np.zeros(grid.shape, dtype=bool), grid)
    assert empty.n_components == 0
    assert not empty.percolates


@pytest.mark.parametrize("seed", range(8))
def test_mask_components_match_floodfill(seed):
    dom = Domain(sides=(8.0, 8.0), periodic=bool(seed % 2))
    grid = SiteGrid(domain=dom, spacing=0.25)
    mask = replica_rng(seed + 50).random(grid.shape) < 0.55
    fast = mask_components(mask, grid).labels.reshape(grid.shape)
    slow = floodfill_mask_oracle(mask, dom.periodic)
    on = mask.ravel()
    assert same_partition(fast.ravel()[on], slow.ravel()[on])


def test_crossing_flags_on_a_strip():
    dom = Domain(sides=(6.0, 6.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.5)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[:, 4] = True  # full column along axis 0
    report = mask_components(mask, grid)
    assert report.n_components == 1
    assert report.crossing_axes[0, 0]
    assert not report.crossing_axes[0, 1]


def row_extreme_diameter(cluster, h):
    """Largest midpoint distance of a 2-d cell cluster plus the cell diagonal,
    by brute force over the leftmost and rightmost cell of every row: each
    vertex of the hull, hence each end of the farthest pair, is one of them."""
    ends = []
    for i, row in enumerate(cluster):
        cols = np.flatnonzero(row)
        if cols.size:
            ends += [(i, cols[0]), (i, cols[-1])]
    p = (np.asarray(ends) + 0.5) * h
    diff = p[:, None, :] - p[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=-1)).max()) + h * math.sqrt(2)


@pytest.mark.parametrize("periodic, want", [(False, 30.0), (True, 15.25)])
def test_origin_diameter_of_a_full_box(periodic, want):
    # no cell of a full box has a face-neighbour outside the cluster
    grid = SiteGrid(domain=Domain(sides=(30.0, 30.0), periodic=periodic), spacing=0.25)
    report = mask_components(np.ones(grid.shape, dtype=bool), grid)
    assert report.diameter == pytest.approx(want * math.sqrt(2), rel=1e-12)


def test_origin_diameter_of_an_edge_touching_cluster():
    dom = Domain(sides=(30.0, 30.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.25)
    dist = AppetiteDistribution("exponential", {"mean": 1.0}, scale=0.95)
    alloc, _ = run_replica(dom, grid, 1.0, dist, seed=1, replica=0)
    report = claimed_components(alloc, grid)
    cluster = (report.labels == report.origin_component).reshape(grid.shape)
    assert cluster.sum() > 4000 and cluster[0].any()
    assert report.diameter == pytest.approx(row_extreme_diameter(cluster, 0.25), rel=1e-12)
    assert report.diameter == pytest.approx(42.43, abs=0.005)


@pytest.mark.parametrize("periodic", [False, True])
def test_origin_diameter_of_one_cell(periodic):
    grid = SiteGrid(domain=Domain(sides=(4.0, 4.0), periodic=periodic), spacing=0.5)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[(0, 0) if periodic else (4, 4)] = True  # the cell holding the origin
    report = mask_components(mask, grid)
    assert report.origin_component == 0
    assert report.diameter == pytest.approx(0.5 * math.sqrt(2), rel=1e-12)


def test_periodic_origin_diameter_of_a_torus_with_one_hole():
    # every cell but one is claimed; the farthest minimum-image pairs lie far
    # from the hole, so the cells next to it do not give the diameter
    grid = SiteGrid(domain=Domain(sides=(20.0, 20.0), periodic=True), spacing=0.25)
    mask = np.ones(grid.shape, dtype=bool)
    mask[40, 40] = False
    report = mask_components(mask, grid)
    assert report.diameter == pytest.approx(10.0 * math.sqrt(2) + 0.25 * math.sqrt(2), rel=1e-12)


def all_pairs_diameter(cluster, h, periodic):
    """Largest midpoint distance (minimum-image on a periodic grid) over all
    pairs of cells of a cluster, from integer index differences, plus h*sqrt(d)."""
    idx = np.argwhere(cluster)
    n = np.asarray(cluster.shape)
    diff = np.abs(idx[:, None, :] - idx[None, :, :])
    steps = (np.minimum(diff, n - diff) if periodic else diff) * h
    return float(np.sqrt((steps ** 2).sum(axis=-1)).max()) + h * math.sqrt(cluster.ndim)


@pytest.mark.parametrize("seed", range(12))
def test_periodic_origin_diameter_matches_all_pairs(seed):
    rng = np.random.default_rng(seed + 500)
    d = 1 + seed % 3
    shape = rng.integers(2, 12 if d < 3 else 6, size=d)
    h = 0.5
    sides = tuple(float(m) * h for m in shape)
    mask = rng.random(tuple(shape)) < rng.uniform(0.3, 0.9)
    for periodic in (True, False):
        grid = SiteGrid(domain=Domain(sides=sides, periodic=periodic), spacing=h)
        m = mask.copy()
        m[tuple(0 if periodic else n // 2 for n in shape)] = True  # the cell holding the origin
        report = mask_components(m, grid)
        cluster = (report.labels == report.origin_component).reshape(grid.shape)
        assert report.diameter == pytest.approx(all_pairs_diameter(cluster, h, periodic),
                                                rel=1e-12)


@pytest.mark.parametrize("cells, fft_cells, want", [
    ([(4, 4, 4)], 1, 0.0),  # one cell: prod(2e - 1) = 1, not the 4096 of a padded box
    ([(4, 4, 4), (4, 5, 4), (4, 6, 4), (5, 6, 4)], 3 * 5 * 1, math.sqrt(1.0 + 0.25)),
], ids=["one-cell", "l-shape"])
def test_open_diameter_pads_only_the_component_box(cells, fft_cells, want, monkeypatch):
    grid = SiteGrid(domain=Domain(sides=(4.0,) * 3, periodic=False), spacing=0.5)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[tuple(np.transpose(cells))] = True
    real_rfftn = np.fft.rfftn
    sizes = []

    def spy(a, *args, **kwargs):
        sizes.append(np.asarray(a).size)
        return real_rfftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", spy)
    report = mask_components(mask, grid)
    assert report.origin_component == 0
    assert sizes == [fft_cells]
    assert report.diameter == pytest.approx(want + 0.5 * math.sqrt(3), rel=1e-12)


@pytest.mark.parametrize("periodic", [False, True])
def test_ball_origin_diameter_in_small_blocks(periodic, monkeypatch):
    dom = Domain(sides=(12.0, 12.0), periodic=periodic)
    rng = replica_rng(61)
    centers = np.vstack([palm_origin(dom)[None], sample_poisson(dom, 1.0, rng)])  # a ball covers the origin
    model = make_model(centers, rng.uniform(0.3, 0.9, size=len(centers)))
    want = ball_components(model, dom)
    monkeypatch.setattr(geometry, "BLOCK", 7)
    got = ball_components(model, dom)
    sub = np.flatnonzero(want.labels == want.origin_component)
    assert sub.size > 7
    r = model.radii[sub]
    delta = np.abs(centers[sub][:, None, :] - centers[sub][None, :, :])
    if periodic:
        delta = np.minimum(delta, 12.0 - delta)
    dd = np.sqrt((delta ** 2).sum(axis=-1))
    assert want.diameter == pytest.approx(float((dd + r[:, None] + r[None, :]).max()), rel=1e-12)
    assert got.diameter == want.diameter


def test_crossing_event_no_balls():
    dom = Domain(sides=(20.0, 20.0), periodic=False)
    model = make_model(np.zeros((0, 2)), np.zeros(0))
    assert not crossing_event(model, dom, np.array([10.0, 10.0]), 0.0, 2.0)


def test_crossing_event_single_contained_ball():
    dom = Domain(sides=(20.0, 20.0), periodic=False)
    beta = 2.0
    model = make_model([[10.0, 10.0]], [beta])
    assert not crossing_event(model, dom, np.array([10.0, 10.0]), 0.0, beta)


def test_crossing_event_chain_reaches_out():
    dom = Domain(sides=(40.0, 40.0), periodic=False)
    beta = 2.0
    x = np.array([20.0, 20.0])
    # overlapping chain from x out to distance 2.5 * beta
    offsets = np.arange(0.0, 5.1, 1.0)
    centers = np.stack([20.0 + offsets, np.full_like(offsets, 20.0)], axis=1)
    model = make_model(centers, np.full(len(offsets), 0.8))
    assert crossing_event(model, dom, x, 0.0, beta)


def test_crossing_event_band_filter():
    dom = Domain(sides=(40.0, 40.0), periodic=False)
    beta = 2.0
    x = np.array([20.0, 20.0])
    offsets = np.arange(0.0, 5.1, 1.0)
    centers = np.stack([20.0 + offsets, np.full_like(offsets, 20.0)], axis=1)
    # radii below the band's lower end are excluded, breaking the chain
    model = make_model(centers, np.full(len(offsets), 0.8))
    assert not crossing_event(model, dom, x, 1.0, beta)


def test_crossing_event_window_check():
    dom = Domain(sides=(5.0, 5.0), periodic=False)
    model = make_model([[2.5, 2.5]], [0.5])
    with pytest.raises(PercolationError):
        crossing_event(model, dom, np.array([2.5, 2.5]), 0.0, 2.0)


def small_sweep(replicas=6):
    dom = Domain(sides=(12.0, 12.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.25)
    base = AppetiteDistribution("constant", {"value": 1.0}, scale=1.0, floor=1.0)
    return critical_sweep(dom, grid, 1.0, base, [0.0, 0.3, 1.3], replicas, seed=77)


def test_sweep_endpoints_and_monotonicity():
    result = small_sweep()
    probs = [r.crossing_probability for r in result.rows]
    assert probs[0] == 0.0  # zero scale claims nothing
    assert probs[-1] >= 0.8  # supercritical box is essentially full
    # coupled indicators never switch off as the scale grows
    diffs = np.diff(result.indicators.astype(int), axis=0)
    assert np.all(diffs >= 0)
    assert result.bracket is not None


def test_sweep_requires_open_box_and_sorted_grid():
    dom = Domain(sides=(8.0, 8.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.5)
    base = AppetiteDistribution("constant", {"value": 1.0})
    with pytest.raises(PercolationError):
        critical_sweep(dom, grid, 1.0, base, [0.1, 0.2], 2, seed=1)
    dom2 = Domain(sides=(8.0, 8.0), periodic=False)
    grid2 = SiteGrid(domain=dom2, spacing=0.5)
    with pytest.raises(PercolationError):
        critical_sweep(dom2, grid2, 1.0, base, [0.2, 0.1], 2, seed=1)


def test_boolean_no_crossing_implies_claimed_no_crossing():
    # ball-union domination passes crossing absence down to the claimed set
    dom = Domain(sides=(12.0, 12.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.125)
    from allocperc.booleanmodel import build_boolean

    dist = AppetiteDistribution("constant", {"value": 1.0}, scale=0.1, floor=1.0)
    checked = 0
    for rep in range(10):
        rng = replica_rng(600, rep)
        centers = sample_poisson(dom, 1.0, rng)
        if len(centers) == 0:
            continue
        config = PointConfiguration(centers, dist.quantile(rng.random(len(centers))))
        model = build_boolean(config, dom)
        ball_report = ball_components(model, dom)
        if ball_report.percolates:
            continue
        alloc = gale_shapley(config, grid)
        cell_report = claimed_components(alloc, grid)
        assert not cell_report.percolates
        checked += 1
    assert checked > 0


def test_sweep_counters_are_those_of_cold_solves_at_any_worker_count():
    # the per-thread memo and the thread schedule change no counter
    dom = Domain(sides=(8.0, 8.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.25)
    dist = AppetiteDistribution("exponential", {"mean": 1.0})
    scales = [0.4, 0.8, 1.2]
    want = np.empty((len(scales), 3, 2), dtype=np.int64)
    for rep in range(3):
        for i, a in enumerate(scales):
            allocation._memo.lists = None
            alloc, _ = run_replica(dom, grid, 1.0, replace(dist, scale=a), 9, rep)
            want[i, rep] = alloc.counters["rounds"], alloc.counters["beyond_list"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 3):
            got = critical_sweep(dom, grid, 1.0, dist, scales, 3, seed=9, workers=workers)
            assert np.array_equal(got.counters, want)
    finally:
        sys.setswitchinterval(interval)
    assert want[..., 1].any()
