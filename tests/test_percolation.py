import math
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from allocperc import allocation, booleanmodel, geometry, percolation, validation
from allocperc.allocation import PointConfiguration, SiteGrid, gale_shapley
from allocperc.appetite import AppetiteDistribution, sample_appetites
from allocperc.booleanmodel import BooleanModel, build_boolean, compute_radius
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
    # 2 max r recomputes ~650 k distances, per-ball radii only the ~4 k pairs
    # within 2 r_i.
    dom = Domain(sides=(40.0, 40.0), periodic=False)
    rng = replica_rng(7)
    centers = sample_poisson(dom, 1.25, rng)
    radii = rng.uniform(0.15, 0.25, len(centers))
    radii[0] = 5.0
    within = int((distance(centers[:, None], centers[None], dom) <= 2 * radii[:, None]).sum())
    real_distance = geometry.distance
    sizes = []

    def spy(a, b, domain):
        out = real_distance(a, b, domain)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(geometry, "distance", spy)  # the kernel geometry.within calls
    ball_components(make_model(centers, radii), dom)
    assert 0 < sum(sizes) <= within  # only the proposed pairs are recomputed


LAWS = [AppetiteDistribution("exponential", {"mean": 1.0}, scale=0.15, floor=0.5),
        AppetiteDistribution("pareto", {"scale": 0.5, "index": 1.1}, scale=0.15, floor=0.5),
        AppetiteDistribution("lognormal", {"mu": -0.5, "sigma": 1.0}, scale=0.15, floor=0.5)]


def built_models(d, periodic):
    """build_boolean configs on a small box: each law with Poisson, lattice
    and duplicated centers."""
    dom = Domain(sides={1: (40.0,), 2: (9.0, 9.0), 3: (4.0, 4.0, 4.0)}[d], periodic=periodic)
    for n, (law, kind) in enumerate((law, kind) for law in LAWS for kind in range(3)):
        rng = replica_rng(40 * d + 20 * periodic + n, 5)
        centers = sample_poisson(dom, 1.0, rng)
        if kind == 1:  # lattice sites, some shared
            centers = np.floor(centers)
        elif kind == 2:  # a third of the centers duplicated
            twins = rng.integers(0, len(centers), len(centers) // 3)
            centers = np.vstack([centers, centers[twins]])
        yield PointConfiguration(centers, sample_appetites(law, len(centers), rng)), dom


def report_fields(report):
    return (report.labels, report.component_sizes, report.crossing_axes, report.origin_component,
            report.max_origin_distance, report.diameter)


def spy_kd_trees(monkeypatch):
    calls = []

    def kd_tree(points, domain):
        calls.append(len(points))
        return geometry.kd_tree(points, domain)

    monkeypatch.setattr(booleanmodel, "kd_tree", kd_tree)
    return calls


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_components_same_from_the_build_rows_as_from_a_kd_tree(d, periodic, monkeypatch):
    calls = spy_kd_trees(monkeypatch)
    for config, dom in built_models(d, periodic):
        model = build_boolean(config, dom)
        assert calls.pop() == config.n_centers  # the radius kernel's tree
        warm = ball_components(model, dom)
        assert calls == []  # the edges came from the build
        cold = ball_components(replace(model), dom)
        assert calls.pop() == config.n_centers
        for a, b in zip(report_fields(warm), report_fields(cold)):
            assert np.array_equal(a, b)
        assert same_partition(warm.labels,
                              bfs_ball_components_oracle(model.centers, model.radii, dom))


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_changed_radii_miss_the_build_rows(factor, monkeypatch):
    config, dom = next(built_models(2, False))
    model = build_boolean(config, dom)
    calls = spy_kd_trees(monkeypatch)
    model = replace(model, radii=model.radii * factor)
    report = ball_components(model, dom)
    assert model.edges is None and calls == [config.n_centers]
    assert same_partition(report.labels,
                          bfs_ball_components_oracle(model.centers, model.radii, dom))


def heavy_tail_model(seed):
    """A build_boolean model whose rows hold more than 64 triples: a Pareto
    index below 1 gives rows holding every center."""
    rng = replica_rng(seed + 600)
    d = 1 + seed % 3
    dom = Domain(sides=tuple(rng.uniform(3.0, 7.0, size=d)), periodic=bool(seed // 3 % 2))
    centers = rng.random((int(rng.integers(30, 120)), d)) * np.asarray(dom.sides)
    config = PointConfiguration(centers, 0.05 * (1.0 + rng.pareto(0.8, size=len(centers))))
    model = build_boolean(config, dom)
    assert (distance(centers[:, None], centers[None], dom) < 2.0 * model.radii[:, None]).sum() > 64
    return model, dom


@pytest.mark.parametrize("seed", range(6))
def test_rows_past_one_block_are_not_kept(seed, monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK", 64)
    model, dom = heavy_tail_model(seed)
    assert model.edges is None
    assert same_partition(ball_components(model, dom).labels,
                          bfs_ball_components_oracle(model.centers, model.radii, dom))


@pytest.mark.parametrize("seed", range(6))
def test_a_miss_computes_its_distances_in_blocks(seed, monkeypatch):
    # the overlap pairs of a model that carries no edges come from
    # geometry.within, whose blocks hold at most BLOCK pairs or one ball's
    monkeypatch.setattr(geometry, "BLOCK", 64)
    model, dom = heavy_tail_model(seed)
    assert model.edges is None
    sizes, real = [], geometry.distance

    def distance_spy(a, b, domain):
        out = real(a, b, domain)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(geometry, "distance", distance_spy)
    monkeypatch.setattr(percolation, "distance", distance_spy)
    labels = ball_components(model, dom).labels
    assert sizes and max(sizes) <= max(64, model.n_balls)
    assert np.array_equal(labels, bfs_ball_components_oracle(model.centers, model.radii, dom))


@pytest.mark.parametrize("n", [0, 1])
def test_build_rows_of_no_center_or_one(n, monkeypatch):
    dom = Domain(sides=(4.0, 4.0), periodic=False)
    model = build_boolean(PointConfiguration(np.full((n, 2), 2.0), np.ones(n)), dom)
    calls = spy_kd_trees(monkeypatch)
    report = ball_components(model, dom)
    assert report.n_components == n and report.labels.tolist() == [0] * n
    assert report.origin_component == n - 1  # the one ball covers the box center
    assert len(calls) == 1 - n  # a build of no center derives no edges


def test_compute_radius_keeps_the_build_rows(monkeypatch):
    calls = spy_kd_trees(monkeypatch)
    (config, dom), (other, _) = list(built_models(2, True))[:2]
    model = build_boolean(config, dom)
    compute_radius(0, other, dom)
    compute_radius(1, config, dom)
    ball_components(model, dom)
    # the trees of the build and the two radii only: the radii leave its edges be
    assert calls == [config.n_centers, other.n_centers, config.n_centers]


def test_a_solve_keeps_the_build_rows(monkeypatch):
    # a solve keeps nothing on the model, so its edges outlast the solve
    calls = spy_kd_trees(monkeypatch)
    config, dom = next(built_models(2, False))
    model = build_boolean(config, dom)
    gale_shapley(config, SiteGrid(domain=dom, spacing=0.5))
    ball_components(model, dom)
    assert calls == [config.n_centers]  # the build's radius tree only


def test_build_rows_stay_with_their_thread(monkeypatch):
    # each thread labels the model it built from that model's edges, however
    # the threads interleave
    configs = list(built_models(2, False))
    want = [ball_components(build_boolean(config, dom), dom).labels for config, dom in configs]
    calls = spy_kd_trees(monkeypatch)

    def task(config_dom):
        config, dom = config_dom
        return ball_components(build_boolean(config, dom), dom).labels
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = percolation.map_ordered(task, configs, workers=3)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == sorted(config.n_centers for config, _ in configs)  # builds only
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("block", [geometry.BLOCK, 7])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_crossing_event_on_a_built_model_reuses_its_edges(d, periodic, block, monkeypatch):
    models = [(build_boolean(config, dom), dom) for config, dom in built_models(d, periodic)]
    monkeypatch.setattr(geometry, "BLOCK", block)  # the edgeless copies' blocks
    calls, answers = spy_kd_trees(monkeypatch), []
    for model, dom in models:
        sides, r = np.asarray(dom.sides), model.radii
        # the largest ball a window fits crosses it alone from x 1.5 r off its center
        k = int(np.argmax(np.where(r <= sides.min() / 6, r, -1.0)))
        lone = model.centers[k] + 1.5 * r[k] * np.eye(d)[0]
        for x, beta in [(lone, r[k])] + [(sides / 2, sides.min() / f) for f in (6, 12, 24)]:
            if periodic or (np.all(x >= 3 * beta) and np.all(x + 3 * beta <= sides)):
                for low in (0.0, float(np.median(r))):
                    got = [crossing_event(m, dom, x, low, beta) for m in (model, replace(model))]
                    assert got == [crossing_event_brute(model, dom, x, low, beta)] * 2
                    answers.append(got[0])
    assert len(calls) == len(answers)  # one tree per band, the edgeless copy's
    assert any(answers) and not all(answers)


def test_a_built_model_cannot_go_stale():
    config, dom = next(built_models(2, True))
    model = build_boolean(config, dom)
    for field in (model.centers, model.radii, model.edges):
        with pytest.raises(ValueError):
            field[0] = 0.0
    with pytest.raises(TypeError):  # edges cannot be passed in
        BooleanModel(model.centers, model.radii, model.truncated, model.edges)
    grown = replace(model, radii=model.radii * 1.5)
    assert grown.edges is None
    assert np.array_equal(ball_components(grown, dom).labels,
                          bfs_ball_components_oracle(grown.centers, grown.radii, dom))


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
    # the labels are the flood fill's, numbered in order of first cell, -1 off
    # the mask; d = 1, 2 and 3 with some axes of one and two cells
    periodic = bool(seed % 2)
    rng = replica_rng(seed + 50)
    for shape in [(40,), (1,), (2,), (32, 32), (1, 17), (2, 9), (13, 2),
                  (9, 7, 5), (1, 6, 2), (2, 1, 11)]:
        grid = SiteGrid(domain=Domain(sides=tuple(0.25 * n for n in shape),
                                      periodic=periodic), spacing=0.25)
        mask = rng.random(shape) < 0.55
        labels = mask_components(mask, grid).labels
        assert labels.dtype == np.int64 and labels.shape == (mask.size,)
        assert np.array_equal(labels, floodfill_mask_oracle(mask, periodic).ravel())


@pytest.mark.parametrize("d, ax", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_mask_components_join_across_wrapped_faces(d, ax):
    # a band along axis ax whose halves meet only across its wrapped face
    shape = (6,) * d
    mask = np.zeros(shape, dtype=bool)
    band = [slice(2, 4)] * d
    band[ax] = slice(None)
    mask[tuple(band)] = True
    mask[(slice(None),) * ax + (3,)] = False
    for periodic, want in [(False, 2), (True, 1)]:
        grid = SiteGrid(domain=Domain(sides=(6.0,) * d, periodic=periodic), spacing=1.0)
        report = mask_components(mask, grid)
        assert report.n_components == want
        assert np.array_equal(report.labels, floodfill_mask_oracle(mask, periodic).ravel())


@pytest.mark.parametrize("seed", range(4))
def test_components_number_in_order_of_first_member(seed):
    # shuffled, flipped and duplicated edges give the labels of a union-find
    # renumbered in order of each component's first member
    rng = replica_rng(seed + 90)
    n = 80
    edges = rng.integers(0, n, size=(50, 2))
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in edges.tolist():
        parent[root(i)] = root(j)
    first = {}
    want = [first.setdefault(root(i), len(first)) for i in range(n)]
    edges = np.concatenate([edges, edges[:, ::-1], edges[:20]])[rng.permutation(120)]
    labels = percolation._components(n, edges)
    assert labels.dtype == np.int64 and labels.tolist() == want


def test_crossing_flags_on_a_strip():
    dom = Domain(sides=(6.0, 6.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.5)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[:, 4] = True  # full column along axis 0
    report = mask_components(mask, grid)
    assert report.n_components == 1
    assert report.crossing_axes[0, 0]
    assert not report.crossing_axes[0, 1]


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
    assert report.diameter == pytest.approx(all_pairs_diameter(cluster, 0.25, False), rel=1e-12)
    assert report.diameter == pytest.approx(42.43, abs=0.005)
    for e in (12, 120):  # a random cluster through a full middle row and column
        grid = SiteGrid(domain=Domain(sides=(e * 0.25,) * 2, periodic=False), spacing=0.25)
        mask = np.random.default_rng(e).random(grid.shape) < 0.5
        mask[e // 2, :] = mask[:, e // 2] = True
        report = mask_components(mask, grid)
        cluster = (report.labels == report.origin_component).reshape(grid.shape)
        assert report.diameter == pytest.approx(all_pairs_diameter(cluster, 0.25, False),
                                                rel=1e-12)


@pytest.mark.parametrize("periodic", [False, True])
def test_origin_diameter_of_one_cell(periodic):
    for d in (2, 3):
        grid = SiteGrid(domain=Domain(sides=(4.0,) * d, periodic=periodic), spacing=0.5)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[(0 if periodic else 4,) * d] = True  # the cell holding the origin
        report = mask_components(mask, grid)
        assert report.origin_component == 0
        assert report.diameter == pytest.approx(0.5 * math.sqrt(d), rel=1e-12)


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
    pairs of cells of a cluster, from integer index differences, plus
    h*sqrt(d); 256 cells against all at a time."""
    idx = np.argwhere(cluster).astype(np.int32)
    far = 0
    for s in range(0, len(idx), 256):
        sq = 0
        for ax, n in enumerate(cluster.shape):
            diff = np.abs(idx[s:s + 256, None, ax] - idx[None, :, ax])
            if periodic:
                diff = np.minimum(diff, n - diff)
            sq = sq + diff * diff
        far = max(far, int(sq.max()))
    return math.sqrt(far) * h + h * math.sqrt(cluster.ndim)


def all_members_reach(cluster, h, periodic):
    """Largest distance from the origin (the box center, or the corner of a
    torus) to the midpoint of a cell of a cluster, plus h*sqrt(d)/2."""
    sides = np.asarray(cluster.shape) * h
    delta = np.abs((np.argwhere(cluster) + 0.5) * h - (0.0 if periodic else sides / 2))
    if periodic:
        delta = np.minimum(delta, sides - delta)
    return float(np.sqrt((delta ** 2).sum(axis=-1)).max()) + h * math.sqrt(cluster.ndim) / 2


@pytest.mark.parametrize("seed", range(12))
def test_periodic_origin_diameter_matches_all_pairs(seed):
    # 25 masks a seed, each open and periodic: random boxes in d = 1-3, a
    # one-row and a one-column box, and a 3-d diagonal staircase, every cell
    # of which is the first or last on each axis line through it
    rng = np.random.default_rng(seed + 500)
    h = 0.5
    masks = []
    for i in range(22):
        d = 1 + i % 3
        shape = tuple(rng.integers(1, 12 if d < 3 else 6, size=d))
        masks.append(rng.random(shape) < rng.uniform(0.3, 0.9))
    masks += [rng.random((1, 11)) < 0.7, rng.random((11, 1)) < 0.7]
    n = 3 + seed % 5
    level = np.indices((n,) * 3).sum(axis=0) - 3 * (n // 2)
    masks.append((level == 0) | (level == 1 - 2 * (seed % 2)))
    for mask in masks:
        for periodic in (True, False):
            grid = SiteGrid(domain=Domain(sides=tuple(h * m for m in mask.shape),
                                          periodic=periodic), spacing=h)
            m = mask.copy()
            m[tuple(k // 2 for k in m.shape)] = True  # the cell holding the origin in a box,
            if periodic:  # rolled to the corner on a torus
                m = np.roll(m, [-(k // 2) for k in m.shape], range(m.ndim))
            report = mask_components(m, grid)
            cluster = (report.labels == report.origin_component).reshape(grid.shape)
            assert report.diameter == pytest.approx(all_pairs_diameter(cluster, h, periodic),
                                                    rel=1e-12)
            assert report.max_origin_distance == pytest.approx(
                all_members_reach(cluster, h, periodic), rel=1e-12)


def spy_census(monkeypatch):
    """Record the shape of each FFT and the cells each diameter scan reads."""
    ffts, scanned = [], []
    real_rfftn, real_diameter = np.fft.rfftn, percolation._component_diameter
    monkeypatch.setattr(np.fft, "rfftn", lambda a, *args, **kwargs: (
        ffts.append(np.shape(a)) or real_rfftn(a, *args, **kwargs)))
    monkeypatch.setattr(percolation, "_component_diameter", lambda cells, grid: (
        scanned.append(cells.tolist()) or real_diameter(cells, grid)))
    return ffts, scanned


@pytest.mark.parametrize("cells, hull, want", [
    ([(4, 4, 4)], [[4, 4, 4]], 0.0),
    ([(4, 4, 4), (4, 5, 4), (4, 6, 4), (5, 6, 4)], [[4, 4, 4], [4, 6, 4], [5, 6, 4]],
     math.sqrt(1.0 + 0.25)),
], ids=["one-cell", "l-shape"])
def test_open_diameter_pads_only_the_component_box(cells, hull, want, monkeypatch):
    # in a box no FFT pads even the component's bounding box: the census reads
    # only the cells first or last on every axis line (an L's three corners)
    grid = SiteGrid(domain=Domain(sides=(4.0,) * 3, periodic=False), spacing=0.5)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[tuple(np.transpose(cells))] = True
    ffts, scanned = spy_census(monkeypatch)
    report = mask_components(mask, grid)
    assert report.origin_component == 0
    assert ffts == [] and scanned == [hull]
    assert report.diameter == pytest.approx(want + 0.5 * math.sqrt(3), rel=1e-12)


@pytest.mark.parametrize("e", [12, 120])
def test_open_diameter_on_a_fast_fft_length(e, monkeypatch):
    # one component spans the e x e box; 2e - 1 (23, 239) is prime, but a box
    # runs no FFT (a full box reads its 4 corners) and a torus autocorrelates
    # on its own grid, e (12 = 2^2 3, 120 = 2^3 3 5) cells an axis
    h = 0.25
    grid = SiteGrid(domain=Domain(sides=(e * h, e * h), periodic=False), spacing=h)
    mask = np.random.default_rng(e).random(grid.shape) < 0.5
    mask[e // 2, :] = mask[:, e // 2] = True
    first = mask_components(mask, grid)
    mask = first.labels.reshape(grid.shape) == first.origin_component
    ffts, scanned = spy_census(monkeypatch)
    report = mask_components(mask, grid)
    assert report.n_components == 1 and report.origin_component == 0
    assert ffts == []
    assert report.diameter == pytest.approx(all_pairs_diameter(mask, h, False), rel=1e-12)
    for periodic in (False, True):
        grid = SiteGrid(domain=Domain(sides=(e * h,) * 2, periodic=periodic), spacing=h)
        mask_components(np.ones(grid.shape, dtype=bool), grid)
    assert ffts == [(e, e)]
    assert scanned[1] == [[0, 0], [0, e - 1], [e - 1, 0], [e - 1, e - 1]]
    assert len(scanned[2]) == e * e


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
            allocation._memo.entry = None
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


def test_every_worker_count_runs_on_the_pool_and_keeps_nothing_in_the_caller(monkeypatch):
    # workers = 1 takes the pool path too: the solves' lists die with the
    # pool thread, and the results are those of 2 and 3
    monkeypatch.setattr(validation, "_CHECKS", tuple(
        row for row in validation._CHECKS
        if row[0] in ("stability", "boolean_model_components_vs_bfs")))
    dom = Domain(sides=(8.0, 8.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.25)
    dist = AppetiteDistribution("exponential", {"mean": 1.0})
    sweeps, checks = [], []
    for workers in (1, 2, 3):
        sweeps.append(critical_sweep(dom, grid, 1.0, dist, [0.4, 0.8, 1.2], 3, seed=9,
                                     workers=workers))
        checks.append(validation.run_validation(3, workers))
        assert vars(allocation._memo) == {}
    for got in sweeps[1:]:
        assert got.rows == sweeps[0].rows and got.bracket == sweeps[0].bracket
        assert np.array_equal(got.indicators, sweeps[0].indicators)
        assert np.array_equal(got.counters, sweeps[0].counters)
    assert checks[1:] == checks[:1] * 2 and len(checks[0]) == 2


def test_a_task_kept_build_dies_with_the_pool():
    grid = SiteGrid(domain=Domain(sides=(4.0, 4.0)), spacing=0.5)
    refs = []

    def task(i):
        lists = allocation._lists(np.array([[1.0, 1.0], [3.0, 2.5]]) + i / 4, grid)
        refs.append(weakref.ref(lists))
        return i

    for workers in (1, 2, 3):
        assert percolation.map_ordered(task, range(5), workers) == list(range(5))
    assert len(refs) == 15 and all(ref() is None for ref in refs)
