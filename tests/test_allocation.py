import ast
import inspect
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocperc import allocation, geometry, validation
from allocperc.allocation import (
    UNCLAIMED,
    AllocationResult,
    PointConfiguration,
    SiteGrid,
    gale_shapley,
    phase_diagnostics,
    sample_replica,
    verify_stability,
)
from allocperc.appetite import AppetiteDistribution
from allocperc.booleanmodel import build_boolean
from allocperc.geometry import (
    Domain,
    GeometryError,
    distance,
    replica_rng,
    sample_poisson,
    unit_ball_volume,
)
from allocperc.validation import dense_gale_shapley


def random_instance(seed, periodic=True, sides=(8.0, 8.0), intensity=0.4,
                    spacing=0.25, appetite_range=(0.2, 2.0)):
    dom = Domain(sides=sides, periodic=periodic)
    grid = SiteGrid(domain=dom, spacing=spacing)
    rng = replica_rng(seed)
    centers = sample_poisson(dom, intensity, rng)
    appetites = rng.uniform(*appetite_range, size=len(centers))
    return PointConfiguration(centers, appetites), grid


def test_no_centers_all_unclaimed():
    dom = Domain(sides=(4.0, 4.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.5)
    config = PointConfiguration(np.zeros((0, 2)), np.zeros(0))
    alloc = assert_matches_dense(config, grid)
    assert np.all(alloc.assignment == UNCLAIMED)
    diag = phase_diagnostics(alloc, config, grid)
    assert diag.claimed_volume_fraction == 0.0
    assert diag.fraction_sated == 1.0  # vacuous convention


def test_a_configuration_owns_its_arrays():
    c, a = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0])
    config = PointConfiguration(c, a)
    assert c.flags.writeable and not config.centers.flags.writeable
    c[0, 0], a[0] = 9.0, 5.0
    assert config.centers[0, 0] == 1.0 and config.appetites[0] == 1.0


def test_single_center_territory_is_a_ball():
    # appetite pi -> ball of radius 1; h = radius / 50
    a = math.pi
    dom = Domain(sides=(4.0, 4.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.02)
    config = PointConfiguration(np.array([[2.0, 2.0]]), np.array([a]))
    alloc = gale_shapley(config, grid)
    claimed_vol = alloc.territory_volumes[0]
    assert abs(claimed_vol - a) / a < 0.05
    cells = grid.cell_centers()[alloc.assignment == 0]
    radius = (a / unit_ball_volume(2)) ** 0.5
    dists = np.hypot(cells[:, 0] - 2.0, cells[:, 1] - 2.0)
    assert np.all(dists <= radius + grid.spacing * math.sqrt(2))


def test_two_far_centers_one_dim():
    # far-apart centers on a line claim intervals of their appetite length
    dom = Domain(sides=(10.0,), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.05)
    config = PointConfiguration(np.array([[3.0], [7.0]]), np.array([2.0, 2.0]))
    alloc = gale_shapley(config, grid)
    cells = grid.cell_centers()[:, 0]
    for c, center in ((0, 3.0), (1, 7.0)):
        terr = cells[alloc.assignment == c]
        assert alloc.territory_volumes[c] == pytest.approx(2.0, abs=grid.spacing)
        assert terr.min() == pytest.approx(center - 1.0, abs=2 * grid.spacing)
        assert terr.max() == pytest.approx(center + 1.0, abs=2 * grid.spacing)
    assert np.all(alloc.sated)
    mid = (cells > 4.2) & (cells < 5.8)
    assert np.all(alloc.assignment[mid] == UNCLAIMED)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("periodic", [True, False])
def test_random_instances_are_stable(seed, periodic):
    config, grid = random_instance(seed, periodic=periodic)
    alloc = gale_shapley(config, grid)
    assert verify_stability(alloc, config, grid) == []


def test_determinism():
    config, grid = random_instance(123)
    a = gale_shapley(config, grid)
    b = gale_shapley(config, grid)
    np.testing.assert_array_equal(a.assignment, b.assignment)


def test_territory_volume_bounded_by_appetite():
    config, grid = random_instance(7, appetite_range=(0.05, 3.0))
    alloc = gale_shapley(config, grid)
    assert np.all(alloc.territory_volumes <= config.appetites + grid.cell_volume + 1e-12)


def test_adversarial_swap_breaks_stability():
    config, grid = random_instance(99, intensity=0.2, appetite_range=(1.0, 2.0))
    alloc = gale_shapley(config, grid)
    assert config.n_centers >= 2
    # swap one cell between the two largest territories
    sizes = [(np.count_nonzero(alloc.assignment == c), c) for c in range(config.n_centers)]
    sizes.sort(reverse=True)
    c1, c2 = sizes[0][1], sizes[1][1]
    assign = alloc.assignment.copy()
    cells = grid.cell_centers()
    from allocperc.geometry import distance

    t1 = np.flatnonzero(assign == c1)
    t2 = np.flatnonzero(assign == c2)
    # pick the cell of territory 1 closest to center 2 and vice versa
    i = t1[np.argmin(distance(cells[t1], config.centers[c2][None, :], grid.domain))]
    j = t2[np.argmin(distance(cells[t2], config.centers[c1][None, :], grid.domain))]
    assign[i], assign[j] = c2, c1
    from allocperc.allocation import AllocationResult

    tampered = AllocationResult(
        assignment=assign,
        territory_volumes=alloc.territory_volumes,
        sated=alloc.sated,
        grid_shape=alloc.grid_shape,
    )
    assert verify_stability(tampered, config, grid) != []


def test_all_unclaimed_with_unsated_center_is_unstable():
    dom = Domain(sides=(4.0, 4.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.5)
    config = PointConfiguration(np.array([[2.0, 2.0]]), np.array([1.0]))
    from allocperc.allocation import AllocationResult

    empty = AllocationResult(
        assignment=np.full(grid.n_cells, UNCLAIMED, dtype=np.int64),
        territory_volumes=np.zeros(1),
        sated=np.zeros(1, dtype=bool),
        grid_shape=grid.shape,
    )
    assert verify_stability(empty, config, grid) != []


def test_tie_cell_between_equidistant_centers():
    dom = Domain(sides=(10.0,), periodic=False)
    grid = SiteGrid(domain=dom, spacing=1.0)
    # cell midpoint 4.5 is exactly equidistant from centers at 4.0 and 5.0,
    # each of quota 1; center 0 takes cell 3 (key (0.5, 3) before (0.5, 4)),
    # so cell 4 goes on to center 1 and cell 5 finds both full
    config = PointConfiguration(np.array([[4.0], [5.0]]), np.array([0.5, 0.5]))
    alloc = gale_shapley(config, grid)
    assert alloc.assignment.tolist() == [-1, -1, -1, 0, 1, -1, -1, -1, -1, -1]
    assert verify_stability(alloc, config, grid) == []


def test_zero_scale_claims_nothing():
    config, grid = random_instance(5, appetite_range=(0.0, 0.0))
    alloc = gale_shapley(config, grid)
    diag = phase_diagnostics(alloc, config, grid)
    assert diag.claimed_volume_fraction == 0.0
    assert diag.fraction_sated == 1.0


def _coupled_monotone(config_small, config_big, grid):
    """Distance inequality and claimed-set inclusion for a coupled pair."""
    a1 = gale_shapley(config_small, grid)
    a2 = gale_shapley(config_big, grid)
    cells = grid.cell_centers()
    from allocperc.geometry import distance

    d1 = np.full(grid.n_cells, np.inf)
    m1 = a1.assignment >= 0
    d1[m1] = distance(cells[m1], config_small.centers[a1.assignment[m1]], grid.domain)
    d2 = np.full(grid.n_cells, np.inf)
    m2 = a2.assignment >= 0
    d2[m2] = distance(cells[m2], config_big.centers[a2.assignment[m2]], grid.domain)
    assert np.all(d1 >= d2 - 1e-9)
    # claimed-set inclusion
    assert not np.any(m1 & ~m2)


@pytest.mark.parametrize("seed", range(5))
def test_monotonicity_in_centers(seed):
    config, grid = random_instance(seed + 300, intensity=0.5, appetite_range=(0.2, 1.0))
    if config.n_centers < 2:
        pytest.skip("degenerate draw")
    keep = replica_rng(seed + 400).random(config.n_centers) < 0.6
    small = PointConfiguration(config.centers[keep], config.appetites[keep])
    _coupled_monotone(small, config, grid)


@pytest.mark.parametrize("seed", range(5))
def test_monotonicity_in_scale(seed):
    config, grid = random_instance(seed + 500, intensity=0.5, appetite_range=(0.2, 1.0))
    big = PointConfiguration(config.centers, config.appetites * 2.0)
    _coupled_monotone(config, big, grid)


@pytest.mark.parametrize("seed", range(5))
def test_monotonicity_in_floor(seed):
    # pathwise max(V, floor) coupling: claimed set only grows with the floor
    config, grid = random_instance(seed + 600, intensity=0.5, appetite_range=(0.1, 0.8))
    floored = PointConfiguration(config.centers, np.maximum(config.appetites, 0.5))
    _coupled_monotone(config, floored, grid)


# --- sparse preference lists against the dense oracle ------------------------

def assert_matches_dense(config, grid):
    fast = gale_shapley(config, grid)
    slow = dense_gale_shapley(config, grid)
    assert np.array_equal(fast.assignment, slow.assignment)
    assert np.array_equal(fast.territory_volumes, slow.territory_volumes)
    assert np.array_equal(fast.sated, slow.sated)
    return fast


def test_dense_walk_names_no_solver_code():
    # the oracle may share the metric and the result type, never the solver
    tree = ast.parse(inspect.getsource(validation.dense_gale_shapley))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"gale_shapley", "_lists", "_ranked", "_first_eligible", "_next_key",
                        "kd_tree", "nearest", "nearest_until", "within", "kept", "keep", "_memo"}


def greedy_pass(config, grid):
    """The stable assignment as one pass over the (cell, center) pairs in
    (distance, cell, center) order: a pair is kept when its cell is still
    free and its center below quota."""
    n = config.n_centers
    assign = np.full(grid.n_cells, UNCLAIMED, dtype=np.int64)
    if n == 0:
        return assign
    dist = distance(grid.cell_centers()[:, None], config.centers[None], grid.domain)
    cell, center = np.divmod(np.lexsort((np.tile(np.arange(n), grid.n_cells),
                                         np.repeat(np.arange(grid.n_cells), n), dist.ravel())), n)
    room = allocation.cell_quotas(config.appetites, grid.cell_volume).tolist()
    for x, c in zip(cell.tolist(), center.tolist()):
        if assign[x] == UNCLAIMED and room[c] > 0:
            assign[x] = c
            room[c] -= 1
    return assign


def tied_owners(alloc, config, grid):
    """Claimed cells whose owner is as near as some other center: the cells
    the index tie-break decides."""
    claimed = np.flatnonzero(alloc.assignment >= 0)
    dist = distance(grid.cell_centers()[claimed, None], config.centers[None], grid.domain)
    own = dist[np.arange(len(claimed)), alloc.assignment[claimed]]
    return int(np.count_nonzero((dist == own[:, None]).sum(axis=1) > 1))


def lattice(dim, side, step, offset=0.0):
    axis = np.arange(0.0, side, step) + offset
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@pytest.mark.parametrize("k", [1, 2, 8, 32])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_random_instances_match_dense(monkeypatch, k, dim, periodic, seed):
    # k = 1 leaves every list prefix empty, so each candidate comes from a
    # jump; k = 2 sends most cells past their list, k = 8 is the shipped
    # depth and k = 32 lists most of the about 40 centers
    monkeypatch.setattr(allocation, "PREF_K", k)
    side, spacing = {1: (12.0, 0.1), 2: (6.0, 0.25), 3: (3.0, 0.25)}[dim]
    config, grid = random_instance(seed + 40 * dim, periodic=periodic, sides=(side,) * dim,
                                   intensity=40.0 / side ** dim, spacing=spacing,
                                   appetite_range=(0.0, 2.5 * side ** dim / 40.0))
    assert_matches_dense(config, grid)


@pytest.mark.parametrize("k", [1, 2, 4, 8, 32])
@pytest.mark.parametrize("dim,offset", [(1, 0.25), (2, 0.25), (2, 0.0), (3, 0.25)])
@pytest.mark.parametrize("periodic", [True, False])
def test_lattice_ties_match_dense(monkeypatch, k, dim, offset, periodic):
    monkeypatch.setattr(allocation, "PREF_K", k)
    side = {1: 12.0, 2: 6.0, 3: 3.0}[dim]
    dom = Domain(sides=(side,) * dim, periodic=periodic)
    grid = SiteGrid(domain=dom, spacing=0.5)
    centers = lattice(dim, side, 1.0, offset)
    rng = replica_rng(7, dim)
    centers = centers[rng.random(len(centers)) < 0.8]
    appetites = rng.integers(0, 6, size=len(centers)) * grid.cell_volume
    config = PointConfiguration(centers, appetites)
    alloc = assert_matches_dense(config, grid)
    assert np.array_equal(alloc.assignment, greedy_pass(config, grid))
    assert tied_owners(alloc, config, grid) and verify_stability(alloc, config, grid) == []


@pytest.mark.parametrize("k", [1, 2, 8, 32])
@pytest.mark.parametrize("periodic", [True, False])
def test_duplicated_and_zero_quota_centers_match_dense(monkeypatch, k, periodic):
    monkeypatch.setattr(allocation, "PREF_K", k)
    dom = Domain(sides=(6.0, 6.0), periodic=periodic)
    grid = SiteGrid(domain=dom, spacing=0.25)
    rng = replica_rng(11)
    centers = sample_poisson(dom, 1.0, rng)
    centers = np.vstack([centers, centers[: len(centers) // 2]])
    appetites = rng.uniform(0.0, 2.0, size=len(centers))
    appetites[::4] = 0.0
    alloc = assert_matches_dense(PointConfiguration(centers, appetites), grid)
    assert np.all(alloc.territory_volumes[::4] == 0.0)
    # the next scale, on the warm lists: centers of quota 0 that are some
    # cells' certified nearest (k = 1 certifies none) now have room
    lists = allocation._memo.entry[1]
    assert k == 1 or np.any(lists.c1 % 4 == 0)
    appetites[::4] = 1.0
    config = PointConfiguration(centers, appetites)
    warm = assert_matches_dense(config, grid)
    assert allocation._memo.entry[1] is lists
    allocation._memo.entry = None  # a cold solve makes the same rounds
    assert gale_shapley(config, grid).counters == warm.counters


def test_first_eligible_takes_the_next_key_in_distance_index_order():
    # the equal-distance branch of the key order and the cutoff boundary,
    # pinned on rows built by hand
    full = np.array([True, False, False, True])
    cutoff = np.array([1.0, np.inf, np.inf, 2.0])
    c = np.array([[0, 2, 3]] * 4)
    d = np.array([[1.0, 1.0, 1.5]] * 4)
    lo_d = np.array([1.0, 1.0, -np.inf, 1.5])
    lo_c = np.array([0, 2, -1, 3])
    got = allocation._first_eligible(c, d, lo_d, lo_c, cutoff)
    assert [g.tolist() for g in got] == [[2, 3, 0, -1], [1.0, 1.5, 1.0, np.inf]]


@pytest.mark.parametrize("n_cells,n_centers", [(0, 3), (1, 1), (600, 7), (3000, 300),
                                               (2000, 70_000), ("ties", 16)])
def test_ranked_is_the_lexsort_by_center_distance_cell(n_cells, n_centers):
    # few distinct distances, so most cells of a center tie; past 65 535
    # centers the center keys sort as uint32; "ties": the cells are the
    # (point, center) pairs of _jump_states("ties"), whose float distances
    # tie by lattice symmetry. The distance sort is unstable, so the output
    # must not depend on the input order.
    if n_cells == "ties":
        dist = _jump_states("ties")[-1].ravel()
        center, n_cells = np.arange(dist.size) % n_centers, dist.size - 50
        rng = replica_rng(41, n_cells)
    else:
        rng = replica_rng(41, n_cells)
        center = rng.integers(0, n_centers, n_cells + 50)
        dist = rng.integers(0, 4, n_cells + 50) * 0.5
    cells = rng.permutation(n_cells + 50)[:n_cells]
    want = cells[np.lexsort((cells, dist[cells], center[cells]))]
    for order in (cells, cells[::-1], rng.permutation(cells)):
        assert np.array_equal(allocation._ranked(order, center, dist, n_centers), want)
    assert n_centers < 65_536 or np.min_scalar_type(n_centers) == np.uint32


def test_jumps_wait_for_a_round_without_listed_applicants(monkeypatch):
    # a round's calls end at its ranking (_ranked); a round in which
    # _first_eligible finds a listed applicant makes no _next_key call
    events = []
    real_first, real_next, real_ranked = (allocation._first_eligible, allocation._next_key,
                                          allocation._ranked)

    def first_eligible(*args):
        c, d = real_first(*args)
        events.append(("listed", bool(np.any(c >= 0)), bool(np.any(c < 0))))
        return c, d

    def next_key(*args):
        events.append(("jump",))
        return real_next(*args)

    def ranked(*args):
        events.append(("rank",))
        return real_ranked(*args)

    monkeypatch.setattr(allocation, "_first_eligible", first_eligible)
    monkeypatch.setattr(allocation, "_next_key", next_key)
    monkeypatch.setattr(allocation, "_ranked", ranked)
    dom = Domain(sides=(12.0, 12.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.25)
    config = sample_replica(dom, 1.0, AppetiteDistribution("exponential", {"mean": 1.0},
                                                           scale=0.5), 5, 0)
    alloc = assert_matches_dense(config, grid)
    assert alloc.counters["beyond_list"] > 0
    rounds, now = [], []
    for e in events:
        if e == ("rank",):
            rounds.append(now)
            now = []
        else:
            now.append(e)
    rounds.append(now)
    for calls in rounds:
        assert not (("jump",) in calls and any(e[0] == "listed" and e[1] for e in calls))
    # some cells waited past their list while others applied from theirs
    assert any(e[0] == "listed" and e[1] and e[2] for e in events)


def _hand_round_one(case):
    if case == "nearest quota 0":  # cells 0 and 1 are nearest the empty center
        dom = Domain(sides=(4.0,), periodic=False)
        return SiteGrid(domain=dom, spacing=1.0), np.array([[0.5], [3.5]]), [0, 3], 2
    if case == "no certified first entry":  # each cell ties between 4 corners
        dom = Domain(sides=(4.0, 4.0), periodic=False)
        return SiteGrid(domain=dom, spacing=1.0), lattice(2, 5.0, 1.0), [1] * 25, 1
    if case == "more centers than cells":  # both cells walk past their empty nearest
        dom = Domain(sides=(2.0,), periodic=False)
        return SiteGrid(domain=dom, spacing=1.0), np.array([[0.5], [1.5], [1.0]]), [0, 0, 1], 2
    dom = Domain(sides=(3.0, 3.0), periodic=True)  # every quota 0
    return SiteGrid(domain=dom, spacing=0.5), lattice(2, 3.0, 1.0, 0.2), [0] * 9, 8


@pytest.mark.parametrize("case", ["nearest quota 0", "no certified first entry",
                                  "more centers than cells", "every quota 0"])
def test_round_one_hand_cases_match_dense(monkeypatch, case):
    # cells outside the round-1 pool apply from round 2; the pool may be empty
    grid, centers, quotas, k = _hand_round_one(case)
    monkeypatch.setattr(allocation, "PREF_K", k)
    config = PointConfiguration(centers, np.asarray(quotas) * grid.cell_volume)
    alloc = assert_matches_dense(config, grid)
    assert np.array_equal(alloc.assignment, greedy_pass(config, grid))
    lists = allocation._lists(config.centers, grid)
    pool = lists.first[allocation.cell_quotas(config.appetites, grid.cell_volume)[
        lists.nbr[lists.first, 0]] > 0]
    if case == "nearest quota 0":
        assert lists.first.tolist() == [0, 1, 3, 2] and pool.tolist() == [3, 2]
        assert alloc.assignment.tolist() == [UNCLAIMED, 1, 1, 1]
    elif case == "more centers than cells":  # cell 1 loses the tie, then walks off its row
        assert pool.size == 0 and alloc.assignment.tolist() == [2, UNCLAIMED]
    else:
        assert pool.size == 0
        assert np.all(alloc.assignment == UNCLAIMED) == (case == "every quota 0")


def _jump_states(case):
    """Points, centers, domain and a (full, cutoff) state for _next_key, with
    the dense distances."""
    rng = replica_rng(13, len(case))
    if case in ("ties", "many ties"):  # points equidistant from 2 or 4 lattice centers
        side = 4.0 if case == "ties" else 8.0
        dom = Domain(sides=(side, side), periodic=True)
        centers, pts = lattice(2, side, 1.0), lattice(2, side, 0.5)
    elif case == "duplicates":  # some centers twice, some three times
        dom = Domain(sides=(4.0, 4.0), periodic=False)
        centers = rng.random((12, 2)) * 4.0
        centers = np.vstack([centers, centers[:6], centers[:3]])
        pts = lattice(2, 4.0, 0.5, 0.25)
    elif case == "near ties":
        # 12 centers on a circle around each point, at distances equal up to
        # rounding, which the kd-tree and the recomputed distances can order
        # differently
        dom = Domain(sides=(4.0, 4.0), periodic=False)
        pts = lattice(2, 4.0, 1.0, 0.5) + rng.random((16, 2)) * 0.1
        angle = rng.random((16, 1)) + np.arange(12) * np.pi / 6
        radius = rng.uniform(0.2, 0.4, (16, 1))
        centers = (pts[:, None, :] + radius[..., None] * np.stack(
            [np.cos(angle), np.sin(angle)], axis=-1)).reshape(-1, 2)
    else:  # "at L": centers at exactly L are the query points of part B
        dom = Domain(sides=(3.0, 3.0, 3.0), periodic=True)
        centers = np.vstack([lattice(3, 3.0, 1.5), [[3.0, 3.0, 3.0], [3.0, 0.5, 3.0]]])
        pts = lattice(3, 3.0, 0.75, 0.125)
    dist = distance(pts[:, None], centers[None], dom)
    full = rng.random(len(centers)) < 0.6
    # A full center's cutoff is its worst held distance: here the distance
    # of its nearest point, one float below it, or that of a random point;
    # every fifth center has a zero quota.
    near = dist.min(axis=0)
    cutoff = np.choose(rng.integers(0, 3, len(centers)),
                       [near, np.nextafter(near, -np.inf),
                        dist[rng.integers(0, len(pts), len(centers)), np.arange(len(centers))]])
    cutoff = np.where(full, cutoff, np.inf)
    cutoff[::5] = np.where(full[::5], -np.inf, np.inf)
    return pts, centers, dom, full, cutoff, dist


@pytest.mark.parametrize("block", [geometry.BLOCK, 5])
@pytest.mark.parametrize("case", ["ties", "many ties", "duplicates", "near ties", "at L",
                                  "none eligible", "past every cutoff"])
def test_next_key_is_the_first_eligible_key_of_the_dense_row(monkeypatch, block, case):
    # path: how part (A) finds the nearest open center, by a dense scan of at
    # most _LEAF open centers or by kd-tree rows; None when no center is open
    path = {"many ties": "kd", "near ties": "kd", "none eligible": None}.get(case, "dense")
    monkeypatch.setattr(geometry, "BLOCK", block)
    paths, trees = set(), []
    real_distance, real_nearest_until, real_kd_tree = (
        allocation.distance, allocation.nearest_until, allocation.kd_tree)

    def dense(*args):
        paths.add("dense")
        return real_distance(*args)

    def kd(*args):
        paths.add("kd")
        return real_nearest_until(*args)

    def kd_tree(points, domain):
        trees.append(points)
        return real_kd_tree(points, domain)

    monkeypatch.setattr(allocation, "distance", dense)
    monkeypatch.setattr(allocation, "nearest_until", kd)
    monkeypatch.setattr(allocation, "kd_tree", kd_tree)
    pts, centers, dom, full, cutoff, dist = _jump_states(
        "duplicates" if case in ("none eligible", "past every cutoff") else case)
    if case == "none eligible":  # every center full, every cutoff short of the points
        full[:] = True
        cutoff = np.minimum(cutoff, dist.min(axis=0) - 1e-6)
        cutoff[-1] = -np.inf
    if case == "past every cutoff":  # each point's key, its nearest center, lies
        # past every cutoff, so part (B) has no ball to query
        full[np.argmin(dist, axis=1)] = True
        cutoff = np.where(full, np.minimum(cutoff, dist.min() / 2), np.inf)
    order = np.argsort(dist, axis=1, kind="stable")
    sd = np.take_along_axis(dist, order, axis=1)
    # last keys: none, then a random position before each row's first
    # center not full
    first_open = np.where(full[order].all(axis=1), order.shape[1],
                          np.argmax(~full[order], axis=1))
    rows = np.arange(len(pts))
    keys = (np.full(len(pts), -1),
            (replica_rng(17).random(len(pts)) * (first_open + 1)).astype(np.int64) - 1)
    if case == "past every cutoff":
        keys = (np.zeros(len(pts), dtype=np.int64),)
    for pos in keys:
        lo_d = np.where(pos >= 0, sd[rows, np.maximum(pos, 0)], -np.inf)
        lo_c = np.where(pos >= 0, order[rows, np.maximum(pos, 0)], -1)
        want_c, want_d = allocation._first_eligible(order, sd, lo_d, lo_c, cutoff)
        got_c, got_d = allocation._next_key(pts, lo_d, lo_c, centers, dom, cutoff)
        assert np.array_equal(got_c, want_c) and np.array_equal(got_d, want_d)
        hit = got_c[got_c >= 0]
        if case == "none eligible":
            assert np.all(got_c == -1) and np.all(got_d == np.inf)
        elif case == "past every cutoff":
            assert hit.size == len(pts) and not np.any(full[hit])
        else:  # both parts answer, some at a cutoff boundary
            assert np.any(~full[hit]) and np.any(full[hit])
            assert np.any(got_d[got_c >= 0] == cutoff[hit]) or pos.max() >= 0
            assert case != "at L" or np.any(hit == len(centers) - 1)
    assert pos.max() >= 0
    assert paths == ({path} if path else set())
    assert (np.count_nonzero(cutoff == np.inf) > allocation._LEAF) == (path == "kd")
    assert case != "past every cutoff" or trees == []  # no tree over points or centers


def test_jump_memory_is_linear_on_clustered_centers(monkeypatch):
    # every center in one corner of an open box, with quotas that add up to
    # more than the box: the cutoff balls cover most cells and one round's
    # balls hold more jumping cells than the grid has, yet the jump builds
    # at most max(block, n_cells) cell-center pairs at once, also in the
    # dense scan of few open centers, which calls allocation.distance
    block = 64
    monkeypatch.setattr(geometry, "BLOCK", block)
    sizes, dense, inside = [], [], []
    real_next_key, real_nearest = allocation._next_key, geometry.nearest
    real_distance = geometry.distance

    def next_key(*args):
        inside.append(True)
        try:
            return real_next_key(*args)
        finally:
            inside.pop()

    def nearest(tree, pts, k, others, domain):
        if inside:
            sizes.append(len(pts) * min(k, len(others)))
        return real_nearest(tree, pts, k, others, domain)

    def spy(into):
        def distance(a, b, domain):
            d = real_distance(a, b, domain)
            if inside:
                into.append(d.size)
            return d
        return distance

    monkeypatch.setattr(allocation, "_next_key", next_key)
    monkeypatch.setattr(geometry, "nearest", nearest)
    monkeypatch.setattr(geometry, "distance", spy(sizes))
    monkeypatch.setattr(allocation, "distance", spy(dense))
    dom = Domain(sides=(8.0, 8.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.5)
    # 100 centers keep more than _LEAF open at every jump; 40 centers with
    # larger appetites come down to _LEAF open ones in their last jumps
    for n_centers, top in ((100, 1.2), (40, 4.0)):
        sizes.clear()
        dense.clear()
        rng = replica_rng(23)
        centers = rng.random((n_centers, 2))
        appetites = rng.uniform(0.2, top, size=len(centers))
        alloc = assert_matches_dense(PointConfiguration(centers, appetites), grid)
        assert max(sizes + dense) <= max(block, grid.n_cells)
        if n_centers == 100:
            assert alloc.counters["beyond_list"] > grid.n_cells // 2
            assert sum(sizes) > 10 * grid.n_cells  # the jumps ran in many blocks
        else:
            assert dense  # a jump scanned its few open centers densely


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 3),
    periodic=st.booleans(),
    sites=st.lists(st.tuples(*[st.integers(0, 7)] * 3), min_size=1, max_size=48),
    quotas=st.lists(st.integers(0, 5), min_size=48, max_size=48),
)
def test_lattice_snapped_configurations_match_dense(dim, periodic, sites, quotas):
    # centers on a lattice of half the cell side: many equidistant cells,
    # duplicated centers and, past 32 centers, incomplete preference lists
    dom = Domain(sides=(2.0,) * dim, periodic=periodic)
    grid = SiteGrid(domain=dom, spacing=0.5)
    centers = np.asarray(sites, dtype=float)[:, :dim] * 0.25
    appetites = np.asarray(quotas[: len(sites)]) * grid.cell_volume
    assert_matches_dense(PointConfiguration(centers, appetites), grid)


def test_critical_scale_resolves_past_the_list():
    dom = Domain(sides=(12.0, 12.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.25)
    config = sample_replica(dom, 1.0, AppetiteDistribution("constant", {"value": 1.0}),
                            5, 0)
    assert config.n_centers > allocation.PREF_K
    alloc = assert_matches_dense(config, grid)
    assert alloc.counters["beyond_list"] > 0
    assert alloc.counters["rounds"] > 1


@pytest.mark.parametrize("block", [geometry.BLOCK, 40])
@pytest.mark.parametrize("periodic", [True, False])
def test_jumps_with_ties_match_dense(monkeypatch, block, periodic):
    # a 3-D lattice with small quotas where some owners win by index, solved
    # at the shipped depth and at PREF_K 2. At the shipped depth the jumps,
    # deferred until no listed cell applies, come once every center is full;
    # at PREF_K 2 hundreds of cells find a center past their list. A block
    # of 40 pairs builds lists and jumps in many blocks
    monkeypatch.setattr(geometry, "BLOCK", block)
    dom = Domain(sides=(4.0,) * 3, periodic=periodic)
    grid = SiteGrid(domain=dom, spacing=0.5)
    rng = replica_rng(7, 3)
    centers = lattice(3, 4.0, 1.0, 0.25)
    centers = centers[rng.random(len(centers)) < 0.8]
    appetites = rng.integers(0, 6, size=len(centers)) * grid.cell_volume
    config = PointConfiguration(centers, appetites)
    for k in (allocation.PREF_K, 2):
        monkeypatch.setattr(allocation, "PREF_K", k)
        alloc = assert_matches_dense(config, grid)
        assert np.array_equal(alloc.assignment, greedy_pass(config, grid))
        assert tied_owners(alloc, config, grid)
    assert alloc.counters["beyond_list"] > 0


@pytest.mark.parametrize("dim,side,spacing,centers", [
    (1, 2.0, 2.0, np.array([[0.5], [1.5]])),
    (3, 3.0, 1.0, lattice(3, 3.0, 1.0)),
])
def test_round_in_which_every_pool_cell_ties(dim, side, spacing, centers):
    # every cell is equidistant from its 2 (1-D) or 8 (3-D) nearest centers,
    # the corners of its cell, and every quota is 1. In (distance, cell,
    # center) order cell i meets the centers below i taken by the cells
    # before it, so it takes center i, its lowest free corner.
    dom = Domain(sides=(side,) * dim, periodic=dim == 3)
    grid = SiteGrid(domain=dom, spacing=spacing)
    config = PointConfiguration(centers, np.ones(len(centers)))
    alloc = assert_matches_dense(config, grid)
    assert alloc.assignment.tolist() == list(range(grid.n_cells))
    assert tied_owners(alloc, config, grid) == grid.n_cells


def test_counters_default_empty():
    alloc = AllocationResult(assignment=np.zeros(1, dtype=np.int64),
                             territory_volumes=np.zeros(1), sated=np.ones(1, dtype=bool),
                             grid_shape=(1,))
    assert alloc.counters == {}


def test_stability_derives_satedness_from_the_assignment():
    # every cell moved onto center 0 while result.sated keeps the solve's
    # flags: the centers left with no territory are unsated and covet cells
    config, grid = random_instance(5)
    alloc = gale_shapley(config, grid)
    assert np.all(alloc.sated)
    collapsed = AllocationResult(assignment=np.zeros_like(alloc.assignment),
                                 territory_volumes=alloc.territory_volumes,
                                 sated=alloc.sated, grid_shape=alloc.grid_shape)
    unstable = verify_stability(collapsed, config, grid)
    assert unstable and {c for _, c in unstable} == set(range(1, config.n_centers))


def dense_scan(result, config, grid):
    """The unstable-pair scan over whole (cells x centers) rank matrices:
    each cell's rank of every center in (distance, center) order, and each
    center's rank of every cell in (distance, cell) order."""
    if config.n_centers == 0:
        return []
    cells = grid.cell_centers()
    dist = distance(cells[:, None], config.centers[None], grid.domain)
    cell_rank = np.argsort(np.argsort(dist, axis=1, kind="stable"), axis=1)
    center_rank = np.argsort(np.argsort(dist, axis=0, kind="stable"), axis=0)
    assign = result.assignment
    claimed = np.flatnonzero(assign >= 0)
    own = np.full(len(cells), config.n_centers)  # past every center's rank
    own[claimed] = cell_rank[claimed, assign[claimed]]
    far = np.full(config.n_centers, -1)
    np.maximum.at(far, assign[claimed], center_rank[claimed, assign[claimed]])
    hd = grid.cell_volume
    sated = np.bincount(assign[claimed], minlength=config.n_centers) * hd >= config.appetites - hd
    unstable = (cell_rank < own[:, None]) & (~sated | (center_rank < far))
    return [tuple(p) for p in np.argwhere(unstable)]


def stability_cases(dim, periodic):
    """(name, result, config, grid): stable solves on uniform centers and on
    centers at cell corners (where many owners win by index), then tampered
    assignments."""
    dom = Domain(sides=(4.0,) * dim, periodic=periodic)
    grid = SiteGrid(domain=dom, spacing=0.5)
    rng = replica_rng(dim, int(periodic))
    uniform = rng.random((3 * 2 ** dim, dim)) * 4.0
    corners = rng.permutation(lattice(dim, 4.0, 0.5))[:3 * 2 ** dim]
    for centers, name in ((uniform, "uniform"), (corners, "corners")):
        config = PointConfiguration(centers, rng.integers(1, 5, len(centers)) * grid.cell_volume)
        alloc = gale_shapley(config, grid)
        yield f"stable {name}", alloc, config, grid
        assign = alloc.assignment
        owned = np.flatnonzero(assign >= 0)
        a, b = owned[0], owned[np.flatnonzero(assign[owned] != assign[owned[0]])[0]]
        swapped = assign.copy()
        swapped[[a, b]] = assign[[b, a]]
        random = rng.integers(UNCLAIMED, config.n_centers, grid.n_cells)
        for case, tampered in (("swapped owners", swapped),
                               ("collapsed", np.zeros_like(assign)),
                               ("unclaimed", np.full_like(assign, UNCLAIMED)),
                               ("random", random)):
            yield (f"{case} {name}", AllocationResult(tampered, alloc.territory_volumes,
                                                      alloc.sated, grid.shape), config, grid)
    empty = PointConfiguration(np.zeros((0, dim)), np.zeros(0))
    yield "zero centers", gale_shapley(empty, grid), empty, grid


@pytest.mark.parametrize("block", [geometry.BLOCK, 7, 1])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stability_scan_is_the_dense_scan_at_every_block(monkeypatch, block, periodic, dim):
    monkeypatch.setattr(geometry, "BLOCK", block)
    tied = 0
    for name, result, config, grid in stability_cases(dim, periodic):
        got = verify_stability(result, config, grid)
        assert got == dense_scan(result, config, grid), name
        assert all(type(i) is np.int64 for pair in got for i in pair)
        assert bool(got) != name.startswith(("stable", "zero")), name
        if name.startswith("stable"):
            tied += tied_owners(result, config, grid)
    assert tied  # stable solves with owners that won by index among them


# Cells 0-9 of [0, 10) at spacing 1, centers at 4.0 and 5.0 (cell 4's
# midpoint 4.5 is as near to both), appetites of 2 cells: each center is
# sated with 1 cell or more, unsated with none.
_HAND = {
    # cell 4 is center 1's but desires center 0 (the lower index at the same
    # distance), which covets it: (0.5, 4) comes before its far cell (1.5, 2)
    "cell side index": ([-1, -1, 0, 0, 1, 1, -1, -1, -1, -1], [(4, 0)]),
    # center 1 holds cell 5 alone and covets cell 4 (unclaimed): (0.5, 4)
    # comes before its far cell (0.5, 5)
    "center side index": ([-1, -1, -1, 0, -1, 1, -1, -1, -1, -1], [(4, 1)]),
    # center 0 holds nothing and is unsated: it pairs with every unclaimed
    # cell and with cell 4, which prefers it to center 1 by index
    "unsated": ([-1, -1, -1, -1, 1, 1, -1, -1, -1, -1],
                [(x, 0) for x in (0, 1, 2, 3, 4, 6, 7, 8, 9)]),
    # the strict solve: cells 3 and 4 to center 0, 5 and 6 to center 1
    "stable": ([-1, -1, -1, 0, 0, 1, 1, -1, -1, -1], []),
}


@pytest.mark.parametrize("case", _HAND)
def test_stability_compares_keys_on_hand_cases(case):
    dom = Domain(sides=(10.0,), periodic=False)
    grid = SiteGrid(domain=dom, spacing=1.0)
    config = PointConfiguration(np.array([[4.0], [5.0]]), np.array([2.0, 2.0]))
    assign, want = _HAND[case]
    result = AllocationResult(np.array(assign), np.zeros(2), np.ones(2, dtype=bool), grid.shape)
    assert verify_stability(result, config, grid) == want
    assert dense_scan(result, config, grid) == want
    if case == "stable":
        assert gale_shapley(config, grid).assignment.tolist() == assign


@pytest.mark.parametrize("block", [1024, 4096])
def test_stability_scan_memory_is_linear(monkeypatch, block):
    # the owner distances are one call over the claimed cells, at most
    # n_cells <= block entries; every other call is a row block of the scan
    monkeypatch.setattr(geometry, "BLOCK", block)
    config, grid = random_instance(3)
    assert grid.n_cells <= block < grid.n_cells * config.n_centers
    alloc = gale_shapley(config, grid)
    sizes, real_distance = [], allocation.distance

    def spy(a, b, domain):
        d = real_distance(a, b, domain)
        sizes.append(d.size)
        return d

    monkeypatch.setattr(allocation, "distance", spy)
    assert verify_stability(alloc, config, grid) == []
    assert max(sizes) <= max(block, config.n_centers)
    assert len(sizes) > grid.n_cells * config.n_centers // block


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_appetite_below_0_or_not_a_number_is_rejected(bad):
    with pytest.raises(ValueError):
        PointConfiguration(np.zeros((2, 2)), np.array([1.0, bad]))


@pytest.mark.parametrize("sides, spacing", [
    ((4.0,), math.nan),
    ((4.0,), math.inf),
    ((2.0 ** 32, 2.0 ** 32), 1.0),  # 2^64 cells, which int64 wraps to 0
])
def test_site_grid_refuses_a_spacing_or_size_it_cannot_hold(sides, spacing):
    with pytest.raises(GeometryError):
        SiteGrid(Domain(sides, periodic=False), spacing)


def test_site_grid_counts_2_to_the_62_cells_exactly():
    assert SiteGrid(Domain((2.0 ** 31, 2.0 ** 31), periodic=False), 1.0).n_cells == 2 ** 62


# --- scale ladders, and the per-thread memo of the geometry-only solve state --

def _ladder_instance(i):
    """Instance i of the ladder fuzz: d = 1-3, open or periodic, Poisson,
    lattice (many owners that win by index) or duplicated centers, PREF_K 1,
    2 or 8; the appetites at scale s are s times fixed draws."""
    rng = replica_rng(29, i)
    dim, periodic, kind, k = 1 + i % 3, bool(i // 3 % 2), i // 6 % 3, (1, 2, 8)[i // 18 % 3]
    side, spacing = {1: (8.0, 0.25), 2: (3.0, 0.5), 3: (1.5, 0.5)}[dim]
    dom = Domain(sides=(side,) * dim, periodic=periodic)
    if kind == 0:
        centers = rng.random((int(rng.integers(1, 20)), dim)) * side
    elif kind == 1:
        centers = lattice(dim, side, 0.5)
        centers = centers[rng.random(len(centers)) < 0.5]
    else:
        centers = rng.random((int(rng.integers(1, 12)), dim)) * side
        centers = np.vstack([centers, centers[: len(centers) // 2 + 1]])
    draws = rng.random(len(centers)) * dom.volume / max(len(centers), 1)
    return SiteGrid(domain=dom, spacing=spacing), centers, draws, k


_SCALES = (0.3, 0.9, 2.0)


def test_ladders_match_dense_and_greedy(monkeypatch):
    tied = jumps = zero = 0
    for i in range(1000):
        grid, centers, draws, k = _ladder_instance(i)
        draws = np.where(replica_rng(37, i).random(len(draws)) < 0.2, 0.0, draws)  # zero quotas
        monkeypatch.setattr(allocation, "PREF_K", k)
        for s in _SCALES:
            config = PointConfiguration(centers, s * draws)
            alloc = assert_matches_dense(config, grid)
            assert np.array_equal(alloc.assignment, greedy_pass(config, grid)), (i, s)
            tied += tied_owners(alloc, config, grid) > 0
            jumps += alloc.counters["beyond_list"] > 0
        zero += bool(np.any(draws == 0.0))
    assert min(tied, jumps, zero) > 300


def _same_result(a, b):
    return (np.array_equal(a.assignment, b.assignment)
            and np.array_equal(a.territory_volumes, b.territory_volumes)
            and np.array_equal(a.sated, b.sated) and a.counters == b.counters)


def test_memo_ladders_equal_cold_solves(monkeypatch):
    ties = jumps = 0
    for i in range(300):
        grid, centers, draws, k = _ladder_instance(i)
        monkeypatch.setattr(allocation, "PREF_K", k)
        configs = [PointConfiguration(centers, s * draws) for s in _SCALES]
        cold = []
        for config in configs:
            allocation._memo.entry = None
            cold.append(gale_shapley(config, grid))
        ties += any(tied_owners(r, c, grid) for r, c in zip(cold, configs))
        jumps += any(r.counters["beyond_list"] for r in cold)
        shuffled = replica_rng(31, i).permutation(len(_SCALES))
        for order in (range(len(_SCALES)), range(len(_SCALES))[::-1], shuffled):
            allocation._memo.entry = None
            for j in order:
                assert _same_result(gale_shapley(configs[j], grid), cold[j]), (i, list(order))
    assert ties > 50 and jumps > 50


def _spy_list_builds(monkeypatch):
    """Record the rows of each list build: the allocation.nearest calls of one
    build, a block each, share its kd-tree (the jump past the list calls
    geometry.nearest through nearest_until)."""
    trees, builds = [], []
    real = allocation.nearest

    def spy(tree, pts, *args):
        n = next((n for n, t in enumerate(trees) if t is tree), None)
        if n is None:  # a tree is built and queried by one thread
            trees.append(tree)
            builds.append(0)
            n = len(trees) - 1
        builds[n] += len(pts)
        return real(tree, pts, *args)

    monkeypatch.setattr(allocation, "nearest", spy)
    return builds


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_builds_one_list_per_replica(monkeypatch, workers):
    from allocperc.percolation import critical_sweep

    builds = _spy_list_builds(monkeypatch)
    dom = Domain(sides=(8.0, 8.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.25)
    dist = AppetiteDistribution("exponential", {"mean": 1.0})
    critical_sweep(dom, grid, 1.0, dist, [0.4, 0.7, 1.0, 1.3], 3, seed=5, workers=workers)
    assert builds == [grid.n_cells] * 3


def test_a_build_boolean_between_solves_keeps_the_lists(monkeypatch):
    # a Boolean build keeps nothing in the lists memo, so the ladder's lists stay warm
    builds = _spy_list_builds(monkeypatch)
    grid, centers, draws, _ = _ladder_instance(4)
    for s in (0.3, 0.9, 2.0):
        config = PointConfiguration(centers, s * draws)
        gale_shapley(config, grid)
        build_boolean(config, grid.domain)
    assert builds == [grid.n_cells]


def test_patched_pref_k_or_block_rebuilds_the_lists(monkeypatch):
    builds = _spy_list_builds(monkeypatch)
    grid, centers, draws, _ = _ladder_instance(4)
    config = PointConfiguration(centers, draws)
    want = gale_shapley(config, grid)
    assert _same_result(gale_shapley(config, grid), want) and len(builds) == 1
    # beyond_list counts the jumps past lists of PREF_K, so only the
    # assignment is compared across depths
    monkeypatch.setattr(allocation, "PREF_K", 2)
    short = gale_shapley(config, grid)
    assert np.array_equal(short.assignment, want.assignment) and len(builds) == 2
    monkeypatch.setattr(geometry, "BLOCK", 5)
    assert _same_result(gale_shapley(config, grid), short) and len(builds) == 3
    assert allocation._memo.entry[0] == (grid, 2, 5, centers.shape, config.centers.tobytes())


def test_a_miss_frees_the_old_entry_before_the_build(monkeypatch):
    grid, centers, draws, _ = _ladder_instance(4)
    gale_shapley(PointConfiguration(centers, draws), grid)
    old = weakref.ref(allocation._memo.entry[1])  # the memo (key, lists) entry's lists
    alive_at_build = []
    real = allocation.nearest

    def spy(*args, **kwargs):
        alive_at_build.append(old() is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(allocation, "nearest", spy)
    gale_shapley(PointConfiguration(centers[1:], draws[1:]), grid)
    assert alive_at_build and not any(alive_at_build)
    assert old() is None


def test_the_lists_memo_compares_centers_by_shape_and_bytes():
    grid, centers, draws, _ = _ladder_instance(4)
    lists = allocation._lists(centers, grid)
    assert allocation._lists(centers.copy(), grid) is lists  # equal bytes hit
    build_boolean(PointConfiguration(centers, draws), grid.domain)
    assert allocation._lists(centers, grid) is lists  # a Boolean build leaves the memo be
    key = allocation._memo.entry[0][:3]
    allocation._memo.entry = (key + ((centers.size, 1), centers.tobytes()), lists)
    assert allocation._lists(centers, grid) is not lists  # same bytes, other shape
    assert allocation._lists(centers + 1.0, grid) is not allocation._lists(centers, grid)
    other = SiteGrid(domain=Domain(sides=grid.domain.sides, periodic=False), spacing=grid.spacing)
    assert allocation._lists(centers, other) is not allocation._lists(centers, grid)
    lists = allocation._lists(centers, grid)
    allocation._memo.entry = None
    assert allocation._lists(centers, grid) is not lists  # a freed entry is built anew
