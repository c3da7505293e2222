import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocperc import allocation
from allocperc.allocation import (
    TIE,
    TIE_REL_TOL,
    UNCLAIMED,
    AllocationError,
    AllocationResult,
    PointConfiguration,
    SiteGrid,
    cell_quotas,
    gale_shapley,
    phase_diagnostics,
    sample_replica,
    verify_stability,
)
from allocperc.appetite import AppetiteDistribution
from allocperc.geometry import (
    Domain,
    pairwise_distances,
    replica_rng,
    sample_poisson,
    unit_ball_volume,
)


def dense_gale_shapley(config, grid):
    """Oracle: deferred acceptance over full dense preference rows, one
    (cells x centers) distance matrix and its argsort.

    Each round every unassigned cell applies to the nearest center that has
    not rejected it; each center keeps the nearest applicants up to its quota
    and rejects the rest. Cells rejected everywhere end UNCLAIMED; cells whose
    current and next candidate are equidistant within tolerance end TIE.
    """
    n_cells = grid.n_cells
    n_centers = config.n_centers
    status = np.full(n_cells, -3, dtype=np.int64)  # -3: not held
    if n_centers == 0:
        status[:] = UNCLAIMED
        return AllocationResult(
            assignment=status,
            territory_volumes=np.zeros(0),
            sated=np.ones(0, dtype=bool),
            grid_shape=grid.shape,
        )

    cells = grid.cell_centers()
    dist = pairwise_distances(cells, config.centers, grid.domain)
    pref = np.argsort(dist, axis=1, kind="stable")
    sdist = np.take_along_axis(dist, pref, axis=1)
    del dist

    hd = grid.cell_volume
    quota = cell_quotas(config.appetites, hd)
    tie_tol = TIE_REL_TOL * grid.spacing

    ptr = np.zeros(n_cells, dtype=np.int64)  # index into pref of current candidate
    held = np.zeros(n_cells, dtype=bool)
    decided = np.zeros(n_cells, dtype=bool)  # UNCLAIMED or TIE, final
    # A full center never again accepts strictly beyond its current worst
    # held distance; cutoffs only shrink, so skipping on them is safe.
    cutoff = np.where(quota == 0, -np.inf, np.inf)
    full = quota == 0

    cell_idx = np.arange(n_cells)
    max_rounds = 10 * max(n_cells, 1)
    for _ in range(max_rounds):
        active = cell_idx[~decided & ~held]
        if active.size == 0:
            break

        # Fast-forward past centers certain to reject; each cell is touched
        # once per skipped candidate, not once per loop pass.
        settled = []
        work = active
        while work.size:
            cand = pref[work, ptr[work]]
            dcand = sdist[work, ptr[work]]
            skip = full[cand] & (dcand > cutoff[cand])
            settled.append(work[~skip])
            bumped = work[skip]
            ptr[bumped] += 1
            alive = ptr[bumped] < n_centers
            exhausted = bumped[~alive]
            status[exhausted] = UNCLAIMED
            decided[exhausted] = True
            work = bumped[alive]
        applicants = np.concatenate(settled) if settled else active

        pool = np.concatenate([applicants, cell_idx[held & ~decided]])
        pool = np.unique(pool)
        if pool.size == 0:
            remaining = cell_idx[~decided & ~held]
            status[remaining] = UNCLAIMED
            decided[remaining] = True
            break

        cand = pref[pool, ptr[pool]]
        dcand = sdist[pool, ptr[pool]]

        # Equidistant next candidate: the cell sits on a territory boundary.
        applying = ~held[pool]
        has_next = ptr[pool] + 1 < n_centers
        nxt = np.where(has_next, np.minimum(ptr[pool] + 1, n_centers - 1), ptr[pool])
        dnext = sdist[pool, nxt]
        tied = applying & has_next & (dnext - dcand < tie_tol)
        if np.any(tied):
            tcells = pool[tied]
            status[tcells] = TIE
            decided[tcells] = True
            keepm = ~tied
            pool, cand, dcand = pool[keepm], cand[keepm], dcand[keepm]
            if pool.size == 0:  # every applicant tied
                break

        # Dense pool: every undecided cell's candidate center ranks it among
        # held + new applicants; keep the quota nearest.
        order = np.lexsort((pool, dcand, cand))
        gc = cand[order]
        starts = np.flatnonzero(np.r_[True, gc[1:] != gc[:-1]])
        group_of = np.cumsum(np.r_[True, gc[1:] != gc[:-1]]) - 1
        rank = np.arange(len(order)) - starts[group_of]
        keep = rank < quota[gc]

        kept_cells = pool[order[keep]]
        rej_cells = pool[order[~keep]]
        held[kept_cells] = True
        held[rej_cells] = False
        ptr[rej_cells] += 1
        exhausted = rej_cells[ptr[rej_cells] >= n_centers]
        status[exhausted] = UNCLAIMED
        decided[exhausted] = True

        # Group sizes / new cutoffs for the fast-forward phase.
        sizes = np.diff(np.r_[starts, len(order)])
        heads = gc[starts]
        grp_full = sizes >= quota[heads]
        full[heads] = grp_full
        kept_d = dcand[order[keep]]
        kept_c = gc[keep]
        if kept_c.size:
            kstarts = np.flatnonzero(np.r_[True, kept_c[1:] != kept_c[:-1]])
            kends = np.r_[kstarts[1:], len(kept_c)] - 1
            worst = kept_d[kends]
            kheads = kept_c[kstarts]
            cutoff[kheads] = np.where(full[kheads], worst, np.inf)

        if rej_cells.size == 0 and not np.any(~decided & ~held):
            break
    else:
        raise AllocationError("deferred acceptance exceeded the round cap")

    held_cells = cell_idx[held]
    status[held_cells] = pref[held_cells, ptr[held_cells]]

    counts = np.bincount(status[status >= 0], minlength=n_centers)
    volumes = counts * hd
    # Satedness tolerant to one-cell quantization of the last shell.
    sated = volumes >= config.appetites - hd
    return AllocationResult(
        assignment=status,
        territory_volumes=volumes,
        sated=sated,
        grid_shape=grid.shape,
    )


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
    alloc = gale_shapley(config, grid)
    assert np.all(alloc.assignment == UNCLAIMED)
    diag = phase_diagnostics(alloc, config, grid)
    assert diag.claimed_volume_fraction == 0.0
    assert diag.fraction_sated == 1.0  # vacuous convention


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
    # cell midpoint 4.5 is exactly equidistant from centers at 4.0 and 5.0
    config = PointConfiguration(np.array([[4.0], [5.0]]), np.array([0.5, 0.5]))
    alloc = gale_shapley(config, grid)
    assert alloc.assignment[4] == TIE


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
    ok = (a1.assignment != TIE) & (a2.assignment != TIE)
    assert np.all(d1[ok] >= d2[ok] - 1e-9)
    # claimed-set inclusion
    assert not np.any(m1 & ok & ~m2)


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


def lattice(dim, side, step, offset=0.0):
    axis = np.arange(0.0, side, step) + offset
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@pytest.mark.parametrize("k", [1, 2, 32])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_random_instances_match_dense(monkeypatch, k, dim, periodic, seed):
    # k = 1 leaves every list prefix empty, so each candidate comes from a
    # jump; k = 2 sends most cells past their list, k = 32 is the shipped depth
    monkeypatch.setattr(allocation, "PREF_K", k)
    side, spacing = {1: (12.0, 0.1), 2: (6.0, 0.25), 3: (3.0, 0.25)}[dim]
    config, grid = random_instance(seed + 40 * dim, periodic=periodic, sides=(side,) * dim,
                                   intensity=40.0 / side ** dim, spacing=spacing,
                                   appetite_range=(0.0, 2.5 * side ** dim / 40.0))
    assert_matches_dense(config, grid)


@pytest.mark.parametrize("k", [1, 2, 4, 32])
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
    alloc = assert_matches_dense(PointConfiguration(centers, appetites), grid)
    assert np.any(alloc.assignment == TIE)


@pytest.mark.parametrize("k", [1, 2, 32])
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


def test_first_eligible_takes_the_next_key_in_distance_index_order():
    # In gale_shapley an equidistant later center makes the cell TIE before
    # it can be rejected, so the equal-distance branch of the key order and
    # the cutoff boundary are pinned here on rows built by hand.
    full = np.array([True, False, False, True])
    cutoff = np.array([1.0, np.inf, np.inf, 2.0])
    c = np.array([[0, 2, 3]] * 4)
    d = np.array([[1.0, 1.0, 1.5]] * 4)
    lo_d = np.array([1.0, 1.0, -np.inf, 1.5])
    lo_c = np.array([0, 2, -1, 3])
    want = ([1, 2, 0, -1], [2, 3, 0, -1], [1.0, 1.5, 1.0, np.inf])
    for row in (c, c[:1]):  # per-row lists, and one row shared as in a jump
        got = allocation._first_eligible(row, d, lo_d, lo_c, full, cutoff)
        assert [g.tolist() for g in got] == list(want)


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


@pytest.mark.parametrize("dim,side,spacing,centers", [
    (1, 2.0, 2.0, np.array([[0.5], [1.5]])),
    (3, 3.0, 1.0, lattice(3, 3.0, 1.0)),
])
def test_round_in_which_every_pool_cell_ties(dim, side, spacing, centers):
    # every cell is equidistant from its two nearest centers, so the first
    # round's pool is empty once the ties are taken out
    dom = Domain(sides=(side,) * dim, periodic=dim == 3)
    grid = SiteGrid(domain=dom, spacing=spacing)
    config = PointConfiguration(centers, np.ones(len(centers)))
    alloc = assert_matches_dense(config, grid)
    assert alloc.assignment.tolist() == [TIE] * grid.n_cells


def test_counters_default_empty():
    alloc = AllocationResult(assignment=np.zeros(1, dtype=np.int64),
                             territory_volumes=np.zeros(1), sated=np.ones(1, dtype=bool),
                             grid_shape=(1,))
    assert alloc.counters == {}
