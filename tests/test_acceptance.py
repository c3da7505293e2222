"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Heavy Monte Carlo settings are shared through module-scoped fixtures. Run
with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from allocperc.allocation import (
    PointConfiguration,
    SiteGrid,
    gale_shapley,
    phase_diagnostics,
    verify_stability,
)
from allocperc.appetite import AppetiteDistribution, sample_appetites
from allocperc.booleanmodel import (
    build_boolean,
    check_domination,
    compute_radius,
    min_radius,
    tail_statistics,
)
from allocperc.bounds import finiteness_threshold, nagaev_bound, poisson_chernoff
from allocperc.cli import EXIT_OK, main
from allocperc.geometry import Domain, distance, replica_rng, sample_poisson, unit_ball_volume
from allocperc.percolation import claimed_components, mask_components
from allocperc.validation import bisection_radius_oracle, exact_poisson_tail


def report(criterion: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, detail


# --- criterion 1: stability oracle on 200 random instances -----------------

def test_criterion_1_stability():
    bad = 0
    for i in range(200):
        rng = replica_rng(10_000, i)
        d = 1 + i % 2
        if d == 1:
            dom = Domain(sides=(12.0,), periodic=bool(i % 4 < 2))
            grid = SiteGrid(domain=dom, spacing=0.1)
        else:
            dom = Domain(sides=(12.0, 12.0), periodic=bool(i % 4 < 2))
            grid = SiteGrid(domain=dom, spacing=0.25)
        centers = sample_poisson(dom, 20.0 / dom.volume, rng)[:30]
        appetites = rng.uniform(0.05, 1.5, size=len(centers))
        config = PointConfiguration(centers, appetites)
        if verify_stability(gale_shapley(config, grid), config, grid):
            bad += 1
    report(1, bad == 0, f"{bad}/200 instances with unstable pairs")


# --- criterion 2: single-center territory is the appetite ball --------------

def test_criterion_2_single_center_ball():
    a = math.pi  # radius 1 in d=2
    radius = (a / unit_ball_volume(2)) ** 0.5
    h = radius / 50
    dom = Domain(sides=(4.0, 4.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=h)
    config = PointConfiguration(np.array([[2.0, 2.0]]), np.array([a]))
    alloc = gale_shapley(config, grid)
    vol_ok = abs(alloc.territory_volumes[0] - a) / a < 0.05
    cells = grid.cell_centers()[alloc.assignment == 0]
    dists = np.hypot(cells[:, 0] - 2.0, cells[:, 1] - 2.0)
    ball_ok = bool(np.all(dists <= radius + h * math.sqrt(2)))
    report(2, vol_ok and ball_ok,
           f"volume {alloc.territory_volumes[0]:.4f} vs {a:.4f}, "
           f"max cell distance {dists.max():.4f} vs {radius + h * math.sqrt(2):.4f}")


# --- criterion 3: phase transitions on the periodic box ---------------------

def test_criterion_3_phase_transitions():
    dom = Domain(sides=(30.0, 30.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.25)
    replicas = 50

    def run(scale):
        fractions, sated, any_unsated = [], [], 0
        for rep in range(replicas):
            rng = replica_rng(20_000, rep)
            centers = sample_poisson(dom, 1.0, rng)
            config = PointConfiguration(centers, np.full(len(centers), scale))
            alloc = gale_shapley(config, grid)
            diag = phase_diagnostics(alloc, config, grid)
            fractions.append(diag.claimed_volume_fraction)
            sated.append(diag.fraction_sated)
            any_unsated += diag.fraction_sated < 1.0
        return np.mean(fractions), np.asarray(sated), any_unsated

    frac_sub, sated_sub, _ = run(0.5)
    sub_ok = 0.48 <= frac_sub <= 0.52 and np.all(sated_sub >= 0.99)

    frac_sup, _, unsated_sup = run(2.0)
    sup_ok = frac_sup >= 0.98 and unsated_sup >= 0.9 * replicas

    report(3, sub_ok and sup_ok,
           f"subcritical mean fraction {frac_sub:.4f}, min sated {sated_sub.min():.4f}; "
           f"supercritical fraction {frac_sup:.4f}, unsated in {unsated_sup}/{replicas}")


# --- criterion 4: coupled monotonicity, 100 pairs per coupling ---------------

def _coupling_violations(cfg_small, cfg_big, grid):
    a1 = gale_shapley(cfg_small, grid)
    a2 = gale_shapley(cfg_big, grid)
    cells = grid.cell_centers()
    d1 = np.full(grid.n_cells, np.inf)
    m1 = a1.assignment >= 0
    d1[m1] = distance(cells[m1], cfg_small.centers[a1.assignment[m1]], grid.domain)
    d2 = np.full(grid.n_cells, np.inf)
    m2 = a2.assignment >= 0
    d2[m2] = distance(cells[m2], cfg_big.centers[a2.assignment[m2]], grid.domain)
    dist_bad = int(np.count_nonzero(d1 < d2 - 1e-9))
    incl_bad = int(np.count_nonzero(m1 & ~m2))
    return dist_bad + incl_bad


def test_criterion_4_monotonicity():
    dom = Domain(sides=(10.0, 10.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.25)
    violations = {"centers": 0, "scale": 0, "floor": 0}
    for i in range(100):
        rng = replica_rng(30_000, i)
        centers = sample_poisson(dom, 0.3, rng)
        if len(centers) < 2:
            continue
        v = rng.uniform(0.1, 1.0, size=len(centers))

        keep = rng.random(len(centers)) < 0.6
        thin = PointConfiguration(centers[keep], v[keep])
        full = PointConfiguration(centers, v)
        violations["centers"] += _coupling_violations(thin, full, grid)

        lo = PointConfiguration(centers, 0.6 * v)
        hi = PointConfiguration(centers, 1.2 * v)
        violations["scale"] += _coupling_violations(lo, hi, grid)

        floored = PointConfiguration(centers, np.maximum(v, 0.6))
        violations["floor"] += _coupling_violations(full, floored, grid)
    total = sum(violations.values())
    report(4, total == 0, f"coupling violations {violations}")


# --- criterion 5: ball-union domination at half the finiteness threshold -----

def test_criterion_5_domination():
    dom = Domain(sides=(10.0, 10.0), periodic=True)
    grid = SiteGrid(domain=dom, spacing=0.125)
    scale = 0.5 * finiteness_threshold(1.0, 2, 1.0)
    dist = AppetiteDistribution("constant", {"value": 1.0}, scale=scale, floor=1.0)
    bad = 0
    for i in range(100):
        rng = replica_rng(40_000, i)
        centers = sample_poisson(dom, 1.0, rng)
        if len(centers) == 0:
            continue
        config = PointConfiguration(centers, sample_appetites(dist, len(centers), rng))
        alloc = gale_shapley(config, grid)
        model = build_boolean(config, dom)
        bad += len(check_domination(alloc, model, config, grid))
    report(5, bad == 0, f"{bad} escaping cells over 100 instances")


# --- criterion 6: radius sweep vs bisection oracle, 1000 instances -----------

def test_criterion_6_radius_sweep_vs_oracle():
    worst = 0.0
    checked = 0
    for i in range(1000):
        rng = replica_rng(50_000, i)
        d = 1 + i % 2
        dom = Domain(sides=(8.0,) * d, periodic=bool(i % 4 < 2))
        centers = sample_poisson(dom, 30.0 / dom.volume, rng)
        if len(centers) == 0:
            continue
        appetites = rng.uniform(0.02, 0.4, size=len(centers))
        config = PointConfiguration(centers, appetites)
        j = int(rng.integers(len(centers)))
        worst = max(worst, abs(compute_radius(j, config, dom)
                               - bisection_radius_oracle(j, config, dom)))
        checked += 1
    # minimum-radius equality witnessed by an isolated center
    dom = Domain(sides=(20.0, 20.0), periodic=True)
    iso = PointConfiguration(np.array([[10.0, 10.0]]), np.array([0.05]))
    b = min_radius(0.05, 1.0, 2)
    eq_ok = abs(compute_radius(0, iso, dom) - b) < 1e-12
    report(6, worst <= 1e-9 and eq_ok and checked > 900,
           f"worst sweep-oracle gap {worst:.2e} over {checked} instances; "
           f"minimum radius witnessed: {eq_ok}")


# --- criterion 7: locality of the capped radii -------------------------------

def test_criterion_7_locality():
    mismatches = 0
    for i in range(100):
        rng = replica_rng(60_000, i)
        dom = Domain(sides=(20.0, 20.0), periodic=False)
        centers = sample_poisson(dom, 0.7, rng)
        if len(centers) < 3:
            continue
        config = PointConfiguration(centers, rng.uniform(0.05, 0.4, size=len(centers)))
        x = np.array([10.0, 10.0])
        r = float(rng.uniform(1.0, 2.5))
        d_x = distance(x[None, :], centers, dom)
        inside = np.flatnonzero(d_x < r)
        local_ids = np.flatnonzero(d_x < 3 * r)
        local = PointConfiguration(centers[local_ids], config.appetites[local_ids])
        for gi in inside:
            full_in = compute_radius(int(gi), config, dom) < r
            li = int(np.searchsorted(local_ids, gi))
            local_in = compute_radius(li, local, dom) < r
            mismatches += full_in != local_in
    report(7, mismatches == 0, f"{mismatches} local/global set mismatches")


# --- criterion 8: bounds dominate their oracles ------------------------------

def _empirical_tail(sampler, n, x, total=1_000_000, batch=50_000, seed=0):
    hits = 0
    done = 0
    i = 0
    while done < total:
        m = min(batch, total - done)
        rng = replica_rng(70_000 + seed, i)
        sums = sampler(rng, (m, n)).sum(axis=1)
        hits += int(np.count_nonzero(sums > x))
        done += m
        i += 1
    p = hits / total
    sigma = math.sqrt(max(p * (1 - p), 1e-12) / total)
    return p, sigma


def test_criterion_8_bounds_dominate():
    chern_ok = all(
        poisson_chernoff(mean, mean * ratio)
        >= exact_poisson_tail(mean, math.ceil(mean * ratio)) - 1e-12
        for mean in (1.0, 5.0, 10.0, 50.0)
        for ratio in (1.1, 1.5, 2.0, 5.0)
    )

    n = 100
    delta = 1.0

    def pos_third_moment(pdf, mean, lo, hi):
        val, _ = integrate.quad(lambda v: (v - mean) ** 3 * pdf(v), mean, hi)
        return val

    families = {
        "exponential": {
            "sampler": lambda rng, size: rng.exponential(1.0, size=size) - 1.0,
            "var": 1.0,
            "upper": pos_third_moment(lambda v: math.exp(-v), 1.0, 0.0, np.inf),
            "x": 40.0,
        },
        "uniform": {
            "sampler": lambda rng, size: rng.random(size) - 0.5,
            "var": 1.0 / 12.0,
            "upper": pos_third_moment(lambda v: 1.0, 0.5, 0.0, 1.0),
            "x": 10.0,
        },
        "pareto(3.5)": {
            "sampler": lambda rng, size: (1.0 - rng.random(size)) ** (-1 / 3.5) - 1.4,
            "var": 3.5 / (2.5 ** 2 * 1.5),
            "upper": pos_third_moment(lambda v: 3.5 * v ** -4.5, 1.4, 1.0, np.inf),
            "x": 30.0,
        },
    }
    nagaev_ok = True
    details = []
    for si, (name, fam) in enumerate(families.items()):
        emp, sigma = _empirical_tail(fam["sampler"], n, fam["x"], seed=si)
        bound = nagaev_bound(n, fam["x"], fam["var"], fam["upper"], delta)
        ok = bound >= emp - 3 * sigma
        nagaev_ok &= ok
        details.append(f"{name}: bound {bound:.3g} vs empirical {emp:.3g}")
    report(8, chern_ok and nagaev_ok,
           f"chernoff grid: {chern_ok}; " + "; ".join(details))


# --- criteria 9 and 10: percolation phase separation -------------------------

@pytest.fixture(scope="module")
def crossing_runs():
    dom = Domain(sides=(30.0, 30.0), periodic=False)
    grid = SiteGrid(domain=dom, spacing=0.5)
    replicas = 100
    scales = (0.05, 1.2)
    claimed_cross = {s: np.zeros(replicas, dtype=bool) for s in scales}
    unclaimed_cross = np.zeros(replicas, dtype=bool)
    for rep in range(replicas):
        rng = replica_rng(80_000, rep)
        centers = sample_poisson(dom, 1.0, rng)
        for s in scales:
            config = PointConfiguration(centers, np.full(len(centers), s))
            alloc = gale_shapley(config, grid)
            claimed_cross[s][rep] = claimed_components(alloc, grid).percolates
            if s == 0.05:
                unc = mask_components(alloc.unclaimed_mask.reshape(grid.shape), grid)
                unclaimed_cross[rep] = unc.percolates
    return claimed_cross, unclaimed_cross, replicas


def test_criterion_9_phase_separation(crossing_runs):
    claimed_cross, _, replicas = crossing_runs
    p_lo = claimed_cross[0.05].mean()
    p_hi = claimed_cross[1.2].mean()
    monotone_bad = int(np.count_nonzero(claimed_cross[0.05] & ~claimed_cross[1.2]))
    report(9, p_lo <= 0.05 and p_hi >= 0.95 and monotone_bad == 0,
           f"crossing prob {p_lo:.3f} at scale 0.05, {p_hi:.3f} at 1.2, "
           f"{monotone_bad} coupled monotonicity violations")


def test_criterion_10_complement_percolation(crossing_runs):
    _, unclaimed_cross, replicas = crossing_runs
    p = unclaimed_cross.mean()
    report(10, p >= 0.95, f"unclaimed-set crossing in {p:.3f} of replicas at scale 0.05")


# --- criterion 11: tail statistic monotone in the scale ----------------------

def test_criterion_11_tail_statistic():
    dom = Domain(sides=(20.0, 20.0), periodic=True)

    def pooled(scale):
        models = []
        for rep in range(200):
            rng = replica_rng(90_000, rep)
            centers = sample_poisson(dom, 1.0, rng)
            if len(centers) == 0:
                continue
            config = PointConfiguration(centers, np.full(len(centers), scale))
            models.append(build_boolean(config, dom))
        return tail_statistics(models).sup_statistic

    lo = pooled(0.05)
    hi = pooled(0.2)
    report(11, lo < hi, f"sup statistic {lo:.5f} at scale 0.05 vs {hi:.5f} at 0.2")


# --- criterion 12: byte-identical artifacts across runs and workers ----------

def test_criterion_12_determinism(tmp_path):
    import hashlib

    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "dimension = 2\nsides = 8,8\nboundary = periodic\nintensity = 1.0\n"
        "family = constant\nvalue = 1.0\nscale = 0.5\nspacing = 0.25\n"
        "replicas = 3\nseed = 33\n"
    )

    def artifacts(run_dir):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.iterdir())
            if p.is_file() and p.name != "manifest.json"
        }

    hashes = []
    for tag, workers in (("v1", "1"), ("v2", "1"), ("v4", "4")):
        out = tmp_path / f"validate_{tag}"
        assert main(["validate", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == EXIT_OK
        hashes.append(artifacts(out))
    ok_validate = hashes[0] == hashes[1] == hashes[2]

    alloc_hashes = []
    for tag, workers in (("a1", "1"), ("a4", "4")):
        out = tmp_path / f"alloc_{tag}"
        assert main(["allocate", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == EXIT_OK
        alloc_hashes.append(artifacts(out))
    ok_alloc = alloc_hashes[0] == alloc_hashes[1]
    report(12, ok_validate and ok_alloc,
           f"validate identical: {ok_validate}; allocate 1 vs 4 workers identical: {ok_alloc}")
