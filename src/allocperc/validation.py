"""Invariant battery behind the `validate` subcommand.

Each check pits a fast-path implementation against an independent brute-force
oracle (bisection, BFS, exact summation) on randomized instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .allocation import TIE, PointConfiguration, SiteGrid, gale_shapley, verify_stability
from .appetite import AppetiteDistribution, sample_appetites
from .booleanmodel import BooleanModel, build_boolean, check_domination, compute_radius
from .bounds import poisson_chernoff
from .geometry import Domain, distance, replica_rng, sample_poisson, unit_ball_volume
from .percolation import ball_components, map_ordered, mask_components


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def bisection_radius_oracle(center_index: int, config: PointConfiguration,
                            domain: Domain, tol: float = 1e-12) -> float:
    """First root of r -> ball volume minus in-range appetite sum, by interval
    scan plus bisection with direct sums. Independent of the sweep."""
    d = domain.dim
    pi_d = unit_ball_volume(d)
    me = config.centers[center_index]
    dists = distance(me[None, :], config.centers, domain)

    def gap(r):
        inside = dists <= 2.0 * r
        return pi_d * r ** d - config.appetites[inside].sum()

    breaks = np.unique(dists / 2.0)
    edges = list(breaks) + [max(breaks[-1] * 2 + 1.0, 1.0)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if gap(lo) >= 0:
            return float(lo)
        mid_hi = hi - tol
        if gap(mid_hi) < 0:
            continue
        a, b = lo, mid_hi
        while b - a > tol:
            m = 0.5 * (a + b)
            if gap(m) >= 0:
                b = m
            else:
                a = m
        return float(b)
    # beyond the farthest breakpoint the sum is constant
    total = config.appetites.sum()
    return float((total / pi_d) ** (1.0 / d))


def bfs_ball_components_oracle(centers: np.ndarray, radii: np.ndarray,
                               domain: Domain) -> np.ndarray:
    """Component labels by plain BFS over the overlap graph."""
    n = len(radii)
    labels = -np.ones(n, dtype=np.int64)
    nxt = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        queue = [start]
        labels[start] = nxt
        while queue:
            i = queue.pop()
            di = distance(centers[i][None, :], centers, domain)
            nbrs = np.flatnonzero((di < radii[i] + radii) & (labels < 0))
            for j in nbrs:
                labels[j] = nxt
                queue.append(int(j))
        nxt += 1
    return labels


def floodfill_mask_oracle(mask: np.ndarray, periodic: bool) -> np.ndarray:
    """Component labels of a boolean grid by iterative flood fill."""
    shape = mask.shape
    labels = -np.ones(shape, dtype=np.int64)
    nxt = 0
    d = len(shape)
    for start in np.argwhere(mask):
        start = tuple(start)
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = nxt
        while stack:
            cell = stack.pop()
            for ax in range(d):
                for step in (-1, 1):
                    nb = list(cell)
                    nb[ax] += step
                    if periodic:
                        nb[ax] %= shape[ax]
                    elif not (0 <= nb[ax] < shape[ax]):
                        continue
                    nb = tuple(nb)
                    if mask[nb] and labels[nb] < 0:
                        labels[nb] = nxt
                        stack.append(nb)
        nxt += 1
    return labels


def exact_poisson_tail(mean: float, threshold: int) -> float:
    """P[N >= threshold] by direct summation of the complementary mass."""
    k = 0
    term = math.exp(-mean)
    acc = 0.0
    while k < threshold:
        acc += term
        k += 1
        term *= mean / k
    return max(0.0, 1.0 - acc)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Do two label vectors induce the same partition?"""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def _check_stability(seed: int) -> CheckResult:
    """Stability of deferred acceptance on random instances."""
    fails = 0
    n_inst = 20
    for i in range(n_inst):
        rng = replica_rng(seed, i)
        domain = Domain(sides=(8.0, 8.0), periodic=bool(i % 2))
        grid = SiteGrid(domain=domain, spacing=0.25)
        centers = sample_poisson(domain, 0.4, rng)
        appetites = rng.uniform(0.2, 2.0, size=len(centers))
        config = PointConfiguration(centers=centers, appetites=appetites)
        alloc = gale_shapley(config, grid)
        if verify_stability(alloc, config, grid):
            fails += 1
    return CheckResult("stability", n_inst, fails)


def _check_radius_sweep(seed: int) -> CheckResult:
    """Radius sweep against the bisection oracle."""
    fails = 0
    n_inst = 50
    for i in range(n_inst):
        rng = replica_rng(seed, 1000 + i)
        domain = Domain(sides=(10.0, 10.0), periodic=bool(i % 2))
        centers = sample_poisson(domain, 0.5, rng)
        if len(centers) == 0:
            continue
        appetites = rng.uniform(0.05, 0.5, size=len(centers))
        config = PointConfiguration(centers=centers, appetites=appetites)
        j = int(rng.integers(len(centers)))
        fast = compute_radius(j, config, domain)
        slow = bisection_radius_oracle(j, config, domain)
        if abs(fast - slow) > 1e-9:
            fails += 1
    return CheckResult("radius_sweep_vs_bisection", n_inst, fails)


def _check_monotone_in_scale(seed: int) -> CheckResult:
    """Pathwise monotonicity of the claimed set in the scale."""
    fails = 0
    n_inst = 20
    dist_lo = AppetiteDistribution("exponential", {"mean": 1.0}, scale=0.3, floor=0.1)
    for i in range(n_inst):
        domain = Domain(sides=(12.0, 12.0), periodic=True)
        grid = SiteGrid(domain=domain, spacing=0.25)
        rng = replica_rng(seed, 2000 + i)
        centers = sample_poisson(domain, 0.5, rng)
        draws = rng.random(len(centers))
        cfg1 = PointConfiguration(centers, dist_lo.quantile(draws))
        cfg2 = PointConfiguration(centers, replace(dist_lo, scale=0.6).quantile(draws))
        a1, a2 = gale_shapley(cfg1, grid), gale_shapley(cfg2, grid)
        ok = a1.assignment >= 0
        if np.any(ok & ~(a2.assignment >= 0) & (a2.assignment != TIE)):
            fails += 1
    return CheckResult("claimed_set_monotone_in_scale", n_inst, fails)


def _check_domination(seed: int) -> CheckResult:
    """Domination of the claimed set by the ball union."""
    fails = 0
    n_inst = 20
    for i in range(n_inst):
        domain = Domain(sides=(10.0, 10.0), periodic=True)
        grid = SiteGrid(domain=domain, spacing=0.125)
        rng = replica_rng(seed, 3000 + i)
        centers = sample_poisson(domain, 1.0, rng)
        if len(centers) == 0:
            continue
        dist = AppetiteDistribution("constant", {"value": 1.0}, scale=0.1, floor=1.0)
        appetites = sample_appetites(dist, len(centers), rng)
        config = PointConfiguration(centers, appetites)
        alloc = gale_shapley(config, grid)
        model = build_boolean(config, domain)
        if check_domination(alloc, model, config, grid):
            fails += 1
    return CheckResult("ball_union_dominates_claimed_set", n_inst, fails)


def _check_ball_components(seed: int) -> CheckResult:
    """csgraph components vs BFS on ball overlap graphs."""
    fails = 0
    n_inst = 20
    for i in range(n_inst):
        rng = replica_rng(seed, 4000 + i)
        domain = Domain(sides=(10.0, 10.0), periodic=bool(i % 2))
        centers = sample_poisson(domain, 1.0, rng)
        if len(centers) == 0:
            continue
        radii = rng.uniform(0.2, 0.8, size=len(centers))
        model = BooleanModel(centers=centers, radii=radii, min_radius=0.2,
                             truncated=np.zeros(len(radii), dtype=bool))
        fast = ball_components(model, domain).labels
        slow = bfs_ball_components_oracle(centers, radii, domain)
        if not same_partition(fast, slow):
            fails += 1
    return CheckResult("ball_components_vs_bfs", n_inst, fails)


def _check_mask_components(seed: int) -> CheckResult:
    """Grid components vs flood fill."""
    fails = 0
    n_inst = 20
    for i in range(n_inst):
        rng = replica_rng(seed, 5000 + i)
        domain = Domain(sides=(8.0, 8.0), periodic=bool(i % 2))
        grid = SiteGrid(domain=domain, spacing=0.5)
        mask = rng.random(grid.shape) < 0.5
        fast = mask_components(mask, grid).labels.reshape(grid.shape)
        slow = floodfill_mask_oracle(mask, domain.periodic)
        on = mask.ravel()
        if not same_partition(fast.ravel()[on], slow.ravel()[on]):
            fails += 1
    return CheckResult("mask_components_vs_floodfill", n_inst, fails)


def _check_chernoff(seed: int) -> CheckResult:
    """Chernoff bound dominates the exact Poisson tail (seed unused)."""
    fails = 0
    n_inst = 0
    for mean in (1.0, 5.0, 10.0, 50.0):
        for ratio in (1.1, 1.5, 2.0, 5.0):
            n_inst += 1
            a = mean * ratio
            exact = exact_poisson_tail(mean, math.ceil(a))
            if poisson_chernoff(mean, a) < exact - 1e-12:
                fails += 1
    return CheckResult("poisson_chernoff_dominates_exact_tail", n_inst, fails)


_CHECKS = (_check_stability, _check_radius_sweep, _check_monotone_in_scale,
           _check_domination, _check_ball_components, _check_mask_components,
           _check_chernoff)


def run_validation(seed: int, workers: int = 1) -> list[CheckResult]:
    """Every check, in a fixed order. Each check draws from its own seeded
    streams, so running them on a thread pool changes no result."""
    return map_ordered(lambda check: check(seed), _CHECKS, workers)
