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


def _unstable(rng, i) -> bool:
    """Deferred acceptance leaves an unstable pair."""
    domain = Domain(sides=(8.0, 8.0), periodic=bool(i % 2))
    grid = SiteGrid(domain=domain, spacing=0.25)
    centers = sample_poisson(domain, 0.4, rng)
    config = PointConfiguration(centers, rng.uniform(0.2, 2.0, size=len(centers)))
    return bool(verify_stability(gale_shapley(config, grid), config, grid))


def _radius_off(rng, i) -> bool:
    """The radius sweep misses the bisection root of a random center."""
    domain = Domain(sides=(10.0, 10.0), periodic=bool(i % 2))
    centers = sample_poisson(domain, 0.5, rng)
    if len(centers) == 0:
        return False
    config = PointConfiguration(centers, rng.uniform(0.05, 0.5, size=len(centers)))
    j = int(rng.integers(len(centers)))
    return abs(compute_radius(j, config, domain) - bisection_radius_oracle(j, config, domain)) > 1e-9


def _not_monotone(rng, i) -> bool:
    """A cell claimed at scale 0.3 is unclaimed at 0.6 on the same draws."""
    domain = Domain(sides=(12.0, 12.0), periodic=True)
    grid = SiteGrid(domain=domain, spacing=0.25)
    centers = sample_poisson(domain, 0.5, rng)
    draws = rng.random(len(centers))
    low = AppetiteDistribution("exponential", {"mean": 1.0}, scale=0.3, floor=0.1)
    a1, a2 = (gale_shapley(PointConfiguration(centers, dist.quantile(draws)), grid).assignment
              for dist in (low, replace(low, scale=0.6)))
    return bool(np.any((a1 >= 0) & (a2 < 0) & (a2 != TIE)))


def _undominated(rng, i) -> bool:
    """A claimed cell lies outside its center's dominating ball."""
    domain = Domain(sides=(5.0, 5.0), periodic=True)
    grid = SiteGrid(domain=domain, spacing=0.0625)
    centers = sample_poisson(domain, 1.0, rng)
    if len(centers) == 0:
        return False
    dist = AppetiteDistribution("constant", {"value": 1.0}, scale=0.1, floor=1.0)
    config = PointConfiguration(centers, sample_appetites(dist, len(centers), rng))
    return bool(check_domination(gale_shapley(config, grid), build_boolean(config, domain),
                                 config, grid))


def _ball_partition_differs(rng, i) -> bool:
    """csgraph and BFS disagree on the components of a ball union."""
    domain = Domain(sides=(10.0, 10.0), periodic=bool(i % 2))
    centers = sample_poisson(domain, 1.0, rng)
    if len(centers) == 0:
        return False
    radii = rng.uniform(0.2, 0.8, size=len(centers))
    model = BooleanModel(centers=centers, radii=radii, min_radius=0.2,
                         truncated=np.zeros(len(radii), dtype=bool))
    return not same_partition(ball_components(model, domain).labels,
                              bfs_ball_components_oracle(centers, radii, domain))


def _mask_partition_differs(rng, i) -> bool:
    """Grid components and flood fill disagree on a random mask."""
    domain = Domain(sides=(8.0, 8.0), periodic=bool(i % 2))
    grid = SiteGrid(domain=domain, spacing=0.5)
    mask = rng.random(grid.shape) < 0.5
    on = mask.ravel()
    fast = mask_components(mask, grid).labels
    slow = floodfill_mask_oracle(mask, domain.periodic).ravel()
    return not same_partition(fast[on], slow[on])


def _chernoff_below_tail(rng, i) -> bool:
    """The Chernoff bound undercuts the exact Poisson tail at grid point i
    (4 means x 4 ratios); rng is unused."""
    mean = (1.0, 5.0, 10.0, 50.0)[i // 4]
    a = mean * (1.1, 1.5, 2.0, 5.0)[i % 4]
    return poisson_chernoff(mean, a) < exact_poisson_tail(mean, math.ceil(a)) - 1e-12


# (name, stream base, instances, predicate). A predicate builds instance i
# from its rng, in a fixed draw order, and says whether the fast path
# disagrees with its oracle. Bases 1000 apart keep the rows' streams disjoint.
_CHECKS = (
    ("stability", 0, 20, _unstable),
    ("radius_sweep_vs_bisection", 1000, 50, _radius_off),
    ("claimed_set_monotone_in_scale", 2000, 20, _not_monotone),
    ("ball_union_dominates_claimed_set", 3000, 20, _undominated),
    ("ball_components_vs_bfs", 4000, 20, _ball_partition_differs),
    ("mask_components_vs_floodfill", 5000, 20, _mask_partition_differs),
    ("poisson_chernoff_dominates_exact_tail", 6000, 16, _chernoff_below_tail),
)


def _count(seed: int, base: int, n: int, failed) -> int:
    """The instances i < n for which failed(replica_rng(seed, base + i), i) holds."""
    return sum(failed(replica_rng(seed, base + i), i) for i in range(n))


def run_validation(seed: int, workers: int = 1) -> list[CheckResult]:
    """Every check, in a fixed order. Each check draws from its own seeded
    streams, so running them on a thread pool changes no result."""
    def run(row):
        name, base, n, failed = row
        return CheckResult(name, n, _count(seed, base, n, failed))

    return map_ordered(run, _CHECKS, workers)
