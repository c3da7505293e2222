"""Dominating ball radii for centers with floor-truncated appetites.

The radius of a center is the smallest r whose ball volume absorbs the total
appetite of all centers within distance 2r. The appetite sum is a step
function of r, so the infimum is found exactly by sweeping the half-distance
breakpoints. The union of these balls contains the claimed set when the scale
is below the finiteness threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationResult, PointConfiguration, SiteGrid
from .geometry import Domain, distance, kd_tree, pairwise_distances, unit_ball_volume


class BooleanModelError(ValueError):
    pass


@dataclass(frozen=True)
class BooleanModel:
    """Centers with their dominating radii; truncated flags mark censored radii.

    A center is censored when its 2R-ball is not fully resolved by the window
    (exits an open box, or wraps more than half a periodic side), so its R is
    only a lower bound.
    """

    centers: np.ndarray
    radii: np.ndarray
    min_radius: float
    truncated: np.ndarray

    @property
    def n_balls(self) -> int:
        return len(self.radii)


def min_radius(scale: float, floor: float, d: int) -> float:
    """Hard lower bound on every radius, forced by the appetite floor."""
    return (scale * floor / unit_ball_volume(d)) ** (1.0 / d)


def _radius_from_sorted(sorted_d: np.ndarray, sorted_app: np.ndarray, pi_d: float,
                        d: int) -> float:
    """First r with cumulative appetite <= ball volume, breakpoints at d_k/2.

    sorted_d[0] must be 0 (the center itself). The last interval is open-ended,
    so a root always exists.
    """
    cum = np.cumsum(sorted_app)
    starts = sorted_d / 2.0
    ends = np.append(sorted_d[1:] / 2.0, math.inf)
    roots = (cum / pi_d) ** (1.0 / d)
    # Coincident breakpoints give empty intervals; skip them so the sum is
    # the true closed-ball sum at the returned radius.
    first = np.argmax((roots < ends) & (starts < ends))
    return float(np.maximum(starts[first], roots[first]))


def _radii(config: PointConfiguration, domain: Domain, rows: np.ndarray,
           cap: float = math.inf) -> np.ndarray:
    """Dominating radii of the centers rows, each clipped at cap.

    A radius r <= R depends only on the centers within 2R, so each center
    sweeps the kd-tree neighbour list within 2R. R starts at twice the
    center's own root and doubles until a root lies below R, R reaches cap,
    or the list holds every center. The tree only selects candidates: the
    distances are recomputed as in the dense matrix and sorted stably over
    index-sorted neighbours, so ties and floats match a full-row sweep.
    """
    _require_floor(config)
    centers, appetites = config.centers, config.appetites
    n, d = config.n_centers, domain.dim
    pi_d = unit_ball_volume(d)
    tree = kd_tree(centers, domain)
    reach = np.minimum(2.0 * (appetites[rows] / pi_d) ** (1.0 / d), cap)
    out = np.empty(len(rows))
    todo = np.arange(len(rows))
    while todo.size:
        lists = tree.query_ball_point(tree.data[rows[todo]], 2.0 * reach[todo] * (1 + 1e-9),
                                      return_sorted=True)
        again = []
        for k, near in zip(todo, lists):
            near = np.asarray(near, dtype=np.intp)
            dist = pairwise_distances(centers[rows[k]], centers[near], domain)[0]
            keep = dist <= 2.0 * reach[k]
            dist, near = dist[keep], near[keep]
            order = np.argsort(dist, kind="stable")
            r = _radius_from_sorted(dist[order], appetites[near[order]], pi_d, d)
            if r <= reach[k] or reach[k] >= cap or len(near) == n:
                out[k] = min(r, cap)
            else:
                reach[k] = min(2.0 * reach[k], cap)
                again.append(k)
        todo = np.asarray(again, dtype=np.intp)
    return out


def compute_radius(
    center_index: int, config: PointConfiguration, domain: Domain
) -> float:
    """Dominating radius of one center, by exact breakpoint sweep."""
    return float(_radii(config, domain, np.array([center_index]))[0])


def compute_radius_truncated(
    center_index: int, config: PointConfiguration, domain: Domain, cap: float
) -> float:
    """Same sweep restricted to [0, cap]; cap when no root lies below it."""
    if cap <= 0:
        raise BooleanModelError("cap must be positive")
    return float(_radii(config, domain, np.array([center_index]), cap)[0])


def _require_floor(config: PointConfiguration) -> None:
    if np.any(config.appetites <= 0):
        raise BooleanModelError(
            "dominating radii need a positive appetite floor (every appetite > 0)"
        )


def build_boolean(config: PointConfiguration, domain: Domain) -> BooleanModel:
    """Boolean model with one dominating ball per center.

    A radius is censored when it exceeds its window cap, the largest r whose
    2r-ball the window resolves: a quarter of the shortest periodic side, or
    half the distance to the nearest open wall.
    """
    n = config.n_centers
    radii = _radii(config, domain, np.arange(n))
    sides = np.asarray(domain.sides)
    if domain.periodic:
        caps = np.full(n, sides.min() / 4.0)
    else:
        caps = np.minimum(config.centers, sides - config.centers).min(axis=1) / 2.0
    pi_d = unit_ball_volume(domain.dim)
    return BooleanModel(
        centers=config.centers,
        radii=radii,
        min_radius=float(config.appetites.min() / pi_d) ** (1.0 / domain.dim) if n else 0.0,
        truncated=radii > caps,
    )


def check_domination(
    alloc: AllocationResult,
    model: BooleanModel,
    config: PointConfiguration,
    grid: SiteGrid,
) -> list[tuple[int, int]]:
    """Cells escaping their center's dominating ball, beyond one-cell slack."""
    if model.n_balls != config.n_centers:
        raise BooleanModelError("model and configuration sizes disagree")
    cells = grid.cell_centers()
    slack = grid.spacing * math.sqrt(grid.domain.dim)
    violations = []
    assign = alloc.assignment
    claimed = assign >= 0
    if not np.any(claimed):
        return violations
    cidx = np.flatnonzero(claimed)
    owners = assign[claimed]
    dist_own = distance(cells[claimed], config.centers[owners], grid.domain)
    bad = dist_own > model.radii[owners] + slack
    for cell, owner in zip(cidx[bad], owners[bad]):
        violations.append((int(cell), int(owner)))
    return violations


@dataclass(frozen=True)
class TailStatistics:
    r_grid: np.ndarray
    survival: np.ndarray
    sup_statistic: float
    n_radii: int


def tail_statistics(models: list[BooleanModel], n_grid: int = 200) -> TailStatistics:
    """Pooled survival of the radii on a log grid plus sup_r r^d * P[R > r].

    Censored (window-truncated) radii are excluded.
    """
    if not models:
        raise BooleanModelError("need at least one model")
    d = models[0].centers.shape[1]
    pooled = np.concatenate([m.radii[~m.truncated] for m in models])
    if pooled.size == 0:
        raise BooleanModelError("all radii are censored; nothing to pool")
    r_lo = pooled.min() * 0.5
    r_hi = pooled.max() * 1.001
    grid = np.geomspace(max(r_lo, 1e-12), r_hi, n_grid)
    pooled_sorted = np.sort(pooled)
    # P[R > r] via right-side rank
    counts = pooled.size - np.searchsorted(pooled_sorted, grid, side="right")
    survival = counts / pooled.size
    sup_stat = float(np.max(grid ** d * survival))
    # include the exact jump points, where r^d * P[R > r] peaks
    jump_stat = float(np.max(pooled_sorted ** d
                             * (pooled.size - np.searchsorted(pooled_sorted, pooled_sorted, side="left"))
                             / pooled.size))
    return TailStatistics(
        r_grid=grid,
        survival=survival,
        sup_statistic=max(sup_stat, jump_stat),
        n_radii=int(pooled.size),
    )
