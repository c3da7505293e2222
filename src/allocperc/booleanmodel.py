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
from .geometry import Domain, distance, kd_tree, nearest_until, unit_ball_volume


class BooleanModelError(ValueError):
    pass


@dataclass(frozen=True)
class BooleanModel:
    """Centers with their dominating radii; truncated flags mark censored radii.

    A center is censored when its 2R-ball is not fully resolved by the window
    (exits an open box, or wraps more than half a periodic side), so its R is
    only a lower bound.

    min_radius is the own-root (a_min / |B_1|)^(1/d) of the smallest sampled
    appetite a_min. Every appetite is at least scale * floor and every radius
    at least its center's own-root, so min_radius(scale, floor, d) <=
    min_radius <= radii.min().
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


def _radii(config: PointConfiguration, domain: Domain, rows: np.ndarray) -> np.ndarray:
    """Dominating radii of the centers rows.

    A radius r depends only on the centers within 2r, so each center sweeps
    its row of k nearest centers (geometry.nearest_until), exact below the
    row's bound. k starts at 2, the center and its nearest neighbour, and
    doubles until the row's first root r has 2r < bound, or the row holds
    every center. A row holds the distances of the dense matrix in
    (distance, index) order, so ties and floats match a full-row sweep.
    """
    _require_floor(config)
    pi_d = unit_ball_volume(domain.dim)
    out = np.empty(len(rows))

    def sweep(own, nbr, sd, bound, k):
        # The breakpoints are half distances. Entries at or past the bound
        # have distance inf and get appetite 0, so they add nothing and open
        # no interval.
        cum = np.cumsum(np.where(sd < np.inf, config.appetites[nbr], 0.0), axis=1)
        starts = sd / 2.0
        ends = np.hstack([starts[:, 1:], np.full((len(own), 1), np.inf)])
        roots = (cum / pi_d) ** (1.0 / domain.dim)
        # Coincident breakpoints give empty intervals; skip them so the sum is
        # the true closed-ball sum at the returned radius. The last entry ends
        # at inf, so every row has a root.
        first = np.argmax((roots < ends) & (starts < ends), axis=1)[:, None]
        r = np.maximum(np.take_along_axis(starts, first, axis=1),
                       np.take_along_axis(roots, first, axis=1))[:, 0]
        # A full row is final even where an infinite appetite gives r = inf.
        done = (2.0 * r < bound) | (bound == np.inf)
        out[own[done]] = r[done]
        return done

    centers = config.centers
    nearest_until(kd_tree(centers, domain), centers[rows], centers, domain, sweep)
    return out


def compute_radius(
    center_index: int, config: PointConfiguration, domain: Domain
) -> float:
    """Dominating radius of one center, by exact breakpoint sweep."""
    return float(_radii(config, domain, np.array([center_index]))[0])


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
    cidx = np.flatnonzero(alloc.assignment >= 0)
    owners = alloc.assignment[cidx]
    dist_own = distance(cells[cidx], config.centers[owners], grid.domain)
    bad = dist_own > model.radii[owners] + slack
    return list(zip(cidx[bad].tolist(), owners[bad].tolist()))


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
