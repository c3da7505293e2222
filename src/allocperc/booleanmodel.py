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

from . import geometry
from .allocation import AllocationResult, PointConfiguration, SiteGrid
from .geometry import Domain, distance, kd_tree, keep, nearest_until, unit_ball_volume


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
    truncated: np.ndarray

    @property
    def n_balls(self) -> int:
        return len(self.radii)


def min_radius(scale: float, floor: float, d: int) -> float:
    """Hard lower bound on every radius, forced by the appetite floor: every
    appetite is at least scale * floor, and every radius at least its
    center's own root (appetite / |B_1|)^(1/d)."""
    return (scale * floor / unit_ball_volume(d)) ** (1.0 / d)


def _radii(config: PointConfiguration, domain: Domain, rows: np.ndarray):
    """Dominating radii of the centers rows.

    A radius r depends only on the centers within 2r, so each center sweeps
    its row of k nearest centers (geometry.nearest_until), exact below the
    row's bound. k starts at 2, the center and its nearest neighbour, and
    doubles until the row's first root r has 2r < bound, or the row holds
    every center. A row holds the distances of the dense matrix in
    (distance, index) order, so ties and floats match a full-row sweep. Also
    returns the rows' entries below 2r as (i, j, distance) arrays, or None
    where they exceed geometry.BLOCK triples.
    """
    _require_floor(config)
    pi_d = unit_ball_volume(domain.dim)
    out = np.empty(len(rows))
    kept = []

    def sweep(own, nbr, sd, bound, k):
        nonlocal kept
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
        near = done[:, None] & (sd < 2.0 * r[:, None])
        fits = kept is not None and sum(len(x[0]) for x in kept) + near.sum() <= geometry.BLOCK
        kept = kept + [(np.repeat(own, near.sum(axis=1)), nbr[near], sd[near])] if fits else None
        return done

    centers = config.centers
    nearest_until(kd_tree(centers, domain), centers[rows], centers, domain, sweep)
    return out, tuple(map(np.concatenate, zip(*kept))) if kept else None


def compute_radius(
    center_index: int, config: PointConfiguration, domain: Domain
) -> float:
    """Dominating radius of one center, by exact breakpoint sweep."""
    return float(_radii(config, domain, np.array([center_index]))[0][0])


def _require_floor(config: PointConfiguration) -> None:
    if np.any(config.appetites <= 0):
        raise BooleanModelError(
            "dominating radii need every appetite > 0; raise the scale or the floor"
        )


def build_boolean(config: PointConfiguration, domain: Domain) -> BooleanModel:
    """Boolean model with one dominating ball per center.

    A radius is censored when it exceeds its window cap, the largest r whose
    2r-ball the window resolves: a quarter of the shortest periodic side, or
    half the distance to the nearest open wall.
    """
    n = config.n_centers
    keep(None, "rows")  # free the old entry before the build
    radii, near = _radii(config, domain, np.arange(n))
    keep(near, "rows", domain, config.centers, radii)  # ball_components' candidates
    sides = np.asarray(domain.sides)
    if domain.periodic:
        caps = np.full(n, sides.min() / 4.0)
    else:
        caps = np.minimum(config.centers, sides - config.centers).min(axis=1) / 2.0
    return BooleanModel(centers=config.centers, radii=radii, truncated=radii > caps)


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


def tail_statistics(models: list[BooleanModel]) -> TailStatistics:
    """Pooled survival of the radii on a 200-point log grid plus sup_r r^d * P[R > r].

    Censored (window-truncated) radii are excluded. The grid runs from half
    the smallest positive radius to just past the largest. On [x_(k-1), x_k)
    between sorted radii, r^d * P[R > r] <= x_k^d * #{R >= x_k} / n, so the
    supremum is the maximum over the jump points x_k.
    """
    if not models:
        raise BooleanModelError("need at least one model")
    d = models[0].centers.shape[1]
    pooled = np.sort(np.concatenate([m.radii[~m.truncated] for m in models]))
    n = pooled.size
    if n == 0:
        raise BooleanModelError("all radii are censored; enlarge the box or lower the scale")
    positive = pooled[pooled > 0]
    if positive.size == 0 or positive[0] * 0.5 == 0:  # no float below the smallest radius
        raise BooleanModelError("the radii underflow the float range; raise the scale or the floor")
    grid = np.geomspace(positive[0] * 0.5, pooled[-1] * 1.001, 200)
    survival = (n - np.searchsorted(pooled, grid, side="right")) / n
    at_jumps = n - np.searchsorted(pooled, pooled, side="left")  # #{R >= x_k}
    return TailStatistics(
        r_grid=grid,
        survival=survival,
        sup_statistic=float(np.max(pooled ** d * at_jumps / n)),
        n_radii=int(n),
    )
