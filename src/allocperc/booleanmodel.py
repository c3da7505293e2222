"""Dominating ball radii for centers with floor-truncated appetites.

The radius of a center is the smallest r whose ball volume absorbs the total
appetite of all centers within distance 2r. The appetite sum is a step
function of r, so the infimum is found exactly by sweeping the half-distance
breakpoints. The union of these balls contains the claimed set when the scale
is below the finiteness threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .allocation import AllocationResult, PointConfiguration, SiteGrid
from .geometry import Domain, distance, kd_tree, nearest, unit_ball_volume, within


class BooleanModelError(ValueError):
    pass


@dataclass(frozen=True)
class BooleanModel:
    """Centers with their dominating radii; truncated flags mark censored radii.

    A center is censored when its 2R-ball is not fully resolved by the window
    (exits an open box, or wraps more than half a periodic side), so its R is
    only a lower bound. edges, the overlap pairs that build_boolean derives
    from its radius rows, cannot be passed in: a model made by hand or by
    dataclasses.replace carries none, and a built model's radii are read-only.
    """

    centers: np.ndarray
    radii: np.ndarray
    truncated: np.ndarray
    edges: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def n_balls(self) -> int:
        return len(self.radii)


def min_radius(scale: float, floor: float, d: int) -> float:
    """Hard lower bound on every radius, forced by the appetite floor: every
    appetite is at least scale * floor, and every radius at least its
    center's own root (appetite / |B_1|)^(1/d)."""
    return (scale * floor / unit_ball_volume(d)) ** (1.0 / d)


def _radii(config: PointConfiguration, domain: Domain, which: np.ndarray):
    """Dominating radii of the centers indexed by which.

    A radius r depends only on the centers within 2r, so each center sweeps
    its row of k nearest centers (geometry.nearest), exact below the row's
    bound. k starts at 2, the center and its nearest neighbour, and doubles
    for the rows whose first root r has 2r at or past the bound, until the
    row holds every center; a pass at k runs in blocks of geometry.BLOCK // k
    rows. A row holds the distances of the dense matrix in (distance, index)
    order, so ties and floats match a full-row sweep. Also returns the rows'
    entries below 2r as (i, j, distance) arrays, or None where they exceed
    geometry.BLOCK triples.
    """
    if np.any(config.appetites <= 0):
        raise BooleanModelError(
            "dominating radii need every appetite > 0; raise the scale or the floor"
        )
    pi_d = unit_ball_volume(domain.dim)
    centers = config.centers
    tree, pts = kd_tree(centers, domain), centers[which]
    out = np.empty(len(which))
    rows, todo, k = [], np.arange(len(which)), 2
    while todo.size:
        again, step = [], max(1, geometry.BLOCK // k)
        for s in range(0, todo.size, step):
            own = todo[s:s + step]
            nbr, sd, bound = nearest(tree, pts[own], k, centers, domain)
            # The breakpoints are half distances. Entries at or past the
            # bound have distance inf and get appetite 0, so they add
            # nothing and open no interval.
            cum = np.cumsum(np.where(sd < np.inf, config.appetites[nbr], 0.0), axis=1)
            starts = sd / 2.0
            ends = np.hstack([starts[:, 1:], np.full((len(own), 1), np.inf)])
            roots = (cum / pi_d) ** (1.0 / domain.dim)
            # Coincident breakpoints give empty intervals; skip them so the
            # sum is the true closed-ball sum at the returned radius. The
            # last entry ends at inf, so every row has a root.
            first = np.argmax((roots < ends) & (starts < ends), axis=1)[:, None]
            r = np.maximum(np.take_along_axis(starts, first, axis=1),
                           np.take_along_axis(roots, first, axis=1))[:, 0]
            # A full row is final even where an infinite appetite gives r = inf.
            done = (2.0 * r < bound) | (bound == np.inf)
            out[own[done]] = r[done]
            near = done[:, None] & (sd < 2.0 * r[:, None])
            fits = rows is not None and sum(len(x[0]) for x in rows) + near.sum() <= geometry.BLOCK
            rows = rows + [(np.repeat(own, near.sum(axis=1)), nbr[near], sd[near])] if fits else None
            again.append(own[~done])
        todo, k = np.concatenate(again), 2 * k
    return out, tuple(map(np.concatenate, zip(*rows))) if rows else None


def compute_radius(
    center_index: int, config: PointConfiguration, domain: Domain
) -> float:
    """Dominating radius of one center, by exact breakpoint sweep."""
    return float(_radii(config, domain, np.array([center_index]))[0][0])


def build_boolean(config: PointConfiguration, domain: Domain) -> BooleanModel:
    """Boolean model with one dominating ball per center.

    A radius is censored when it exceeds its window cap, the largest r whose
    2r-ball the window resolves: a quarter of the shortest periodic side, or
    half the distance to the nearest open wall.
    """
    n = config.n_centers
    radii, rows = _radii(config, domain, np.arange(n))
    radii.setflags(write=False)
    sides = np.asarray(domain.sides)
    if domain.periodic:
        caps = np.full(n, sides.min() / 4.0)
    else:
        caps = np.minimum(config.centers, sides - config.centers).min(axis=1) / 2.0
    model = BooleanModel(centers=config.centers, radii=radii, truncated=radii > caps)
    if rows is not None:  # the radius rows fit in geometry.BLOCK triples
        object.__setattr__(model, "edges", ball_overlaps(model, domain, rows))
        model.edges.setflags(write=False)
    return model


def ball_overlaps(model: BooleanModel, domain: Domain, rows=None) -> np.ndarray:
    """(m, 2) pairs of overlapping balls, the model's edges if it has them;
    tangency does not connect.

    Ball i proposes its partners within 2 r_i that precede it in (radius,
    index) order, since d < r_i + r_j <= 2 max(r_i, r_j); the recomputed
    distance decides. The (i, j, distance) triples are the radius rows that
    build_boolean passes, else geometry.within's blocks. A settled row is
    exact below a bound above 2 r_i, and distance gives the same floats
    whatever the shapes, so both give the same pairs.
    """
    if model.edges is not None:
        return model.edges
    centers, radii = model.centers, np.asarray(model.radii)
    edges = [np.empty((0, 2), dtype=np.int64)]
    for i, j, d in [rows] if rows is not None else within(
            kd_tree(centers, domain), centers, 2.0 * radii, centers, domain):
        ok = (radii[j] < radii[i]) | ((radii[j] == radii[i]) & (j < i))
        i, j, d = i[ok], j[ok], d[ok]
        ok = d < radii[i] + radii[j]
        edges.append(np.stack([i[ok], j[ok]], axis=1))
    return np.concatenate(edges)


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
