"""Dominating ball radii for centers with floor-truncated appetites.

The radius of a center is the smallest r whose ball volume absorbs the total
appetite of all centers within distance 2r. The appetite sum is a step
function of r, so the infimum is found exactly by sweeping the half-distance
breakpoints. The union of these balls contains the claimed set when the scale
is below the finiteness threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationResult, PointConfiguration, SiteGrid
from .geometry import Domain, distance, kd_tree, unit_ball_volume

_SWEEP_BLOCK = 1 << 20  # padded list entries per block of the breakpoint sweep


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


def _radii(config: PointConfiguration, domain: Domain, rows: np.ndarray,
           cap: float = math.inf) -> np.ndarray:
    """Dominating radii of the centers rows, each clipped at cap.

    A radius r <= R depends only on the centers within 2R, so each center
    sweeps the kd-tree neighbour list within 2R. R starts at twice the
    center's own root and doubles until a root lies below R, R reaches cap,
    or the list holds every center. Each doubling pass sweeps all pending
    centers at once, in blocks of at most _SWEEP_BLOCK padded list entries.
    The tree only selects candidates: the distances are recomputed as in the
    dense matrix and ordered by (distance, index), so ties and floats match
    a full-row sweep.
    """
    _require_floor(config)
    n, d = config.n_centers, domain.dim
    pi_d = unit_ball_volume(d)
    tree = kd_tree(config.centers, domain)
    reach = np.minimum(2.0 * (config.appetites[rows] / pi_d) ** (1.0 / d), cap)
    out = np.empty(len(rows))
    todo = np.arange(len(rows))
    # A list holds at most n centers, so a block of step rows pads to at most
    # _SWEEP_BLOCK entries. Blocks take the rows by descending reach, so that
    # lists of similar lengths share a block and padding stays small.
    step = max(1, _SWEEP_BLOCK // max(n, 1))
    while todo.size:
        todo = todo[np.argsort(-reach[todo], kind="stable")]
        again = []
        for s in range(0, todo.size, step):
            k = todo[s:s + step]
            lists = tree.query_ball_point(tree.data[rows[k]], 2.0 * reach[k] * (1 + 1e-9),
                                          return_sorted=True)
            r, count = _sweep(lists, rows[k], 2.0 * reach[k], config, domain, pi_d)
            done = (r <= reach[k]) | (reach[k] >= cap) | (count == n)
            out[k[done]] = np.minimum(r[done], cap)
            again.append(k[~done])
        todo = np.concatenate(again)
        reach[todo] = np.minimum(2.0 * reach[todo], cap)
    return out


def _sweep(lists, own: np.ndarray, within: np.ndarray, config: PointConfiguration,
           domain: Domain, pi_d: float) -> tuple[np.ndarray, np.ndarray]:
    """First root of each center's appetite step function over its list.

    Row i sweeps the centers of the index-sorted lists[i] at distance <=
    within[i] from center own[i]. A stable row sort of the distances puts
    them in (distance, index) order; the breakpoints are half distances.
    Rows are padded to a common width with appetite 0 and distance inf, as
    are the centers beyond within, so such an entry adds nothing and opens
    no interval. Returns the radii and the number of centers swept per row.
    """
    lengths = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    near = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp,
                       count=int(lengths.sum()))
    owner = np.repeat(np.arange(len(lists)), lengths)
    col = np.arange(near.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    dist = distance(config.centers[own[owner]], config.centers[near], domain)
    keep = dist <= within[owner]
    sd = np.full((len(lists), int(lengths.max())), np.inf)
    app = np.zeros(sd.shape)
    sd[owner, col] = np.where(keep, dist, np.inf)
    app[owner, col] = np.where(keep, config.appetites[near], 0.0)
    order = np.argsort(sd, axis=1, kind="stable")
    sd = np.take_along_axis(sd, order, axis=1)
    cum = np.cumsum(np.take_along_axis(app, order, axis=1), axis=1)
    starts = sd / 2.0
    ends = np.hstack([starts[:, 1:], np.full((len(lists), 1), np.inf)])
    roots = (cum / pi_d) ** (1.0 / domain.dim)
    # Coincident breakpoints give empty intervals; skip them so the sum is
    # the true closed-ball sum at the returned radius. The last center swept
    # ends at inf, so every row has a root.
    first = np.argmax((roots < ends) & (starts < ends), axis=1)[:, None]
    r = np.maximum(np.take_along_axis(starts, first, axis=1),
                   np.take_along_axis(roots, first, axis=1))[:, 0]
    return r, np.count_nonzero(np.isfinite(sd), axis=1)


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
