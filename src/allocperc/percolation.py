"""Connectivity of ball models and claimed-cell masks: components, crossings,
origin-cluster statistics, and the critical-scale sweep."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from . import geometry
from .allocation import (
    AllocationResult,
    SiteGrid,
    gale_shapley,
    phase_diagnostics,
    sample_replica,
)
from .appetite import AppetiteDistribution
from .booleanmodel import BooleanModel, ball_overlaps
from .geometry import Domain, distance, palm_origin


class PercolationError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterReport:
    """Component census of a ball model or a cell mask.

    labels has one entry per ball (or per masked cell, -1 for cells outside
    the mask). crossing_axes flags components spanning the box along an axis;
    origin statistics describe the component containing the reference origin:
    max_origin_distance is the farthest reach from the origin, diameter the
    largest extent of that component.
    """

    labels: np.ndarray
    component_sizes: np.ndarray
    crossing_axes: np.ndarray  # (n_components, d) booleans
    origin_component: int  # -1 when the origin is not covered
    max_origin_distance: float
    diameter: float

    @property
    def n_components(self) -> int:
        return len(self.component_sizes)

    @property
    def percolates(self) -> bool:
        return bool(self.crossing_axes.any())


def _components(n: int, edges: np.ndarray) -> np.ndarray:
    """Component labels of n nodes joined by (m, 2) edges, numbered in order
    of each component's first member."""
    graph = coo_array((np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])),
                      shape=(n, n))
    return connected_components(graph, directed=False)[1].astype(np.int64)


def _census(labels: np.ndarray, lo: np.ndarray, hi: np.ndarray, periodic: bool,
            oc: int, reach, diameter) -> ClusterReport:
    """The report of n nodes with component labels numbered from 0.

    lo and hi are (n, d) flags of the nodes touching the low and high wall of
    each axis; a component crosses an axis when it holds one of each. On a
    torus nothing crosses, since wrap adjacency leaves no walls. oc is the
    component holding the origin, or -1; reach and diameter map the members
    of that component to their measures.
    """
    k = int(labels.max(initial=-1)) + 1
    if periodic:
        crossing = np.zeros((k, lo.shape[1]), dtype=bool)
    else:
        crossing = np.stack([(np.bincount(labels[lo[:, ax]], minlength=k) > 0)
                             & (np.bincount(labels[hi[:, ax]], minlength=k) > 0)
                             for ax in range(lo.shape[1])], axis=1)
    if oc >= 0:
        member = np.flatnonzero(labels == oc)
        max_reach, diam = reach(member), diameter(member)
    else:
        max_reach, diam = 0.0, 0.0
    return ClusterReport(labels=labels, component_sizes=np.bincount(labels, minlength=k),
                         crossing_axes=crossing, origin_component=oc,
                         max_origin_distance=max_reach, diameter=diam)


def ball_components(model: BooleanModel, domain: Domain) -> ClusterReport:
    """Overlap components of the balls; tangency does not connect."""
    radii = np.asarray(model.radii)
    if np.any(~np.isfinite(radii)):
        raise PercolationError("infinite radius in model")
    centers, r = model.centers, radii[:, None]
    edges = ball_overlaps(model, domain)
    d_origin = distance(palm_origin(domain)[None, :], centers, domain)
    covering = d_origin < radii

    def diameter(sub):
        # Largest d_ij + r_i + r_j, over row blocks of about geometry.BLOCK pairs.
        step = max(1, geometry.BLOCK // sub.size)
        return max(float((distance(centers[sub[s:s + step], None], centers[sub][None], domain)
                          + radii[sub[s:s + step], None] + radii[sub][None, :]).max())
                   for s in range(0, sub.size, step))

    labels = _components(model.n_balls, edges)
    return _census(labels, centers - r <= 0.0,
                   centers + r >= np.asarray(domain.sides), domain.periodic,
                   int(labels[np.argmax(covering)]) if covering.any() else -1,
                   lambda sub: float(np.max(d_origin[sub] + radii[sub])), diameter)


def mask_components(mask: np.ndarray, grid: SiteGrid) -> ClusterReport:
    """Face-adjacency components of a boolean cell mask over the grid."""
    shape, h, d = grid.shape, grid.spacing, grid.domain.dim
    mask = np.asarray(mask, dtype=bool)
    if mask.size != grid.n_cells:
        raise PercolationError("mask size does not match grid")
    # Imported here: scipy.ndimage adds ~50 ms to `import allocperc`, and
    # allocate, boolean and bounds never label a mask.
    from scipy.ndimage import label
    # The lattice labeller numbers the components of the open box from 1 in
    # order of first cell (0 off the mask); shifted to start at 0, -1 off it.
    lab = np.empty(shape, dtype=np.int64)
    k = label(mask.reshape(shape), output=lab)
    lab -= 1
    if grid.domain.periodic:
        # On a torus the labels facing each other across a wrapped face join;
        # _components keeps the order of first label, hence of first cell.
        seam = np.concatenate([np.stack([np.take(lab, 0, ax), np.take(lab, -1, ax)],
                                        axis=-1).reshape(-1, 2) for ax in range(d)])
        lab = np.append(_components(k, seam[(seam >= 0).all(axis=1)]), -1)[lab]
    labels = lab.ravel()
    on = np.flatnonzero(labels >= 0)
    multi = np.stack(np.unravel_index(on, shape), axis=1)
    # the cell holding the origin (the box center in open mode, the corner on a torus)
    origin = palm_origin(grid.domain)
    home = np.minimum(origin // h, np.asarray(shape) - 1).astype(np.int64)
    oc = int(lab[tuple(home)])
    hull = None if grid.domain.periodic or oc < 0 else _hull_cells(lab == oc)

    def cells(member):  # in a box only the hull cells of the cluster can be farthest
        return multi[member] if hull is None else hull

    def reach(member):
        dorig = distance(origin[None, :], (cells(member) + 0.5) * h, grid.domain)
        return float(dorig.max() + h * math.sqrt(d) / 2)

    report = _census(labels[on], multi == 0, multi == np.asarray(shape) - 1,
                     grid.domain.periodic, oc, reach,
                     lambda member: _component_diameter(cells(member), grid))
    return replace(report, labels=labels)


def _hull_cells(cluster: np.ndarray) -> np.ndarray:
    """The (m, d) indices, in C order, of the cells of the boolean grid
    cluster that are its first or last on every axis line through them.

    They hold the vertices of the hull of the cluster's midpoints, hence the
    member farthest from any point and the farthest pair of members: a
    vertex lies strictly between no two members, so on an axis line through
    it no member lies on each side of it.
    """
    hull = cluster.copy()
    for ax, n in enumerate(cluster.shape):
        ends = np.zeros_like(cluster)
        for idx in (np.argmax(cluster, axis=ax), n - 1 - np.argmax(np.flip(cluster, ax), axis=ax)):
            np.put_along_axis(ends, np.expand_dims(idx, ax), True, ax)
        hull &= ends
    return np.argwhere(hull)


def _component_diameter(cells: np.ndarray, grid: SiteGrid) -> float:
    """Largest distance between the midpoints of the (m, d) index vectors
    cells, plus the cell diagonal h*sqrt(d): shift k on an axis of n cells
    has length min(k, n - k)*h on a torus and k*h in a box.

    On a torus the member pairs differ by the shifts at which the circular
    autocorrelation of the cells' indicator on the cell grid is positive (it
    counts the pairs, so it exceeds 0.5 exactly there). In a box it scans
    the pairs of cells, in blocks of about geometry.BLOCK pairs.
    """
    h = grid.spacing
    if grid.domain.periodic:
        shape = grid.shape
        cube = np.zeros(shape)
        cube[tuple(cells.T)] = 1.0
        spectrum = np.fft.rfftn(cube)
        pairs = np.fft.irfftn(spectrum * spectrum.conj(), s=shape, axes=range(len(shape))) > 0.5
        sq = sum((np.minimum(k, n - k) * h) ** 2 for k, n in zip(np.nonzero(pairs), shape)).max()
    else:
        step = max(1, geometry.BLOCK // len(cells))
        sq = max(sum((np.abs(cells[s:s + step, None, ax] - cells[None, :, ax]) * h) ** 2
                     for ax in range(cells.shape[1])).max()
                 for s in range(0, len(cells), step))
    return float(np.sqrt(sq) + h * math.sqrt(cells.shape[1]))


def claimed_components(alloc: AllocationResult, grid: SiteGrid) -> ClusterReport:
    """Components of the claimed set under face adjacency."""
    return mask_components(alloc.claimed_mask.reshape(grid.shape), grid)


def crossing_event(model: BooleanModel, domain: Domain, x: np.ndarray,
                   radius_low: float, radius_high: float) -> bool:
    """Does a chain of balls with radii in [radius_low, radius_high] run from
    the ball B(x, radius_high) to outside B(x, 2*radius_high)?"""
    beta = radius_high
    if beta <= 0:
        raise PercolationError("radius band upper end must be positive")
    x = np.asarray(x, dtype=float)
    if (min(domain.sides) < 6 * beta if domain.periodic
            else np.any(x - 3 * beta < 0) or np.any(x + 3 * beta > np.asarray(domain.sides))):
        raise PercolationError("window too small for the crossing event")
    sel = (model.radii >= radius_low) & (model.radii <= beta)
    centers, radii = model.centers[sel], model.radii[sel]
    if model.edges is None:
        edges = ball_overlaps(BooleanModel(centers, radii, model.truncated[sel]), domain)
    else:  # the build's pairs inside the band, renumbered; an overlap depends on its pair alone
        edges = (np.cumsum(sel) - 1)[model.edges[sel[model.edges].all(axis=1)]]
    labels = _components(len(radii), edges)
    d_x = distance(x[None, :], centers, domain)
    touches_inner = labels[d_x < radii + beta]
    exits_outer = labels[d_x + radii > 2 * beta]
    return bool(np.intersect1d(touches_inner, exits_outer).size)


@dataclass(frozen=True)
class SweepRow:
    scale: float
    crossing_probability: float
    ci_low: float
    ci_high: float
    mean_claimed_fraction: float


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    indicators: np.ndarray  # (n_scales, replicas) coupled crossing indicators
    bracket: tuple[float, float] | None  # scales bracketing crossing prob 0.5
    counters: np.ndarray  # (n_scales, replicas, 2): each solve's rounds, beyond_list


def _wilson(successes: int, n: int) -> tuple[float, float]:
    """The 95% Wilson score interval of a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p, z = successes / n, 1.96
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def run_replica(domain: Domain, grid: SiteGrid, intensity: float,
                dist: AppetiteDistribution, seed: int, replica: int):
    """One coupled replica: centers and appetite draws depend only on
    (seed, replica), never on the scale."""
    config = sample_replica(domain, intensity, dist, seed, replica)
    return gale_shapley(config, grid), config


def map_ordered(fn, items, workers: int = 1) -> list:
    """[fn(x) for x in items] on a pool of `workers` threads, in the order of
    the items. The lists a task's thread keeps (allocation._memo) end with
    the pool."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def critical_sweep(domain: Domain, grid: SiteGrid, intensity: float,
                   base_dist: AppetiteDistribution, scale_grid, replicas: int,
                   seed: int, workers: int = 1) -> SweepResult:
    """Crossing probability of the claimed set along an ascending scale grid.

    Replica randomness is shared across scales, so the per-replica crossing
    indicator is pathwise monotone in the scale. A replica's whole ladder is
    one task of the worker map.
    """
    scale_grid = [float(a) for a in scale_grid]
    if sorted(scale_grid) != scale_grid:
        raise PercolationError("scale grid must be ascending")
    if domain.periodic:
        raise PercolationError("crossing detection needs an open (non-periodic) box")

    def ladder(rep: int) -> list[tuple[bool, float, int, int]]:
        runs = (run_replica(domain, grid, intensity, replace(base_dist, scale=a), seed, rep)
                for a in scale_grid)
        return [(claimed_components(alloc, grid).percolates,
                 phase_diagnostics(alloc, config, grid).claimed_volume_fraction,
                 alloc.counters["rounds"], alloc.counters["beyond_list"])
                for alloc, config in runs]

    # (n_scales, replicas, 4): crossing flag, claimed fraction and the counters
    table = np.array(map_ordered(ladder, range(replicas), workers),
                     dtype=float).reshape(replicas, len(scale_grid), 4).transpose(1, 0, 2)
    indicators = table[..., 0].astype(bool)
    fractions = np.ascontiguousarray(table[..., 1])
    rows = []
    for ai, a in enumerate(scale_grid):
        succ = int(indicators[ai].sum())
        lo, hi = _wilson(succ, replicas)
        rows.append(SweepRow(
            scale=a,
            crossing_probability=succ / replicas if replicas else 0.0,
            ci_low=lo,
            ci_high=hi,
            mean_claimed_fraction=float(fractions[ai].mean()) if replicas else 0.0,
        ))
    bracket = None
    probs = [r.crossing_probability for r in rows]
    for i in range(1, len(probs)):
        if probs[i - 1] < 0.5 <= probs[i]:
            bracket = (scale_grid[i - 1], scale_grid[i])
            break
    return SweepResult(rows=rows, indicators=indicators, bracket=bracket,
                       counters=table[..., 2:].astype(np.int64))
