"""Connectivity of ball models and claimed-cell masks: components, crossings,
origin-cluster statistics, and the critical-scale sweep."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import chain

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
from .booleanmodel import BooleanModel
from .geometry import SLACK, Domain, distance, kd_tree, palm_origin


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


def _census(n: int, edges: np.ndarray, lo: np.ndarray, hi: np.ndarray, periodic: bool,
            origin: int, reach, diameter) -> ClusterReport:
    """The report of n nodes joined by (m, 2) edges.

    lo and hi are (n, d) flags of the nodes touching the low and high wall of
    each axis; a component crosses an axis when it holds one of each. On a
    torus nothing crosses, since wrap adjacency leaves no walls. origin is
    the node holding the origin, or -1; reach and diameter map the members
    of its component to their measures.
    """
    labels = _components(n, edges)
    k = int(labels.max(initial=-1)) + 1
    if periodic:
        crossing = np.zeros((k, lo.shape[1]), dtype=bool)
    else:
        crossing = np.stack([(np.bincount(labels[lo[:, ax]], minlength=k) > 0)
                             & (np.bincount(labels[hi[:, ax]], minlength=k) > 0)
                             for ax in range(lo.shape[1])], axis=1)
    if origin >= 0:
        oc = int(labels[origin])
        member = np.flatnonzero(labels == oc)
        max_reach, diam = reach(member), diameter(member)
    else:
        oc, max_reach, diam = -1, 0.0, 0.0
    return ClusterReport(labels=labels, component_sizes=np.bincount(labels, minlength=k),
                         crossing_axes=crossing, origin_component=oc,
                         max_origin_distance=max_reach, diameter=diam)


def _ball_edges(centers: np.ndarray, radii: np.ndarray, domain: Domain) -> np.ndarray:
    """(m, 2) pairs of overlapping balls; tangency does not connect.

    Ball i proposes its partners within 2 r_i that precede it in (radius,
    index) order, since d < r_i + r_j <= 2 max(r_i, r_j); the recomputed
    distance decides.
    """
    tree = kd_tree(centers, domain)
    lists = tree.query_ball_point(tree.data, 2.0 * radii * (1 + SLACK), return_sorted=False)
    i = np.repeat(np.arange(len(radii)), [len(x) for x in lists])
    j = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=len(i))
    keep = (radii[j] < radii[i]) | ((radii[j] == radii[i]) & (j < i))
    i, j = i[keep], j[keep]
    overlap = distance(centers[i], centers[j], domain) < radii[i] + radii[j]
    return np.stack([i[overlap], j[overlap]], axis=1)


def ball_components(model: BooleanModel, domain: Domain) -> ClusterReport:
    """Overlap components of the balls; tangency does not connect."""
    radii = np.asarray(model.radii)
    if np.any(~np.isfinite(radii)):
        raise PercolationError("infinite radius in model")
    centers, r = model.centers, radii[:, None]
    edges = _ball_edges(centers, radii, domain)
    d_origin = distance(palm_origin(domain)[None, :], centers, domain)
    covering = d_origin < radii

    def diameter(sub):
        # Largest d_ij + r_i + r_j, over row blocks of about geometry.BLOCK pairs.
        step = max(1, geometry.BLOCK // sub.size)
        return max(float((distance(centers[sub[s:s + step], None], centers[sub][None], domain)
                          + radii[sub[s:s + step], None] + radii[sub][None, :]).max())
                   for s in range(0, sub.size, step))

    return _census(model.n_balls, edges, centers - r <= 0.0,
                   centers + r >= np.asarray(domain.sides), domain.periodic,
                   int(np.argmax(covering)) if covering.any() else -1,
                   lambda sub: float(np.max(d_origin[sub] + radii[sub])), diameter)


def mask_components(mask: np.ndarray, grid: SiteGrid) -> ClusterReport:
    """Face-adjacency components of a boolean cell mask over the grid."""
    shape, h, d = grid.shape, grid.spacing, grid.domain.dim
    flat = np.asarray(mask, dtype=bool).ravel()
    if flat.size != grid.n_cells:
        raise PercolationError("mask size does not match grid")
    on = np.flatnonzero(flat)
    # Face edges between masked cells: each cell and its successor along an
    # axis, both numbered in the index grid (-1 off the mask); an open box
    # drops the last slice, which has no successor.
    idx = np.full(flat.size, -1, dtype=np.int64)
    idx[on] = np.arange(on.size)
    grid_idx = idx.reshape(shape)
    edges = []
    for ax in range(d):
        a, b = grid_idx, np.roll(grid_idx, -1, axis=ax)
        if not grid.domain.periodic:
            cut = (slice(None),) * ax + (slice(0, -1),)
            a, b = a[cut], b[cut]
        both = (a >= 0) & (b >= 0)
        edges.append(np.stack([a[both], b[both]], axis=1))
    multi = np.stack(np.unravel_index(on, shape), axis=1)
    # the cell holding the origin (the box center in open mode, the corner on a torus)
    origin = palm_origin(grid.domain)
    home = np.minimum(origin // h, np.asarray(shape) - 1).astype(np.int64)

    def reach(member):
        dorig = distance(origin[None, :], (multi[member] + 0.5) * h, grid.domain)
        return float(dorig.max() + h * math.sqrt(d) / 2)

    report = _census(on.size, np.concatenate(edges), multi == 0,
                     multi == np.asarray(shape) - 1, grid.domain.periodic,
                     int(idx[np.ravel_multi_index(tuple(home), shape)]), reach,
                     lambda member: _component_diameter(multi[member], grid))
    idx[on] = report.labels
    return replace(report, labels=idx)


def _component_diameter(cells: np.ndarray, grid: SiteGrid) -> float:
    """Largest distance between the midpoints of the (m, d) index vectors
    cells, plus the cell diagonal h*sqrt(d).

    The member pairs differ by the shifts at which the circular
    autocorrelation of the cells' indicator is positive (it counts the
    pairs, so it exceeds 0.5 exactly there). On a torus it runs on the cell
    grid. In an open box it runs on the cells' bounding box, padded to 2e - 1
    cells on an axis where they span e: there the circular autocorrelation is
    the linear one. Either way, shift k on an axis of n cells has length
    min(k, n - k)*h.
    """
    if grid.domain.periodic:
        shape = grid.shape
    else:
        cells = cells - cells.min(axis=0)
        shape = tuple(int(n) for n in 2 * cells.max(axis=0) + 1)
    cube = np.zeros(shape)
    cube[tuple(cells.T)] = 1.0
    spectrum = np.fft.rfftn(cube)
    pairs = np.fft.irfftn(spectrum * spectrum.conj(), s=shape, axes=range(len(shape))) > 0.5
    h = grid.spacing
    sq = sum((np.minimum(k, n - k) * h) ** 2 for k, n in zip(np.nonzero(pairs), shape))
    return float(np.sqrt(sq.max()) + h * math.sqrt(len(shape)))


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
    labels = _components(len(radii), _ball_edges(centers, radii, domain))
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


def _wilson(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = successes / n
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
    """[fn(x) for x in items], on `workers` threads when workers > 1; the
    results keep the order of the items."""
    if workers == 1:
        return [fn(x) for x in items]
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
