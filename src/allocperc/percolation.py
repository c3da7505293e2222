"""Connectivity of ball models and claimed-cell masks: components, crossings,
origin-cluster statistics, and the critical-scale sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .allocation import (
    AllocationResult,
    SiteGrid,
    gale_shapley,
    phase_diagnostics,
    sample_replica,
)
from .appetite import AppetiteDistribution
from .booleanmodel import BooleanModel
from .geometry import Domain, distance, kd_tree, pairwise_distances

_PAIR_BLOCK = 1 << 20  # center pairs per block of the origin-ball diameter


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


def _palm_origin(domain: Domain) -> np.ndarray:
    return np.zeros(domain.dim) if domain.periodic else np.asarray(domain.sides) / 2.0


def _empty_report(labels: np.ndarray, d: int) -> ClusterReport:
    return ClusterReport(
        labels=labels,
        component_sizes=np.zeros(0, dtype=np.int64),
        crossing_axes=np.zeros((0, d), dtype=bool),
        origin_component=-1,
        max_origin_distance=0.0,
        diameter=0.0,
    )


def _components(n: int, edges: np.ndarray) -> np.ndarray:
    """Component labels of n nodes joined by (m, 2) edges, numbered in order
    of each component's first member."""
    graph = coo_array((np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])),
                      shape=(n, n))
    return connected_components(graph, directed=False)[1].astype(np.int64)


def _crossing(labels: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(k, d) flags: components holding a member with lo and one with hi on
    each axis; lo and hi are (n, d) member flags."""
    k = labels.max() + 1
    return np.stack([(np.bincount(labels[lo[:, ax]], minlength=k) > 0)
                     & (np.bincount(labels[hi[:, ax]], minlength=k) > 0)
                     for ax in range(lo.shape[1])], axis=1)


def ball_components(model: BooleanModel, domain: Domain,
                    origin: np.ndarray | None = None) -> ClusterReport:
    """Overlap components of the balls; tangency does not connect."""
    radii = np.asarray(model.radii)
    if np.any(~np.isfinite(radii)):
        raise PercolationError("infinite radius in model")
    centers = model.centers
    if origin is None:
        origin = _palm_origin(domain)
    if model.n_balls == 0:
        return _empty_report(np.zeros(0, dtype=np.int64), domain.dim)
    # The tree only proposes pairs; overlap is decided on the recomputed distance.
    pairs = kd_tree(centers, domain).query_pairs(2.0 * radii.max() * (1 + 1e-9),
                                                 output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    labels = _components(model.n_balls,
                         pairs[distance(centers[i], centers[j], domain) < radii[i] + radii[j]])
    if domain.periodic:
        crossing = np.zeros((labels.max() + 1, domain.dim), dtype=bool)
    else:
        r = radii[:, None]
        crossing = _crossing(labels, centers - r <= 0.0, centers + r >= np.asarray(domain.sides))

    d_origin = distance(origin[None, :], centers, domain)
    covering = d_origin < radii
    if np.any(covering):
        oc = int(labels[np.argmax(covering)])
        sub = np.flatnonzero(labels == oc)
        max_reach = float(np.max(d_origin[sub] + radii[sub]))
        # Largest d_ij + r_i + r_j, over row blocks of about _PAIR_BLOCK pairs.
        step = max(1, _PAIR_BLOCK // sub.size)
        diam = max(float((pairwise_distances(centers[sub[s:s + step]], centers[sub], domain)
                          + radii[sub[s:s + step], None] + radii[sub][None, :]).max())
                   for s in range(0, sub.size, step))
    else:
        oc, max_reach, diam = -1, 0.0, 0.0
    return ClusterReport(
        labels=labels,
        component_sizes=np.bincount(labels),
        crossing_axes=crossing,
        origin_component=oc,
        max_origin_distance=max_reach,
        diameter=diam,
    )


def _grid_neighbors(shape: tuple[int, ...], periodic: bool) -> np.ndarray:
    """(n_edges, 2) flat-index pairs of face-adjacent cells."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    edges = []
    for ax in range(len(shape)):
        a = idx
        b = np.roll(idx, -1, axis=ax)
        if not periodic:
            sl = [slice(None)] * len(shape)
            sl[ax] = slice(0, shape[ax] - 1)
            a = idx[tuple(sl)]
            b = np.roll(idx, -1, axis=ax)[tuple(sl)]
        edges.append(np.stack([a.ravel(), b.ravel()], axis=1))
    return np.concatenate(edges, axis=0)


def mask_components(mask: np.ndarray, grid: SiteGrid,
                    origin: np.ndarray | None = None) -> ClusterReport:
    """Face-adjacency components of a boolean cell mask over the grid."""
    shape = grid.shape
    flat = np.asarray(mask, dtype=bool).ravel()
    if flat.size != grid.n_cells:
        raise PercolationError("mask size does not match grid")
    labels = np.full(flat.size, -1, dtype=np.int64)
    on = np.flatnonzero(flat)
    if on.size == 0:
        return _empty_report(labels, grid.domain.dim)
    remap = np.full(flat.size, -1, dtype=np.int64)
    remap[on] = np.arange(on.size)
    edges = _grid_neighbors(shape, grid.domain.periodic)
    sub_labels = _components(on.size, remap[edges[flat[edges[:, 0]] & flat[edges[:, 1]]]])
    labels[on] = sub_labels

    d = grid.domain.dim
    # Wrap adjacency makes face-touching meaningless on the torus; crossing
    # flags are an open-mode statistic.
    if grid.domain.periodic:
        crossing = np.zeros((sub_labels.max() + 1, d), dtype=bool)
    else:
        multi = np.stack(np.unravel_index(on, shape), axis=1)
        crossing = _crossing(sub_labels, multi == 0, multi == np.asarray(shape) - 1)

    if origin is None:
        origin = _palm_origin(grid.domain)
    origin_flat = _containing_cell(origin, grid)
    if flat[origin_flat]:
        oc = int(labels[origin_flat])
        member = on[sub_labels == oc]
        cells = grid.cell_centers()
        dorig = distance(origin[None, :], cells[member], grid.domain)
        max_reach = float(dorig.max() + grid.spacing * math.sqrt(d) / 2)
        diam = _component_diameter(member, grid)
    else:
        oc, max_reach, diam = -1, 0.0, 0.0
    return ClusterReport(
        labels=labels,
        component_sizes=np.bincount(sub_labels),
        crossing_axes=crossing,
        origin_component=oc,
        max_origin_distance=max_reach,
        diameter=diam,
    )


def _containing_cell(point: np.ndarray, grid: SiteGrid) -> int:
    shape = grid.shape
    ix = tuple(
        min(int(point[i] // grid.spacing), shape[i] - 1) for i in range(len(shape))
    )
    return int(np.ravel_multi_index(ix, shape))


def _component_diameter(member: np.ndarray, grid: SiteGrid) -> float:
    """Largest distance between the midpoints of the member cells, plus the
    cell diagonal h*sqrt(d).

    On a torus the member pairs differ by the grid shifts at which the
    circular autocorrelation of the cluster's indicator is positive (it
    counts the pairs, so it exceeds 0.5 exactly there); a shift's length is
    the distance from cell 0 to the cell it reaches. An open box is first
    zero-padded to twice each side: there the circular autocorrelation is
    the linear one, and a shift shorter than the side is its own minimum
    image.
    """
    pad = 1 if grid.domain.periodic else 2
    torus = SiteGrid(domain=Domain(tuple(pad * L for L in grid.domain.sides), periodic=True),
                     spacing=grid.spacing)
    cube = np.zeros(torus.shape)
    cube[np.unravel_index(member, grid.shape)] = 1.0
    spectrum = np.fft.rfftn(cube)
    pairs = np.fft.irfftn(spectrum * spectrum.conj(), s=torus.shape,
                          axes=range(grid.domain.dim)).ravel() > 0.5
    cells = torus.cell_centers()
    return float(pairwise_distances(cells[:1], cells[pairs], torus.domain).max()
                 + grid.spacing * math.sqrt(grid.domain.dim))


def claimed_components(alloc: AllocationResult, grid: SiteGrid,
                       origin: np.ndarray | None = None) -> ClusterReport:
    """Components of the claimed set under face adjacency."""
    return mask_components(alloc.claimed_mask.reshape(grid.shape), grid, origin=origin)


def crossing_event(model: BooleanModel, domain: Domain, x: np.ndarray,
                   radius_low: float, radius_high: float) -> bool:
    """Does a chain of balls with radii in [radius_low, radius_high] run from
    the ball B(x, radius_high) to outside B(x, 2*radius_high)?"""
    beta = radius_high
    if beta <= 0:
        raise PercolationError("radius band upper end must be positive")
    x = np.asarray(x, dtype=float)
    if domain.periodic:
        if min(domain.sides) < 6 * beta:
            raise PercolationError("window too small for the crossing event")
    else:
        if np.any(x - 3 * beta < 0) or np.any(x + 3 * beta > np.asarray(domain.sides)):
            raise PercolationError("window too small for the crossing event")
    radii = model.radii
    sel = (radii >= radius_low) & (radii <= beta)
    if not np.any(sel):
        return False
    sub = BooleanModel(
        centers=model.centers[sel],
        radii=radii[sel],
        min_radius=model.min_radius,
        truncated=model.truncated[sel],
    )
    report = ball_components(sub, domain)
    d_x = distance(x[None, :], sub.centers, domain)
    touches_inner = report.labels[d_x < sub.radii + beta]
    exits_outer = report.labels[d_x + sub.radii > 2 * beta]
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


def critical_sweep(domain: Domain, grid: SiteGrid, intensity: float,
                   base_dist: AppetiteDistribution, scale_grid, replicas: int,
                   seed: int) -> SweepResult:
    """Crossing probability of the claimed set along an ascending scale grid.

    Replica randomness is shared across scales, so the per-replica crossing
    indicator is pathwise monotone in the scale.
    """
    scale_grid = [float(a) for a in scale_grid]
    if sorted(scale_grid) != scale_grid:
        raise PercolationError("scale grid must be ascending")
    if domain.periodic:
        raise PercolationError("crossing detection needs an open (non-periodic) box")
    indicators = np.zeros((len(scale_grid), replicas), dtype=bool)
    fractions = np.zeros((len(scale_grid), replicas))
    for ai, a in enumerate(scale_grid):
        dist = replace(base_dist, scale=a)
        for rep in range(replicas):
            alloc, config = run_replica(domain, grid, intensity, dist, seed, rep)
            report = claimed_components(alloc, grid)
            indicators[ai, rep] = report.percolates
            fractions[ai, rep] = phase_diagnostics(alloc, config, grid).claimed_volume_fraction
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
    return SweepResult(rows=rows, indicators=indicators, bracket=bracket)
