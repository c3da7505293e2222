"""Domain primitives: boxes/tori, distances, ball volumes, Poisson sampling
and the blocked, exact kd-tree queries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

BLOCK = 1 << 20  # entries (rows x k, or pairs) per block of a query; read at call time
SLACK = 1e-9  # relative: kd-tree and recomputed distances differ by rounding only


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Domain:
    """A finite d-dimensional box, either open (hard walls) or periodic (torus).

    sides are the edge lengths L_1..L_d; points live in [0, L_i).
    """

    sides: tuple[float, ...]
    periodic: bool = True

    def __post_init__(self):
        sides = tuple(float(s) for s in self.sides)
        if len(sides) < 1:
            raise GeometryError("domain needs at least one dimension")
        if not all(0 < s < math.inf for s in sides):  # NaN fails too
            raise GeometryError(f"side lengths must be positive and finite, got {sides}")
        object.__setattr__(self, "sides", sides)
        if self.volume == 0:  # the product of the sides underflows
            raise GeometryError(f"the box volume underflows to 0; enlarge the sides {sides}")

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional ball with unit radius."""
    if d < 1 or d != int(d):
        raise GeometryError(f"dimension must be a positive integer, got {d}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def distance(a: np.ndarray, b: np.ndarray, domain: Domain) -> np.ndarray:
    """Euclidean distances between the broadcast point pairs a[..., :] and
    b[..., :], minimum-image in periodic mode.

    Accumulates squared per-axis differences to avoid the (..., d) temporary.
    Every entry takes the same float operations whatever the shapes, so
    distances to a subset of points equal the matching matrix entries.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != domain.dim or b.shape[-1] != domain.dim:
        raise GeometryError(
            f"dimension mismatch: points {a.shape[-1]}/{b.shape[-1]}d, domain {domain.dim}d"
        )
    sq = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    delta = np.empty_like(sq)
    for ax, L in enumerate(domain.sides):
        np.abs(np.subtract(a[..., ax], b[..., ax], out=delta), out=delta)
        if domain.periodic:
            np.minimum(delta, L - delta, out=delta)
        delta *= delta
        sq += delta
    return np.sqrt(sq, out=sq)


def kd_tree(points: np.ndarray, domain: Domain) -> cKDTree:
    """kd-tree over the points, with periodic topology on a torus."""
    if not domain.periodic:
        return cKDTree(points)
    # cKDTree(boxsize) rejects a coordinate equal to the side length, which
    # the minimum-image distances accept.
    sides = np.asarray(domain.sides)
    return cKDTree(np.mod(points, sides), boxsize=sides)


def nearest(tree: cKDTree, pts: np.ndarray, k: int, others: np.ndarray, domain: Domain):
    """Each point's k nearest of others (the points of tree) in (distance,
    index) order, their distances, and the bound below which the row holds
    every point of others; distances at or past the bound read inf.

    The tree only selects neighbours; distances are recomputed by distance,
    as in the dense matrix. The tree lists each row nearest first, so only
    the rows its rounding or tie order leaves out of (distance, index) order
    are re-sorted, and a row matches the start of the dense (distance,
    index) row up to the bound. The bound is inf when the row holds all of
    others.
    """
    k = min(k, len(others))
    _, nbr = tree.query(pts, k=k)
    nbr = nbr.reshape(len(pts), k)
    # np.take gathers rows ~10x faster than others[nbr] (numpy 2.4)
    dist = distance(pts[:, None, :], np.take(others, nbr, axis=0), domain)
    step, tie = np.diff(dist, axis=1), np.diff(nbr, axis=1)
    bad = np.flatnonzero(((step < 0) | ((step == 0) & (tie < 0))).any(axis=1))
    if bad.size:
        order = np.lexsort((nbr[bad], dist[bad]))
        nbr[bad] = np.take_along_axis(nbr[bad], order, axis=1)
        dist[bad] = np.take_along_axis(dist[bad], order, axis=1)
    if k == len(others):
        return nbr, dist, np.full(len(pts), np.inf)
    # Tree and recomputed distances differ by rounding only, so a point
    # missing from a row is no nearer than its farthest entry less 1e-12.
    far = dist[:, -1]
    bound = far - 1e-12 * np.maximum(far, 1.0)
    dist[dist >= bound[:, None]] = np.inf
    return nbr, dist, bound


def nearest_until(tree, pts, others, domain, settle, k=2):
    """Asks nearest for each point's row at k, 2k, 4k, ... until settle
    accepts it.

    settle(rows, nbr, dist, bound, k) gets the indices into pts of a block
    of rows with their nearest(tree, pts[rows], k, others, domain) answer,
    records what it needs and returns the mask of rows it accepts; the rest
    are asked again at 2k. It must accept a row whose bound is inf (the row
    holds all of others). Each pass runs in blocks of BLOCK // k rows.
    """
    todo = np.arange(len(pts))
    while todo.size:
        again, step = [], max(1, BLOCK // k)
        for s in range(0, todo.size, step):
            rows = todo[s:s + step]
            done = settle(rows, *nearest(tree, pts[rows], k, others, domain), k)
            again.append(rows[~done])
        todo, k = np.concatenate(again), 2 * k


def within(tree, pts, r, others, domain):
    """The pairs (i, j) with distance(pts[i], others[j]) <= r[i], others
    being the points of tree, as blocks of (i, j, distance) arrays.

    Each point's pairs are counted first, so a block holds at most BLOCK
    pairs, or one point's. The tree only selects candidates, at r·(1 +
    SLACK); the recomputed distance decides.
    """
    reach = r * (1.0 + SLACK)
    n = tree.query_ball_point(pts, reach, return_length=True)
    i = np.flatnonzero(n)
    cum = np.cumsum(n[i])
    s = 0
    while s < i.size:
        e = max(s + 1, int(np.searchsorted(cum, cum[s] - n[i[s]] + BLOCK, "right")))
        a = i[s:e]
        j = np.concatenate(tree.query_ball_point(pts[a], reach[a])).astype(np.int64)
        a = np.repeat(a, n[a])
        d = distance(np.take(pts, a, axis=0), np.take(others, j, axis=0), domain)
        ok = d <= r[a]
        yield a[ok], j[ok], d[ok]
        s = e


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Independent stream for one replica, derived from the root seed.

    Streams are keyed by (seed, replica) only, so scheduling order and worker
    count cannot change any replica's draws.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replica,)))


def palm_origin(domain: Domain) -> np.ndarray:
    """Reference origin: the box center in open mode, the corner on a torus."""
    return np.zeros(domain.dim) if domain.periodic else np.asarray(domain.sides) / 2.0


def sample_poisson(domain: Domain, intensity: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson sample in the domain, shape (n, d)."""
    if intensity < 0:
        raise GeometryError(f"intensity must be nonnegative, got {intensity}")
    n = rng.poisson(intensity * domain.volume)
    return rng.random((n, domain.dim)) * np.asarray(domain.sides)
