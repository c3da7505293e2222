"""Domain primitives: boxes/tori, distances, ball volumes, Poisson sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


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
        if any(s <= 0 for s in sides):
            raise GeometryError(f"side lengths must be positive, got {sides}")
        object.__setattr__(self, "sides", sides)

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        lo = pts >= 0.0
        hi = pts < np.asarray(self.sides)
        return np.all(lo & hi, axis=-1)


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


def pairwise_distances(points: np.ndarray, others: np.ndarray, domain: Domain) -> np.ndarray:
    """(n, m) distance matrix between two point sets."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    oth = np.atleast_2d(np.asarray(others, dtype=float))
    return distance(pts[:, None, :], oth[None, :, :], domain)


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
    every point of others.

    The tree only selects neighbours; distances are recomputed as in
    pairwise_distances and sorted stably over index-sorted neighbours, so a
    row matches the start of the dense (distance, index) row up to the bound.
    The bound is inf when the row holds all of others.
    """
    k = min(k, len(others))
    _, nbr = tree.query(pts, k=k)
    nbr = np.sort(nbr.reshape(len(pts), k), axis=1)
    dist = distance(pts[:, None, :], others[nbr], domain)
    order = np.argsort(dist, axis=1, kind="stable")
    nbr = np.take_along_axis(nbr, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    if k == len(others):
        return nbr, dist, np.full(len(pts), np.inf)
    # Tree and recomputed distances differ by rounding only, so a point
    # missing from a row is no nearer than its farthest entry less 1e-12.
    far = dist[:, -1]
    return nbr, dist, far - 1e-12 * np.maximum(far, 1.0)


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Independent stream for one replica, derived from the root seed.

    Streams are keyed by (seed, replica) only, so scheduling order and worker
    count cannot change any replica's draws.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replica,)))


def palm_origin(domain: Domain) -> np.ndarray:
    """Reference origin: the box center in open mode, the corner on a torus."""
    return np.zeros(domain.dim) if domain.periodic else np.asarray(domain.sides) / 2.0


def sample_poisson(
    domain: Domain,
    intensity: float,
    rng: np.random.Generator,
    palm: bool = False,
) -> np.ndarray:
    """Homogeneous Poisson sample in the domain, shape (n, d).

    With palm=True one extra point is placed first, at palm_origin(domain).
    """
    if intensity < 0:
        raise GeometryError(f"intensity must be nonnegative, got {intensity}")
    n = rng.poisson(intensity * domain.volume)
    pts = rng.random((n, domain.dim)) * np.asarray(domain.sides)
    if palm:
        pts = np.vstack([palm_origin(domain)[None, :], pts])
    return pts
