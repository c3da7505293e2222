"""Stable allocation of a site grid to centers with bounded-volume territories.

Sites are grid cells; each cell prefers nearer centers, each center keeps its
nearest applicants up to a cell quota derived from its appetite. The fixed
point of the resulting deferred-acceptance rounds is the unique stable
assignment for the discretized instance.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import geometry
from .appetite import AppetiteDistribution, sample_appetites
from .geometry import (
    Domain,
    GeometryError,
    distance,
    kd_tree,
    nearest,
    nearest_until,
    replica_rng,
    sample_poisson,
    within,
)

UNCLAIMED = -1

PREF_K = 8  # nearest centers listed per cell
_LEAF = 16  # cKDTree's default leafsize: _next_key scans up to this many open centers densely
_memo = threading.local()  # entry: this thread's one (key, _Lists), or None


class AllocationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SiteGrid:
    """Regular grid of cubic cells covering the domain; h must tile every side."""

    domain: Domain
    spacing: float

    def __post_init__(self):
        if not 0 < self.spacing < math.inf:  # NaN fails too
            raise GeometryError(f"grid spacing must be positive and finite, got {self.spacing}")
        for L in self.domain.sides:
            n = round(L / self.spacing)
            if n < 1 or abs(n * self.spacing - L) > 1e-9 * L:
                raise GeometryError(
                    f"spacing {self.spacing} does not tile side length {L}"
                )
        if self.n_cells > 2 ** 62:  # more than numpy can index or allocate
            raise GeometryError("the grid holds more than 2^62 cells")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(round(L / self.spacing) for L in self.domain.sides)

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.domain.dim

    def cell_centers(self) -> np.ndarray:
        """(n_cells, d) array of cell midpoints, C-order over the grid shape."""
        axes = [
            (np.arange(n) + 0.5) * self.spacing for n in self.shape
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class PointConfiguration:
    """Centers with their appetites (maximum territory volumes)."""

    centers: np.ndarray  # (n, d)
    appetites: np.ndarray  # (n,)

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable and apart
        centers = np.atleast_2d(np.array(self.centers, dtype=float))
        if centers.size == 0:
            centers = centers.reshape(0, centers.shape[-1] if centers.ndim > 1 else 1)
        appetites = np.array(self.appetites, dtype=float).ravel()
        if len(centers) != len(appetites):
            raise ValueError(
                f"{len(centers)} centers but {len(appetites)} appetites"
            )
        if not np.all(appetites >= 0):  # NaN fails too
            raise ValueError("appetites must be nonnegative numbers")
        centers.setflags(write=False)
        appetites.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "appetites", appetites)

    @property
    def n_centers(self) -> int:
        return len(self.appetites)


def sample_replica(domain: Domain, intensity: float, dist: AppetiteDistribution,
                   seed: int, replica: int) -> PointConfiguration:
    """Poisson centers and their appetites for one replica. The draws depend
    only on (seed, replica), so replicas are coupled across appetite laws."""
    rng = replica_rng(seed, replica)
    centers = sample_poisson(domain, intensity, rng)
    return PointConfiguration(centers=centers,
                              appetites=sample_appetites(dist, len(centers), rng))


@dataclass(frozen=True)
class AllocationResult:
    """Cell assignment plus per-center diagnostics.

    assignment is flat over grid cells: a center index or UNCLAIMED.
    """

    assignment: np.ndarray
    territory_volumes: np.ndarray
    sated: np.ndarray
    grid_shape: tuple[int, ...]
    # Deferred-acceptance rounds and cells whose candidate came from a jump
    # past their preference list; diagnostics for the manifest only.
    counters: dict = field(default_factory=dict)

    @property
    def claimed_mask(self) -> np.ndarray:
        return self.assignment >= 0

    @property
    def unclaimed_mask(self) -> np.ndarray:
        return self.assignment == UNCLAIMED


def cell_quotas(appetites: np.ndarray, cell_volume: float) -> np.ndarray:
    """Appetite volume converted to a cell count, rounding the last cell up;
    capped at 2^62, past any grid, so a huge appetite is never filled."""
    with np.errstate(over="ignore"):
        q = np.ceil(np.asarray(appetites) / cell_volume - 1e-9)
    return np.clip(q, 0, 2.0 ** 62).astype(np.int64)


class _Lists(SimpleNamespace):
    """Solve state that depends only on (grid, centers), all read-only: cells,
    each cell's PREF_K-nearest list nbr, nbr_d (inf past its certified
    prefix) and length plen; first, the cells with a certified nearest
    center in (center, distance, cell) order, with that center c1, its
    distance d1 and each cell's rank1 in its center's run of first; and
    rest, the cells with no certified entry. Round 1 is first and rest."""


def _lists(centers: np.ndarray, grid: SiteGrid) -> _Lists:
    """The thread's _Lists for these centers, built on a miss and memoized, so
    a scale ladder (one map_ordered task) builds them once."""
    key = (grid, PREF_K, geometry.BLOCK, centers.shape, centers.tobytes())  # all the build reads
    entry = getattr(_memo, "entry", None)
    if entry is not None and entry[0] == key:
        return entry[1]
    _memo.entry = entry = None  # free the old entry before building the new one
    cells = grid.cell_centers()
    nbr = np.empty((len(cells), min(PREF_K, len(centers))), dtype=np.int64)
    nbr_d = np.empty(nbr.shape)
    tree, step = kd_tree(centers, grid.domain), max(1, geometry.BLOCK // PREF_K)
    for s in range(0, len(cells), step):
        nbr[s:s + step], nbr_d[s:s + step], _ = nearest(tree, cells[s:s + step], PREF_K,
                                                        centers, grid.domain)
    plen = np.count_nonzero(nbr_d < np.inf, axis=1)
    first = _ranked(np.flatnonzero(plen), nbr[:, 0], nbr_d[:, 0], len(centers))
    c1, d1, rest = nbr[first, 0], nbr_d[first, 0], np.flatnonzero(plen == 0)
    rank1 = _runs(c1)[1]
    lists = _Lists(cells=cells, nbr=nbr, nbr_d=nbr_d, plen=plen, first=first,
                   c1=c1, d1=d1, rank1=rank1, rest=rest)
    for a in vars(lists).values():
        a.setflags(write=False)
    _memo.entry = (key, lists)
    return lists


def _ranked(cells, center, dist, n_centers):
    """cells in (center[cell], dist[cell], cell) order, whatever their input
    order: sorted by distance with numpy's default sort (unstable; a SIMD
    kernel where the CPU has one), then stably by center in the narrowest
    unsigned type that holds n_centers, which numpy sorts by radix; then each
    run of equal (center, distance) is put in cell order by one lexsort over
    the tied entries only."""
    cells = cells[np.argsort(dist[cells])]
    cells = cells[np.argsort(center[cells].astype(np.min_scalar_type(n_centers)), kind="stable")]
    c, d = center[cells], dist[cells]
    tie = (c[1:] == c[:-1]) & (d[1:] == d[:-1])
    if tie.any():
        t = np.flatnonzero(np.concatenate(([False], tie)) | np.concatenate((tie, [False])))
        cells[t] = cells[t[np.lexsort((cells[t], d[t], c[t]))]]
    return cells


def _runs(g):
    """The starts of the runs of equal entries of g, and each entry's rank in
    its run."""
    new = np.concatenate(([True], g[1:] != g[:-1]))[:g.size]
    starts = np.flatnonzero(new)
    return starts, np.arange(g.size) - starts[np.cumsum(new) - 1]


def gale_shapley(config: PointConfiguration, grid: SiteGrid) -> AllocationResult:
    """Stable assignment by site-proposing deferred acceptance.

    Each round every center that got an applicant keeps its first applicants
    and held cells up to its quota and rejects the rest; each rejected cell
    then applies to its first center that has not rejected it. Cells
    rejected everywhere end UNCLAIMED.

    Cells rank centers by (distance, center index) and centers rank cells by
    (distance, cell index): both are restrictions of the strict order
    (distance, cell, center) on pairs, so the stable assignment is unique and
    any order of proposals reaches it, ties of distance or not. The solver
    uses that freedom. Round 1 is each cell at its nearest center, taken
    ranked from the memo (_Lists.first); a cell whose nearest center has a
    zero quota or is not certified applies from round 2. A cell's next
    candidate is the first center after its last rejection that holds it
    within its cutoff, taken from the certified prefix of its kd-tree list of
    PREF_K nearest centers. A cell with none there waits, and the waiting
    cells jump past their lists together (_next_key), in a round where no
    listed cell applies, so that listed cells fill the open centers first.
    Only the centers that receive an applicant re-rank their cells, and no
    (cells x centers) array is built.
    """
    n_cells = grid.n_cells
    n_centers = config.n_centers
    status = np.full(n_cells, UNCLAIMED, dtype=np.int64)  # each cell's holder
    if n_centers == 0:
        return AllocationResult(
            assignment=status,
            territory_volumes=np.zeros(0),
            sated=np.ones(0, dtype=bool),
            grid_shape=grid.shape,
            counters={"rounds": 0, "beyond_list": 0},
        )

    domain = grid.domain
    centers = config.centers
    lists = _lists(centers, grid)
    cells, nbr, nbr_d, plen = lists.cells, lists.nbr, lists.nbr_d, lists.plen

    hd = grid.cell_volume
    quota = cell_quotas(config.appetites, hd)

    # A cell's key (distance, center) is its current candidate and, once
    # rejected, its last rejection; a cell is rejected only at its candidate,
    # so the key is where its next search starts.
    cand = np.full(n_cells, -1, dtype=np.int64)
    dcand = np.full(n_cells, -np.inf)
    jumped = np.zeros(n_cells, dtype=bool)
    # A center is full exactly when its cutoff is finite: -inf at a zero
    # quota, its worst held distance once full, inf while open. A full center
    # never again accepts strictly beyond its cutoff; cutoffs only shrink, so
    # skipping on them is safe, and a waiting cell stays past its list.
    cutoff = np.where(quota == 0, -np.inf, np.inf)

    # Round 1, ranked: dropping the whole groups of zero-quota centers from
    # first leaves every other cell's rank in its group.
    ok = quota[lists.c1] > 0
    pool, gc, rank = lists.first[ok], lists.c1[ok], lists.rank1[ok]
    starts = np.flatnonzero(rank == 0)
    cand[pool], dcand[pool] = gc, lists.d1[ok]
    active = np.sort(np.concatenate((lists.rest, lists.first[~ok])))  # apply next
    waiting = active[:0]  # cells past their list, held nowhere
    max_rounds = 10 * max(n_cells, 1)
    for rounds in range(1, max_rounds + 1):
        # Each center gc in the pool, ranked by (center, distance, cell),
        # keeps its quota first; no other group changes.
        keep = rank < quota[gc]
        status[pool[keep]] = gc[keep]
        active = np.concatenate((active, pool[~keep]))
        status[active] = UNCLAIMED

        # Group sizes / new cutoffs for the next candidates.
        heads = gc[starts]
        sizes = np.diff(starts, append=pool.size)
        worst = dcand[pool[starts + np.minimum(sizes, quota[heads]) - 1]]
        cutoff[heads] = np.where(sizes >= quota[heads], worst, np.inf)

        # Each rejected cell applies to the first center after its last
        # rejection that would not reject it, from its certified list, or
        # else waits; once no listed cell applies, the waiting cells jump. A
        # cell that jumped is past its list for good, so it waits at once.
        past = jumped[active]
        waiting, active = np.concatenate((waiting, active[past])), active[~past]
        if active.size:
            c, dc = _first_eligible(np.take(nbr, active, axis=0), np.take(nbr_d, active, axis=0),
                                    dcand[active], cand[active], cutoff)
            listed = c >= 0
            waiting = np.concatenate((waiting, active[~listed]))
            active = active[listed]
            cand[active], dcand[active] = c[listed], dc[listed]
        if active.size == 0 and waiting.size:
            # Every listed center after a waiting cell's key failed its
            # cutoff, so the search starts at the later of that key and the
            # cell's last certified entry.
            lo_d, lo_c = dcand[waiting], cand[waiting]
            last = plen[waiting] - 1
            at = waiting * nbr.shape[1] + np.maximum(last, 0)  # flat; later masks last < 0
            ld, lc = np.take(nbr_d, at), np.take(nbr, at)
            later = (last >= 0) & ((ld > lo_d) | ((ld == lo_d) & (lc > lo_c)))
            c, dc = _next_key(cells[waiting], np.where(later, ld, lo_d),
                              np.where(later, lc, lo_c), centers, domain, cutoff)
            found = c >= 0  # a cell no center would take stays UNCLAIMED
            active, waiting = waiting[found], waiting[:0]
            cand[active], dcand[active] = c[found], dc[found]
            jumped[active] = True
        if active.size == 0:
            break

        # The next pool: the applicants and the cells their centers hold.
        # touched's last entry is UNCLAIMED's, and stays False.
        touched = np.zeros(n_centers + 1, dtype=bool)
        touched[cand[active]] = True
        pool = _ranked(np.concatenate((active, np.flatnonzero(touched[status]))),
                       cand, dcand, n_centers)
        gc = cand[pool]
        starts, rank = _runs(gc)
        active = active[:0]
    else:
        raise AllocationError("deferred acceptance exceeded the round cap")

    counts = np.bincount(status[status >= 0], minlength=n_centers)
    volumes = counts * hd
    # Satedness tolerant to one-cell quantization of the last shell.
    sated = volumes >= config.appetites - hd
    return AllocationResult(
        assignment=status,
        territory_volumes=volumes,
        sated=sated,
        grid_shape=grid.shape,
        counters={"rounds": rounds, "beyond_list": int(np.count_nonzero(jumped))},
    )


def _first_eligible(c, d, lo_d, lo_c, cutoff):
    """Over rows of candidate centers c at distances d, each row ordered by
    (distance, index), the first key after the row's key (lo_d, lo_c) whose
    center holds it within its cutoff.

    Returns (center, distance), with center -1 and distance inf where none is.
    """
    ld, lc = lo_d[:, None], lo_c[:, None]
    ok = (d <= cutoff[c]) & ((d > ld) | ((d == ld) & (c > lc)))
    d = np.where(ok, d, np.inf)
    j = np.argmin(d, axis=1)  # first of equal distances: the lower index
    rows = np.arange(len(j))
    dj = d[rows, j]
    return np.where(dj < np.inf, c[rows, j], -1), dj


def _next_key(pts, lo_d, lo_c, centers, domain, cutoff):
    """For each point, the first center after its key (lo_d, lo_c) in
    (distance, index) order that holds it within its cutoff; (-1, inf) where
    none is. A center is full exactly when its cutoff is finite.

    A cell is rejected only by a full center and skips only full ones, and a
    full center stays full, so every center at or before its key is full.
    The answer is then the smaller key of (A) the nearest center not full:
    the argmin of its dense distance row when at most _LEAF centers are open,
    else the first entry of its geometry.nearest_until row over them, settled
    once that entry is finite (below the row's bound); and (B) the nearest
    full center whose cutoff ball (geometry.within, over a kd-tree of only
    the points whose key distance is within the largest such cutoff) holds
    the point at a key after (lo_d, lo_c).
    """
    best_c = np.full(len(pts), -1, dtype=np.int64)
    best_d = np.full(len(pts), np.inf)
    open_ = np.flatnonzero(cutoff == np.inf)

    def first(rows, nbr, d, bound, k):
        done = d[:, 0] < np.inf
        best_c[rows[done]], best_d[rows[done]] = open_[nbr[done, 0]], d[done, 0]
        return done

    others = centers[open_]
    if open_.size > _LEAF:
        nearest_until(kd_tree(others, domain), pts, others, domain, first)
    elif open_.size:  # columns in index order: argmin takes the lower index of a tie
        step = max(1, geometry.BLOCK // open_.size)
        for s in range(0, len(pts), step):
            d = distance(pts[s:s + step, None], others[None], domain)
            j = np.argmin(d, axis=1)
            best_c[s:s + step], best_d[s:s + step] = open_[j], d[np.arange(len(j)), j]

    # Only a cutoff at or past some point's key can hold that point after it.
    g = np.flatnonzero((cutoff < np.inf) & (cutoff >= max(lo_d.min(), 0.0)))
    if g.size == 0:
        return best_c, best_d
    q = np.flatnonzero(lo_d <= cutoff[g].max())  # the points some ball may hold
    near = pts[q]
    for i, p, d in within(kd_tree(near, domain), centers[g], cutoff[g], near, domain):
        c, p = g[i], q[p]
        ok = (d > lo_d[p]) | ((d == lo_d[p]) & (c > lo_c[p]))
        o = np.flatnonzero(ok)
        o = o[np.lexsort((c[o], d[o], p[o]))]
        o = o[np.unique(p[o], return_index=True)[1]]  # each point's smallest key
        p, c, d = p[o], c[o], d[o]
        better = (d < best_d[p]) | ((d == best_d[p]) & (c < best_c[p]))
        best_c[p[better]], best_d[p[better]] = c[better], d[better]
    return best_c, best_d


def verify_stability(
    result: AllocationResult, config: PointConfiguration, grid: SiteGrid
) -> list[tuple[int, int]]:
    """Exhaustive unstable-pair scan; empty list means stable.

    Pairs are compared by key, as gale_shapley ranks them. A cell x desires a
    center c when (d(x, c), c) comes before (d(x, own), own), its own
    center's key (any center when x is unclaimed). A center c covets x when
    c is unsated, or when (d(x, c), x) comes before (d(far, c), far), far
    being the last cell of its territory in that order. Nothing is exempt.
    Satedness is derived from the assignment, as gale_shapley derives it;
    result.sated is not read. It scans rows of about geometry.BLOCK
    cell-center pairs at a time.
    """
    cells = grid.cell_centers()
    centers, domain, assign = config.centers, grid.domain, result.assignment
    claimed = np.flatnonzero(assign >= 0)
    owner = assign[claimed]
    own = np.full(len(cells), np.inf)  # an unclaimed cell desires every center
    own[claimed] = distance(cells[claimed], centers[owner], domain)
    farthest = np.full(config.n_centers, -np.inf)
    np.maximum.at(farthest, owner, own[claimed])
    far_cell = np.full(config.n_centers, -1)
    at_far = own[claimed] == farthest[owner]
    np.maximum.at(far_cell, owner[at_far], claimed[at_far])
    hd = grid.cell_volume
    sated = np.bincount(owner, minlength=config.n_centers) * hd >= config.appetites - hd

    index = np.arange(config.n_centers)
    pairs, step = [], max(1, geometry.BLOCK // max(config.n_centers, 1))
    for s in range(0, len(cells), step):
        x = np.arange(s, min(s + step, len(cells)))[:, None]
        dist = distance(cells[x], centers[None], domain)
        desires = (dist < own[x]) | ((dist == own[x]) & (index < assign[x]))
        covets = (dist < farthest) | ((dist == farthest) & (x < far_cell)) | ~sated
        unstable = desires & covets
        if unstable.any():  # a stable solve's blocks hold none; argwhere would scan each
            pairs.extend(tuple(p) for p in np.argwhere(unstable) + (s, 0))
    return pairs


@dataclass(frozen=True)
class PhaseDiagnostics:
    claimed_volume_fraction: float
    fraction_sated: float
    unclaimed_volume: float


def phase_diagnostics(
    result: AllocationResult, config: PointConfiguration, grid: SiteGrid
) -> PhaseDiagnostics:
    """Claimed-volume and satedness summaries; UNCLAIMED cells make up the
    unclaimed volume."""
    hd = grid.cell_volume
    vol = grid.domain.volume
    claimed = float(np.count_nonzero(result.claimed_mask)) * hd
    if config.n_centers == 0:
        frac_sated = 1.0  # vacuous
    else:
        frac_sated = float(np.count_nonzero(result.sated)) / config.n_centers
    return PhaseDiagnostics(
        claimed_volume_fraction=claimed / vol,
        fraction_sated=frac_sated,
        unclaimed_volume=vol - claimed,
    )
