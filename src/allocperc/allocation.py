"""Stable allocation of a site grid to centers with bounded-volume territories.

Sites are grid cells; each cell prefers nearer centers, each center keeps its
nearest applicants up to a cell quota derived from its appetite. The fixed
point of the resulting deferred-acceptance rounds is the unique stable
assignment for the discretized instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .appetite import AppetiteDistribution, sample_appetites
from .geometry import (
    Domain,
    GeometryError,
    distance,
    kd_tree,
    nearest,
    pairwise_distances,
    replica_rng,
    sample_poisson,
)

UNCLAIMED = -1
TIE = -2
_NONE = -3  # internal: cell not currently held by any center

TIE_REL_TOL = 1e-9  # times grid spacing
PREF_K = 32  # nearest centers listed per cell; farther ones are reached by a jump
_JUMP_BLOCK = 1 << 20  # cell-center pairs per distance block of a jump


class AllocationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SiteGrid:
    """Regular grid of cubic cells covering the domain; h must tile every side."""

    domain: Domain
    spacing: float

    def __post_init__(self):
        if self.spacing <= 0:
            raise GeometryError("grid spacing must be positive")
        for L in self.domain.sides:
            n = round(L / self.spacing)
            if n < 1 or abs(n * self.spacing - L) > 1e-9 * L:
                raise GeometryError(
                    f"spacing {self.spacing} does not tile side length {L}"
                )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(round(L / self.spacing) for L in self.domain.sides)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

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
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if centers.size == 0:
            centers = centers.reshape(0, centers.shape[-1] if centers.ndim > 1 else 1)
        appetites = np.asarray(self.appetites, dtype=float).ravel()
        if len(centers) != len(appetites):
            raise ValueError(
                f"{len(centers)} centers but {len(appetites)} appetites"
            )
        if np.any(appetites < 0):
            raise ValueError("appetites must be nonnegative")
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

    assignment is flat over grid cells: a center index, UNCLAIMED, or TIE.
    """

    assignment: np.ndarray
    territory_volumes: np.ndarray
    sated: np.ndarray
    grid_shape: tuple[int, ...]
    # Deferred-acceptance rounds and cells that went past their preference
    # list; diagnostics for the manifest only.
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


def gale_shapley(config: PointConfiguration, grid: SiteGrid) -> AllocationResult:
    """Stable assignment by site-proposing deferred acceptance.

    Each round every unassigned cell applies to the nearest center that has
    not rejected it; each center keeps the nearest applicants up to its quota
    and rejects the rest. Cells rejected everywhere end UNCLAIMED; cells whose
    current and next candidate are equidistant within tolerance end TIE.

    Centers are ranked by (distance, index). A cell's next candidate is the
    first center after its last rejection that is not full or holds it
    within its cutoff, taken from the certified prefix of its PREF_K nearest
    centers (a kd-tree list), or past it by a jump over the centers that can
    still accept. The rounds are those of the dense walk over full preference
    rows, so the result is the same, TIE cells included, and no
    (cells x centers) array is built.
    """
    n_cells = grid.n_cells
    n_centers = config.n_centers
    status = np.full(n_cells, _NONE, dtype=np.int64)
    if n_centers == 0:
        status[:] = UNCLAIMED
        return AllocationResult(
            assignment=status,
            territory_volumes=np.zeros(0),
            sated=np.ones(0, dtype=bool),
            grid_shape=grid.shape,
            counters={"rounds": 0, "beyond_list": 0},
        )

    domain = grid.domain
    cells = grid.cell_centers()
    tree = kd_tree(config.centers, domain)
    nbr, nbr_d, bound = nearest(tree, cells, PREF_K, config.centers, domain)
    nbr_d[nbr_d >= bound[:, None]] = np.inf  # past the certified prefix
    plen = np.count_nonzero(nbr_d < np.inf, axis=1)

    hd = grid.cell_volume
    quota = cell_quotas(config.appetites, hd)
    tie_tol = TIE_REL_TOL * grid.spacing

    cand = np.zeros(n_cells, dtype=np.int64)  # current candidate (distance, center)
    dcand = np.zeros(n_cells)
    lo_d = np.full(n_cells, -np.inf)  # last rejection: search keys after this one
    lo_c = np.full(n_cells, -1, dtype=np.int64)
    held = np.zeros(n_cells, dtype=bool)
    decided = np.zeros(n_cells, dtype=bool)  # UNCLAIMED or TIE, final
    jumped = np.zeros(n_cells, dtype=bool)
    # A full center never again accepts strictly beyond its current worst
    # held distance; cutoffs only shrink, so skipping on them is safe.
    cutoff = np.where(quota == 0, -np.inf, np.inf)
    full = quota == 0

    def exhaust(idx):
        status[idx] = UNCLAIMED
        decided[idx] = True

    cell_idx = np.arange(n_cells)
    max_rounds = 10 * max(n_cells, 1)
    for rounds in range(1, max_rounds + 1):
        active = cell_idx[~decided & ~held]
        if active.size == 0:
            break
        # No center takes a cell beyond the largest cutoff: every later key
        # of such a cell would be skipped, so it is UNCLAIMED now.
        reach = np.max(np.where(full, cutoff, np.inf))

        # Each cell applies to the first center after its last rejection that
        # would not reject it: from its certified list, else by a jump.
        col, c, dc = _first_eligible(nbr[active], nbr_d[active], lo_d[active],
                                     lo_c[active], full, cutoff)
        listed = col >= 0
        cand[active[listed]], dcand[active[listed]] = c[listed], dc[listed]
        past = active[~listed]
        floor = np.maximum(lo_d[past], bound[past])  # no later key is nearer
        exhaust(past[floor > reach])
        keep = floor <= reach
        past, floor = past[keep], floor[keep]
        if past.size:
            c, dc = _jump(cells[past], lo_d[past], lo_c[past], floor.min(),
                          config.centers, domain, full, cutoff)
            found = c >= 0
            exhaust(past[~found])
            past = past[found]
            cand[past], dcand[past] = c[found], dc[found]
            jumped[past] = True
        applicants = np.r_[active[listed], past]

        # Equidistant next candidate: the cell sits on a territory boundary.
        nxt = np.r_[col[listed] + 1, plen[past]]  # list column after the candidate
        inside = nxt < plen[applicants]
        tied = np.zeros(applicants.size, dtype=bool)
        a = applicants[inside]
        tied[inside] = nbr_d[a, nxt[inside]] - dcand[a] < tie_tol
        a = applicants[~inside]
        tied[~inside] = _tied_past_list(tree, cells[a], dcand[a], cand[a], tie_tol,
                                        config.centers, domain)
        status[applicants[tied]] = TIE
        decided[applicants[tied]] = True

        # Every undecided cell's candidate center ranks it among held + new
        # applicants; keep the quota nearest.
        pool = np.concatenate([applicants[~tied], cell_idx[held]])
        if pool.size == 0:
            break
        pool = pool[np.lexsort((pool, dcand[pool], cand[pool]))]
        gc = cand[pool]
        new = np.r_[True, gc[1:] != gc[:-1]]
        starts = np.flatnonzero(new)
        rank = np.arange(pool.size) - starts[np.cumsum(new) - 1]
        keep = rank < quota[gc]
        rej = pool[~keep]
        held[pool[keep]] = True
        held[rej] = False
        lo_d[rej], lo_c[rej] = dcand[rej], cand[rej]

        # Group sizes / new cutoffs for the next round's candidates.
        heads = gc[starts]
        sizes = np.diff(np.r_[starts, pool.size])
        full[heads] = sizes >= quota[heads]
        worst = dcand[pool[starts + np.minimum(sizes, quota[heads]) - 1]]
        cutoff[heads] = np.where(full[heads], worst, np.inf)

        if rej.size == 0 and not np.any(~decided & ~held):
            break
    else:
        raise AllocationError("deferred acceptance exceeded the round cap")

    status[held] = cand[held]
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


def _first_eligible(c, d, lo_d, lo_c, full, cutoff):
    """Over rows of candidate centers c at distances d, each row ordered by
    (distance, index), the first key after the row's key (lo_d, lo_c) whose
    center is not full or holds it within its cutoff.

    c may be one row shared by every row of d. Returns (column, center,
    distance), with column and center -1 and distance inf where none is.
    """
    ld, lc = lo_d[:, None], lo_c[:, None]
    ok = (~full[c] | (d <= cutoff[c])) & ((d > ld) | ((d == ld) & (c > lc)))
    d = np.where(ok, d, np.inf)
    j = np.argmin(d, axis=1)  # first of equal distances: the lower index
    rows = np.arange(len(j))
    dj = d[rows, j]
    hit = dj < np.inf
    return (np.where(hit, j, -1), np.where(hit, np.broadcast_to(c, d.shape)[rows, j], -1),
            dj)


def _jump(pts, lo_d, lo_c, floor, centers, domain, full, cutoff):
    """For each point, _first_eligible over every center; -1 if none.

    Candidates are the centers not full and the full ones whose cutoff
    reaches floor, which no later key of any point undercuts; they are
    scanned in row blocks of about _JUMP_BLOCK pairs.
    """
    g = np.flatnonzero(~full | (cutoff >= floor))
    best_c = np.full(len(pts), -1, dtype=np.int64)
    best_d = np.full(len(pts), np.inf)
    if g.size == 0:
        return best_c, best_d
    step = max(1, _JUMP_BLOCK // g.size)
    for s in range(0, len(pts), step):
        rows = slice(s, s + step)
        d = pairwise_distances(pts[rows], centers[g], domain)
        _, best_c[rows], best_d[rows] = _first_eligible(g[None, :], d, lo_d[rows],
                                                        lo_c[rows], full, cutoff)
    return best_c, best_d


def _tied_past_list(tree, pts, d, c, tol, centers, domain):
    """Whether some center after the key (d, c) lies within d + tol.

    A kd-tree count of the centers in (d - tol, d + 2 tol] settles most
    points: a count of 1 is the candidate alone (tree distances are off by
    rounding, far below tol). The rest recompute the distances of their
    neighbours within d + 2 tol.
    """
    tied = np.zeros(len(pts), dtype=bool)
    if len(pts) == 0:
        return tied
    hi = d + 2.0 * tol
    n_hi = tree.query_ball_point(pts, hi, return_length=True)
    n_lo = tree.query_ball_point(pts, np.maximum(d - tol, 0.0), return_length=True)
    many = np.flatnonzero(n_hi - np.where(d - tol >= 0.0, n_lo, 0) > 1)
    if many.size == 0:
        return tied
    lists = tree.query_ball_point(pts[many], hi[many])
    owner = np.repeat(np.arange(many.size), [len(x) for x in lists])
    other = np.concatenate(lists).astype(np.int64)
    r = distance(pts[many][owner], centers[other], domain)
    dd, cc = d[many][owner], c[many][owner]
    later = (r > dd) | ((r == dd) & (other > cc))
    tied[many] = np.bincount(owner, weights=later & (r - dd < tol),
                             minlength=many.size) > 0
    return tied


def verify_stability(
    result: AllocationResult, config: PointConfiguration, grid: SiteGrid
) -> list[tuple[int, int]]:
    """Exhaustive unstable-pair scan; empty list means stable.

    A cell desires a strictly closer center (or any center when unclaimed);
    a center covets any cell when unsated, or any cell strictly closer than
    its farthest territory cell. TIE cells are excluded.
    """
    if config.n_centers == 0:
        return []
    cells = grid.cell_centers()
    dist = pairwise_distances(cells, config.centers, grid.domain)
    assign = result.assignment

    assigned_dist = np.full(len(cells), np.inf)
    claimed = assign >= 0
    assigned_dist[claimed] = dist[claimed, assign[claimed]]

    farthest = np.full(config.n_centers, -np.inf)
    for c in range(config.n_centers):
        terr = assign == c
        if np.any(terr):
            farthest[c] = dist[terr, c].max()

    desire = dist < assigned_dist[:, None]
    covet = (~result.sated)[None, :] | (dist < farthest[None, :])
    unstable = desire & covet
    unstable[claimed, assign[claimed]] = False
    unstable[assign == TIE, :] = False
    return [tuple(p) for p in np.argwhere(unstable)]


@dataclass(frozen=True)
class PhaseDiagnostics:
    claimed_volume_fraction: float
    fraction_sated: float
    unclaimed_volume: float


def phase_diagnostics(
    result: AllocationResult, config: PointConfiguration, grid: SiteGrid
) -> PhaseDiagnostics:
    """Claimed-volume and satedness summaries; TIE cells count as unclaimed volume."""
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
