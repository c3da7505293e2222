"""Stable allocation of a site grid to centers with bounded-volume territories.

Sites are grid cells; each cell prefers nearer centers, each center keeps its
nearest applicants up to a cell quota derived from its appetite. The fixed
point of the resulting deferred-acceptance rounds is the unique stable
assignment for the discretized instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .appetite import AppetiteDistribution, sample_appetites
from .geometry import Domain, GeometryError, pairwise_distances, replica_rng, sample_poisson

UNCLAIMED = -1
TIE = -2
_NONE = -3  # internal: cell not currently held by any center

TIE_REL_TOL = 1e-9  # times grid spacing


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

    @property
    def claimed_mask(self) -> np.ndarray:
        return self.assignment >= 0

    @property
    def unclaimed_mask(self) -> np.ndarray:
        return self.assignment == UNCLAIMED


def cell_quotas(appetites: np.ndarray, cell_volume: float) -> np.ndarray:
    """Appetite volume converted to a cell count, rounding the last cell up."""
    q = np.ceil(np.asarray(appetites) / cell_volume - 1e-9)
    return np.maximum(q, 0).astype(np.int64)


def gale_shapley(config: PointConfiguration, grid: SiteGrid) -> AllocationResult:
    """Stable assignment by site-proposing deferred acceptance.

    Each round every unassigned cell applies to the nearest center that has
    not rejected it; each center keeps the nearest applicants up to its quota
    and rejects the rest. Cells rejected everywhere end UNCLAIMED; cells whose
    current and next candidate are equidistant within tolerance end TIE.
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
        )

    cells = grid.cell_centers()
    dist = pairwise_distances(cells, config.centers, grid.domain)
    pref = np.argsort(dist, axis=1, kind="stable")
    sdist = np.take_along_axis(dist, pref, axis=1)
    del dist

    hd = grid.cell_volume
    quota = cell_quotas(config.appetites, hd)
    tie_tol = TIE_REL_TOL * grid.spacing

    ptr = np.zeros(n_cells, dtype=np.int64)  # index into pref of current candidate
    held = np.zeros(n_cells, dtype=bool)
    decided = np.zeros(n_cells, dtype=bool)  # UNCLAIMED or TIE, final
    # A full center never again accepts strictly beyond its current worst
    # held distance; cutoffs only shrink, so skipping on them is safe.
    cutoff = np.where(quota == 0, -np.inf, np.inf)
    full = quota == 0

    cell_idx = np.arange(n_cells)
    max_rounds = 10 * max(n_cells, 1)
    for _ in range(max_rounds):
        active = cell_idx[~decided & ~held]
        if active.size == 0:
            break

        # Fast-forward past centers certain to reject; each cell is touched
        # once per skipped candidate, not once per loop pass.
        settled = []
        work = active
        while work.size:
            cand = pref[work, ptr[work]]
            dcand = sdist[work, ptr[work]]
            skip = full[cand] & (dcand > cutoff[cand])
            settled.append(work[~skip])
            bumped = work[skip]
            ptr[bumped] += 1
            alive = ptr[bumped] < n_centers
            exhausted = bumped[~alive]
            status[exhausted] = UNCLAIMED
            decided[exhausted] = True
            work = bumped[alive]
        applicants = np.concatenate(settled) if settled else active

        pool = np.concatenate([applicants, cell_idx[held & ~decided]])
        pool = np.unique(pool)
        if pool.size == 0:
            remaining = cell_idx[~decided & ~held]
            status[remaining] = UNCLAIMED
            decided[remaining] = True
            break

        cand = pref[pool, ptr[pool]]
        dcand = sdist[pool, ptr[pool]]

        # Equidistant next candidate: the cell sits on a territory boundary.
        applying = ~held[pool]
        has_next = ptr[pool] + 1 < n_centers
        nxt = np.where(has_next, np.minimum(ptr[pool] + 1, n_centers - 1), ptr[pool])
        dnext = sdist[pool, nxt]
        tied = applying & has_next & (dnext - dcand < tie_tol)
        if np.any(tied):
            tcells = pool[tied]
            status[tcells] = TIE
            decided[tcells] = True
            keepm = ~tied
            pool, cand, dcand = pool[keepm], cand[keepm], dcand[keepm]

        #Dense pool: every undecided cell's candidate center ranks it among
        # held + new applicants; keep the quota nearest.
        order = np.lexsort((pool, dcand, cand))
        gc = cand[order]
        starts = np.flatnonzero(np.r_[True, gc[1:] != gc[:-1]])
        group_of = np.cumsum(np.r_[True, gc[1:] != gc[:-1]]) - 1
        rank = np.arange(len(order)) - starts[group_of]
        keep = rank < quota[gc]

        kept_cells = pool[order[keep]]
        rej_cells = pool[order[~keep]]
        held[kept_cells] = True
        held[rej_cells] = False
        ptr[rej_cells] += 1
        exhausted = rej_cells[ptr[rej_cells] >= n_centers]
        status[exhausted] = UNCLAIMED
        decided[exhausted] = True

        # Group sizes / new cutoffs for the fast-forward phase.
        sizes = np.diff(np.r_[starts, len(order)])
        heads = gc[starts]
        grp_full = sizes >= quota[heads]
        full[heads] = grp_full
        kept_d = dcand[order[keep]]
        kept_c = gc[keep]
        if kept_c.size:
            kstarts = np.flatnonzero(np.r_[True, kept_c[1:] != kept_c[:-1]])
            kends = np.r_[kstarts[1:], len(kept_c)] - 1
            worst = kept_d[kends]
            kheads = kept_c[kstarts]
            cutoff[kheads] = np.where(full[kheads], worst, np.inf)

        if rej_cells.size == 0 and not np.any(~decided & ~held):
            break
    else:
        raise AllocationError("deferred acceptance exceeded the round cap")

    held_cells = cell_idx[held]
    status[held_cells] = pref[held_cells, ptr[held_cells]]

    counts = np.bincount(status[status >= 0], minlength=n_centers)
    volumes = counts * hd
    # Satedness tolerant to one-cell quantization of the last shell.
    sated = volumes >= config.appetites - hd
    return AllocationResult(
        assignment=status,
        territory_volumes=volumes,
        sated=sated,
        grid_shape=grid.shape,
    )


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
