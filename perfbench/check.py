"""Oracle checks and output digests for the ops a workload child saved.

Runs in run.py's process, never in the timed child: verify_stability builds
its own dense matrix and would inflate the child's peak RSS. Each check
returns failures as (module, reason, defect) where defect names a known
defect of workloads.json's "known_defects", or is None for anything else.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from allocperc.allocation import AllocationResult, PointConfiguration, SiteGrid, verify_stability
from allocperc.geometry import Domain
from allocperc.validation import (
    bfs_ball_components_oracle,
    bisection_radius_oracle,
    floodfill_mask_oracle,
)

RADIUS_SAMPLE = 16  # centers per boolean op checked against bisection
RADIUS_TOL = 1e-9
DIAMETER_RTOL = 1e-9
BOUNDARY_SHORTCUT = 4000  # cluster size above which the library diameter uses boundary cells
D1 = "D1-no-boundary"
D2 = "D2-diameter-wraps"
D3 = "D3-single-cell-diameter"


def digest(record: dict, arrays: dict, key: str) -> str:
    """SHA-256 of an op's output arrays, scalars and error, in a fixed order."""
    h = hashlib.sha256()
    prefix = key + "."
    for name in sorted(k for k in arrays if k.startswith(prefix)):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name[len(prefix):]}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    h.update(json.dumps([record["scalars"], record["error"]], sort_keys=True).encode())
    return h.hexdigest()


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Do two label vectors induce the same partition?"""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def exact_diameter(points: np.ndarray) -> float:
    """Largest distance between points, taken over the convex hull's vertices."""
    if len(points) >= 3:
        try:
            points = points[ConvexHull(points).vertices]
        except QhullError:  # collinear points: every point is a candidate
            pass
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=-1)).max())


class Checker:
    def __init__(self, workload: str, rec: dict):
        self.workload = workload
        self.domain = Domain(sides=tuple(rec["sides"]), periodic=rec["periodic"])
        self.grid = SiteGrid(domain=self.domain, spacing=rec["spacing"])

    def check(self, record: dict, arrays: dict, key: str) -> tuple[list, dict]:
        """Failures of one op, plus counts the oracles measured on the way."""
        a = {name[len(key) + 1:]: value for name, value in arrays.items()
             if name.startswith(key + ".")}
        failures, counts = [], {}
        if "assignment" in a:
            failures += self._stability(a)
        if self.workload == "sweep-open" and "assignment" in a:
            failures += self._mask(record, a, counts)
        if self.workload == "boolean-open" and "radii" in a:
            failures += self._balls(a)
        error = record["error"]
        if error and not any(f[0] == error["module"] for f in failures):
            failures.append((error["module"], f"{error['type']}: {error['message']}", None))
        return failures, counts

    def _stability(self, a: dict) -> list:
        config = PointConfiguration(centers=a["centers"], appetites=a["appetites"])
        result = AllocationResult(assignment=a["assignment"],
                                  territory_volumes=a["territory_volumes"],
                                  sated=a["sated"], grid_shape=self.grid.shape)
        unstable = verify_stability(result, config, self.grid)
        return [("allocation", f"{len(unstable)} unstable pairs", None)] if unstable else []

    def _mask(self, record: dict, a: dict, counts: dict) -> list:
        grid, shape = self.grid, self.grid.shape
        mask = (a["assignment"] >= 0).reshape(shape)
        oracle = floodfill_mask_oracle(mask, self.domain.periodic)
        origin = (np.zeros(self.domain.dim) if self.domain.periodic
                  else np.asarray(self.domain.sides) / 2.0)
        cell = tuple(min(int(origin[ax] // grid.spacing), shape[ax] - 1)
                     for ax in range(len(shape)))
        cluster = (oracle == oracle[cell]) & mask if mask[cell] else np.zeros(shape, bool)
        size = int(cluster.sum())
        counts["origin_cells"] = size

        error = record["error"]
        if error:
            known = (error["type"] == "ValueError" and size > BOUNDARY_SHORTCUT
                     and "zero-size array to reduction operation maximum" in error["message"])
            return [(error["module"], f"{error['type']}: {error['message']} "
                     f"(origin cluster {size} cells)", D1 if known else None)]

        failures = []
        s = record["scalars"]
        labels, on = a["labels"], mask.ravel()
        if np.any(labels[~on] != -1) or not same_partition(labels[on], oracle.ravel()[on]):
            failures.append(("percolation", "labels differ from flood fill", None))
        if not self.domain.periodic:
            crosses = any(
                np.intersect1d(np.take(oracle, 0, axis=ax)[np.take(mask, 0, axis=ax)],
                               np.take(oracle, -1, axis=ax)[np.take(mask, -1, axis=ax)]).size
                for ax in range(len(shape)))
            if crosses != s["percolates"]:
                failures.append(("percolation", f"crossing {s['percolates']}, oracle {crosses}", None))
        if size == 0:
            if s["origin_component"] != -1 or s["diameter"] != 0.0:
                failures.append(("percolation", "origin cell unclaimed but a cluster reported", None))
            return failures
        points = grid.cell_centers()[np.flatnonzero(cluster.ravel())]
        exact = exact_diameter(points) + grid.spacing * math.sqrt(self.domain.dim)
        if abs(s["diameter"] - exact) > DIAMETER_RTOL * max(1.0, exact):
            idx = np.argwhere(cluster)
            on_edge = bool(np.any(idx == 0) or np.any(idx == np.asarray(shape) - 1))
            if size == 1 and s["diameter"] == grid.spacing:
                known = D3
            elif (not self.domain.periodic and size > BOUNDARY_SHORTCUT
                  and s["diameter"] < exact and on_edge):
                known = D2
            else:
                known = None
            failures.append(("percolation", f"origin diameter {s['diameter']:.6f}, exact "
                             f"{exact:.6f} (origin cluster {size} cells)", known))
        return failures

    def _balls(self, a: dict) -> list:
        failures = []
        centers, radii = a["centers"], a["radii"]
        if "labels" in a and not same_partition(
                a["labels"], bfs_ball_components_oracle(centers, radii, self.domain)):
            failures.append(("percolation", "ball labels differ from BFS", None))
        config = PointConfiguration(centers=centers, appetites=a["appetites"])
        sample = np.unique(np.linspace(0, len(radii) - 1, RADIUS_SAMPLE).round().astype(int))
        worst = max(abs(radii[j] - bisection_radius_oracle(int(j), config, self.domain))
                    for j in sample)
        if worst > RADIUS_TOL:
            failures.append(("booleanmodel", f"radius off bisection by {worst:.3g}", None))
        return failures
