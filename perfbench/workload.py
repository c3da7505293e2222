"""One workload's op loop, run in a fresh process so its peak RSS is its own.

    python3 perfbench/workload.py --workload W --seed N --seconds S --out PREFIX [--traced]
    python3 perfbench/workload.py --workload W --setup-only

The loop runs op 0 once untimed (warm-up), then ops 0, 1, ..., n - 1, where
n is --seconds over the workload's nominal op time (workloads.json
"nominal_op_s"), rounded to whole units (sweep-open: whole scale ladders).
The op count depends only on the arguments, so every run of a seed attempts
the same ops and fails the same ones. Each op makes the library calls its CLI
path makes for one replica. Before each op the reference kernel runs and is
timed on its own (see reference_kernel). Inputs and outputs of every op are
saved to PREFIX.npz and the timings, scalars and errors to PREFIX.json;
run.py checks them against the oracles in another process. --setup-only
stops after importing allocperc, resolving the config and building the
SiteGrid, the span run.py times as set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
MODULES = ("geometry", "appetite", "allocation", "booleanmodel", "percolation", "bounds")
REFERENCE_SHAPE = (2400, 900)  # points x centers: about 0.2 s, an eighth of an op


def reference_kernel(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The steps that dominate an op of either workload: a dense distance
    matrix, a stable argsort of its rows and the gather of the sorted rows.

    It runs on fixed inputs and calls numpy only, so no change to allocperc
    moves its time. On a shared 2-vCPU virtual machine op times drifted by up
    to 1.6x within minutes; timed next to each op, the kernel measures that
    drift, and run.py reports op times in units of it.
    """
    sq = np.zeros((len(points), len(centers)))
    for ax in range(points.shape[1]):
        delta = np.subtract.outer(points[:, ax], centers[:, ax])
        delta *= delta
        sq += delta
    np.sqrt(sq, out=sq)
    order = np.argsort(sq, axis=1, kind="stable")
    return np.take_along_axis(sq, order, axis=1)


def time_reference(points: np.ndarray, centers: np.ndarray) -> float:
    start = perf_counter()
    reference_kernel(points, centers)
    return perf_counter() - start


def import_library():
    """Import allocperc from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import allocperc

    if Path(allocperc.__file__).resolve().parent != SRC / "allocperc":
        raise SystemExit(f"allocperc imported from {allocperc.__file__}, not from {SRC}")
    return allocperc


def setup(workload: str):
    allocperc = import_library()
    from allocperc.allocation import SiteGrid
    from allocperc.config import resolve_config

    cfg = resolve_config(SPEC["workloads"][workload]["config"])
    return allocperc, cfg, SiteGrid(domain=cfg.domain, spacing=cfg.spacing)


def make_op(workload: str, cfg, grid, seed: int):
    """Return (op, unit): op(i, arrays, scalars) fills the dicts and returns
    what the run keeps; a run holds a whole number of units of ops."""
    from allocperc import allocation, appetite, booleanmodel, bounds, geometry, percolation

    domain, intensity = cfg.domain, cfg.intensity
    unit = 1

    def sample(dist, i):
        rng = geometry.replica_rng(seed, i)
        centers = geometry.sample_poisson(domain, intensity, rng)
        appetites = appetite.sample_appetites(dist, len(centers), rng)
        return allocation.PointConfiguration(centers=centers, appetites=appetites)

    def save_allocation(alloc, config, arrays, scalars):
        arrays.update(centers=config.centers, appetites=config.appetites,
                      assignment=alloc.assignment,
                      territory_volumes=alloc.territory_volumes, sated=alloc.sated)
        scalars["pairs"] = grid.n_cells * config.n_centers

    def diagnose(alloc, config, scale, scalars):
        diag = allocation.phase_diagnostics(alloc, config, grid)
        scalars["claimed_fraction"] = diag.claimed_volume_fraction
        scalars["fraction_sated"] = diag.fraction_sated
        scalars["phase"] = bounds.classify_phase(
            bounds.PhaseParams(intensity, scale, mean_base))

    if workload == "alloc-sub":
        mean_base = appetite.moment_report(replace(cfg.appetite, floor=0.0, scale=1.0)).mean

        def op(i, arrays, scalars):
            config = sample(cfg.appetite, i)
            alloc = allocation.gale_shapley(config, grid)
            save_allocation(alloc, config, arrays, scalars)
            diagnose(alloc, config, cfg.appetite.scale, scalars)

    elif workload == "sweep-open":
        mean_base = appetite.moment_report(replace(cfg.appetite, floor=0.0, scale=1.0)).mean
        ladder = cfg.scale_grid
        unit = len(ladder)  # whole ladders, so every run weighs each scale alike

        def op(i, arrays, scalars):
            rep, scale = i // len(ladder), ladder[i % len(ladder)]
            scalars.update(replica=rep, scale=scale)
            alloc, config = percolation.run_replica(
                domain, grid, intensity, replace(cfg.appetite, scale=scale), seed, rep)
            save_allocation(alloc, config, arrays, scalars)
            report = percolation.claimed_components(alloc, grid)
            arrays["labels"] = report.labels
            scalars.update(n_components=report.n_components,
                           percolates=report.percolates,
                           origin_component=report.origin_component,
                           origin_reach=report.max_origin_distance,
                           diameter=report.diameter)
            diagnose(alloc, config, scale, scalars)

    elif workload == "boolean-open":
        mean_trunc = appetite.moment_report(replace(cfg.appetite, scale=1.0)).mean
        threshold = bounds.finiteness_threshold(intensity, domain.dim, mean_trunc)
        dist = replace(cfg.appetite,
                       scale=SPEC["workloads"][workload]["threshold_fraction"] * threshold)

        def op(i, arrays, scalars):
            config = sample(dist, i)
            arrays.update(centers=config.centers, appetites=config.appetites)
            model = booleanmodel.build_boolean(config, domain)
            arrays.update(radii=model.radii, truncated=model.truncated)
            scalars.update(scale=dist.scale, pairs=config.n_centers ** 2,
                           truncated_share=float(model.truncated.mean()))
            report = percolation.ball_components(model, domain)
            arrays["labels"] = report.labels
            scalars.update(n_components=report.n_components,
                           percolates=report.percolates)
            return model

    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return op, unit


def op_count(workload: str, seconds: float, unit: int) -> int:
    """Ops in a run of --seconds at the nominal op time: whole units, at least one."""
    per_unit = unit * SPEC["workloads"][workload]["nominal_op_s"]
    return unit * max(1, round(seconds / per_unit))


def error_record(exc: Exception) -> dict:
    """Type, message and the module of the innermost allocperc frame the
    exception passed through."""
    module = "benchmark"
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        path = Path(frame.filename).resolve()
        if path.parent == SRC / "allocperc":
            module = path.stem
            break
    return {"module": module, "type": type(exc).__name__, "message": str(exc)}


def run_one(op, i: int, key: str, arrays: dict) -> tuple[dict, object]:
    out, scalars, error, kept = {}, {}, None, None
    start = perf_counter()
    try:
        kept = op(i, out, scalars)
    except Exception as exc:
        error = error_record(exc)
    latency = perf_counter() - start
    arrays.update({f"{key}.{name}": value for name, value in out.items()})
    return {"i": i, "latency_s": latency, "scalars": scalars, "error": error}, kept


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", help="path prefix of the saved record")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    allocperc, cfg, grid = setup(args.workload)
    if args.setup_only:
        return 0
    op, unit = make_op(args.workload, cfg, grid, args.seed)

    rng = np.random.default_rng(0)
    points, centers = (rng.random((n, 2)) for n in REFERENCE_SHAPE)
    arrays: dict = {}
    time_reference(points, centers)
    warmup, _ = run_one(op, 0, "w", arrays)
    tracer = None
    if args.traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install("allocperc", [getattr(allocperc, m) for m in MODULES])

    ops, kept = [], []
    start = perf_counter()
    for i in range(op_count(args.workload, args.seconds, unit)):
        ref_s = time_reference(points, centers)
        if tracer:
            tracer.op = i
        record, model = run_one(op, i, str(i), arrays)
        record["ref_s"] = ref_s
        ops.append(record)
        if model is not None:
            kept.append(model)
    loop_s = perf_counter() - start

    tail = None
    if args.workload == "boolean-open":
        if tracer:
            tracer.op = "tail"
        try:
            stats = allocperc.booleanmodel.tail_statistics(kept)
            tail = {"sup_statistic": stats.sup_statistic, "n_radii": stats.n_radii,
                    "error": None}
        except Exception as exc:
            tail = {"error": error_record(exc)}

    record = {
        "workload": args.workload, "seed": args.seed, "traced": args.traced,
        "loop_s": loop_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spacing": grid.spacing,
        "sides": list(cfg.domain.sides), "periodic": cfg.domain.periodic,
        "warmup": warmup, "ops": ops, "tail": tail,
        "spans": tracer.spans if tracer else [],
    }
    np.savez(args.out + ".npz", **arrays)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
