"""Experiment harness: subcommands, run directories, manifests.

Each subcommand computes its artifacts (CSV/PGM bytes by file name) from the
config alone; main writes them and a manifest of exactly those files into the
run directory, which it creates only then. Every file is written under a
temporary name and renamed once all writes have succeeded, so a failed write
leaves no new file or directory. Progress lines go to stderr. Exit codes: 0
success, 2 configuration error, 3 invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import hashlib
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import SiteGrid, phase_diagnostics, sample_replica
from .appetite import moment_report
from .booleanmodel import BooleanModel, BooleanModelError, build_boolean, tail_statistics
from .bounds import (CHERNOFF_GRID, PhaseParams, classify_phase, finiteness_threshold,
                     nagaev_bound, poisson_chernoff)
from .config import ConfigError, ExperimentConfig, parse_config_file, resolve_config
from .percolation import claimed_components, critical_sweep, map_ordered, run_replica
from .validation import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _csv(header: list[str], rows: list[list]) -> bytes:
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue().encode("utf-8")


def _pgm(values: np.ndarray) -> bytes:
    """Binary P5 raster of a 2-d integer field scaled into 0..255."""
    if values.ndim != 2:
        raise ValueError("PGM raster needs a 2-d field")
    v = values.astype(np.int64)
    lo, hi = v.min(), v.max()
    scaled = np.zeros_like(v, dtype=np.uint8) if hi == lo else (
        ((v - lo) * 255) // (hi - lo)
    ).astype(np.uint8)
    return f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii") + scaled.tobytes()


def cmd_allocate(cfg: ExperimentConfig) -> tuple[int, dict[str, bytes], dict]:
    grid = SiteGrid(domain=cfg.domain, spacing=cfg.spacing)

    def one(rep):
        alloc, config = run_replica(cfg.domain, grid, cfg.intensity, cfg.appetite, cfg.seed, rep)
        diag = phase_diagnostics(alloc, config, grid)
        raster = alloc.assignment.reshape(grid.shape) if rep == 0 and cfg.domain.dim == 2 else None
        return (rep, config.n_centers, diag.claimed_volume_fraction,
                diag.fraction_sated, diag.unclaimed_volume), raster, alloc.counters

    results = map_ordered(one, range(cfg.replicas), cfg.workers)
    artifacts = {"allocation.csv": _csv(
        ["replica", "n_centers", "claimed_fraction", "fraction_sated", "unclaimed_volume"],
        [list(r[0]) for r in results])}
    if results and results[0][1] is not None:
        artifacts["territory.pgm"] = _pgm(results[0][1] + 2)
    params = PhaseParams(cfg.intensity, cfg.appetite.scale,
                         moment_report(replace(cfg.appetite, floor=0.0, scale=1.0)).mean)
    _log(f"allocate: {cfg.replicas} replicas, phase {classify_phase(params)}")
    return EXIT_OK, artifacts, {"counters": [{"replica": r[0][0], **r[2]} for r in results]}


def cmd_boolean(cfg: ExperimentConfig) -> tuple[int, dict[str, bytes], dict]:
    if cfg.appetite.floor <= 0 or cfg.appetite.scale <= 0:
        raise ConfigError(
            "boolean model needs positive appetites; set floor > 0 and scale > 0"
        )

    def one(rep):  # drops the overlap edges, which neither artifact reads, from the pool
        config = sample_replica(cfg.domain, cfg.intensity, cfg.appetite, cfg.seed, rep)
        m = build_boolean(config, cfg.domain)
        return rep, BooleanModel(m.centers, m.radii, m.truncated)

    try:
        results = map_ordered(one, range(cfg.replicas), cfg.workers)
        models = [m for _, m in results if m.n_balls]
        stats = tail_statistics(models) if models else None
    except BooleanModelError as exc:  # appetites or radii that underflow to 0, or all censored
        raise ConfigError(str(exc)) from exc
    rows = []
    for rep, model in results:
        for i in range(model.n_balls):
            rows.append([rep, i, f"{model.radii[i]:.12g}", int(model.truncated[i])])
    artifacts = {"radii.csv": _csv(["replica", "center", "radius", "truncated"], rows)}
    extras = {}
    if stats is not None:
        artifacts["tail.csv"] = _csv(
            ["radius", "survival", "scaled_survival"],
            [[f"{r:.12g}", f"{s:.12g}", f"{r ** cfg.domain.dim * s:.12g}"]
             for r, s in zip(stats.r_grid, stats.survival)],
        )
        extras = {"sup_statistic": stats.sup_statistic, "pooled_radii": stats.n_radii}
    _log(f"boolean: {len(models)} nonempty replicas")
    return EXIT_OK, artifacts, extras


def cmd_percolate(cfg: ExperimentConfig) -> tuple[int, dict[str, bytes], dict]:
    grid = SiteGrid(domain=cfg.domain, spacing=cfg.spacing)

    def one(rep):
        alloc, _ = run_replica(cfg.domain, grid, cfg.intensity, cfg.appetite, cfg.seed, rep)
        report = claimed_components(alloc, grid)
        largest = int(report.component_sizes.max()) if report.n_components else 0
        return [rep, report.n_components, largest,
                int(report.percolates), report.origin_component,
                f"{report.max_origin_distance:.12g}", f"{report.diameter:.12g}"]

    rows = map_ordered(one, range(cfg.replicas), cfg.workers)
    _log(f"percolate: {cfg.replicas} replicas")
    return EXIT_OK, {"components.csv": _csv(
        ["replica", "n_components", "largest_size", "crossing",
         "origin_component", "origin_reach", "origin_diameter"], rows)}, {}


def cmd_sweep(cfg: ExperimentConfig) -> tuple[int, dict[str, bytes], dict]:
    if cfg.domain.periodic:
        raise ConfigError("sweep detects box crossings; set boundary = open")
    grid = SiteGrid(domain=cfg.domain, spacing=cfg.spacing)
    result = critical_sweep(cfg.domain, grid, cfg.intensity, cfg.appetite,
                            cfg.scale_grid, cfg.replicas, cfg.seed, cfg.workers)
    artifacts = {"sweep.csv": _csv(
        ["scale", "crossing_probability", "ci_low", "ci_high", "mean_claimed_fraction"],
        [[r.scale, f"{r.crossing_probability:.6g}", f"{r.ci_low:.6g}",
          f"{r.ci_high:.6g}", f"{r.mean_claimed_fraction:.6g}"] for r in result.rows],
    )}
    extras = {"bracket": list(result.bracket) if result.bracket else None, "counters": [
        {"scale": r.scale, "rounds_max": int(c[:, 0].max()), "beyond_list_total": int(c[:, 1].sum())}
        for r, c in zip(result.rows, result.counters)]}
    ind = result.indicators  # (n_scales, replicas)
    if np.any(ind[:-1] & ~ind[1:]):
        _log("sweep: a replica's coupled crossing indicator switched off along the grid")
        return EXIT_INVARIANT, artifacts, extras
    _log(f"sweep: {len(result.rows)} scales, bracket {result.bracket}")
    return EXIT_OK, artifacts, extras


def cmd_bounds(cfg: ExperimentConfig) -> tuple[int, dict[str, bytes], dict]:
    report = moment_report(cfg.appetite)
    artifacts = {"poisson_bounds.csv": _csv(["mean", "threshold", "bound"], [
        [mean, a, f"{poisson_chernoff(mean, a):.12g}"] for mean, a in CHERNOFF_GRID])}

    rows = []
    if report.finite and report.variance > 0 and report.upper_moment > 0:
        for n in (10, 100, 1000):
            for x in (1.0, 5.0, 25.0, 125.0):
                rows.append([
                    n, x,
                    f"{nagaev_bound(n, x, report.variance, report.upper_moment, cfg.appetite.tail_exponent):.12g}",
                ])
    artifacts["sum_bounds.csv"] = _csv(["n", "threshold", "bound"], rows)

    thr = None
    if cfg.appetite.floor > 0:
        thr = finiteness_threshold(cfg.intensity, cfg.domain.dim, report.mean)
    moments = {"mean": report.mean, "variance": report.variance,
               "upper_moment": report.upper_moment}
    extras = {
        # strict JSON has no Infinity; a heavy tail reports the string "inf"
        "moments": {**{k: v if np.isfinite(v) else "inf" for k, v in moments.items()},
                    "finite": report.finite},
        "finiteness_threshold": thr,
    }
    _log("bounds: tables written")
    return EXIT_OK, artifacts, extras


def cmd_validate(cfg: ExperimentConfig) -> tuple[int, dict[str, bytes], dict]:
    results = run_validation(cfg.seed, cfg.workers)
    n_fail = sum(1 for r in results if not r.passed)
    for r in results:
        _log(f"validate: {r.name}: {'PASS' if r.passed else 'FAIL'} "
             f"({r.failures}/{r.instances} failing)")
    return (EXIT_OK if n_fail == 0 else EXIT_INVARIANT), {"validation.csv": _csv(
        ["check", "instances", "failures", "passed"],
        [[r.name, r.instances, r.failures, int(r.passed)] for r in results])}, {}


_COMMANDS = {
    "allocate": cmd_allocate,
    "boolean": cmd_boolean,
    "percolate": cmd_percolate,
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
    "validate": cmd_validate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one config error line instead of the usage
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="allocperc",
        description="Stable-allocation and percolation experiments",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", help="root seed override")
    parser.add_argument("--out", help="run directory override")
    parser.add_argument("--replicas", help="replica count override")
    parser.add_argument("--scale-grid", help="lo:hi:step override")
    parser.add_argument("--workers", help="worker thread count")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {
            "seed": args.seed,
            "out_dir": args.out,
            "replicas": args.replicas,
            "scale_grid": args.scale_grid,
            "workers": args.workers,
        }
        cfg = resolve_config(file_values, overrides)
        out = Path(cfg.out_dir)
        base = next((p for p in (out, *out.parents) if p.exists()), out)
        if not base.is_dir():  # refused before any work
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(base))
        started = time.time()
        code, artifacts, extras = _COMMANDS[args.subcommand](cfg)
        for name in [*artifacts, "manifest.json"]:  # refused before any write
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, "Is a directory", str(out / name))
        made = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
        out.mkdir(parents=True, exist_ok=True)
        parts = {name: out / f".{name}.part" for name in [*artifacts, "manifest.json"]}
        try:
            for name, data in artifacts.items():
                parts[name].write_bytes(data)
            manifest = {
                "tool_version": __version__,
                "subcommand": args.subcommand,
                "seed": cfg.seed,
                "config": cfg.raw,
                "artifacts": [{"name": name, "sha256": hashlib.sha256(artifacts[name]).hexdigest()}
                              for name in sorted(artifacts)],
                "duration_seconds": round(time.time() - started, 3),
                "extras": extras,
            }
            parts["manifest.json"].write_bytes(
                (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
            for name, part in parts.items():
                part.replace(out / name)
        except OSError:  # undo what this run wrote; the first error is the one reported
            for undo in [*(p.unlink for p in parts.values()), *(d.rmdir for d in made)]:
                with contextlib.suppress(OSError):
                    undo()
            raise
    except (ConfigError, OSError) as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG
    except MemoryError as exc:  # an array numpy refuses to allocate
        _log(f"config error: out of memory: {exc}")
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
