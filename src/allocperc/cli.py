"""Experiment harness: subcommands, run directories, manifests.

Data goes to CSV/JSON/PGM files under the run directory; progress lines go to
stderr. Exit codes: 0 success, 2 configuration error, 3 invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import SiteGrid, phase_diagnostics, sample_replica
from .appetite import moment_report
from .booleanmodel import BooleanModelError, build_boolean, tail_statistics
from .bounds import PhaseParams, classify_phase, finiteness_threshold, nagaev_bound, poisson_chernoff
from .config import ConfigError, ExperimentConfig, parse_config_file, resolve_config
from .percolation import claimed_components, critical_sweep, map_ordered, run_replica
from .validation import run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_pgm(path: Path, values: np.ndarray) -> None:
    """Binary P5 raster of a 2-d integer field scaled into 0..255."""
    if values.ndim != 2:
        raise ValueError("PGM raster needs a 2-d field")
    v = values.astype(np.int64)
    lo, hi = v.min(), v.max()
    scaled = np.zeros_like(v, dtype=np.uint8) if hi == lo else (
        ((v - lo) * 255) // (hi - lo)
    ).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out: Path, cfg: ExperimentConfig, subcommand: str,
                    started: float, extras: dict | None = None) -> None:
    artifacts = sorted(
        p.name for p in out.iterdir() if p.is_file() and p.name != "manifest.json"
    )
    manifest = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "seed": cfg.seed,
        "config": cfg.raw,
        "artifacts": [
            {"name": name, "sha256": _sha256(out / name)} for name in artifacts
        ],
        "duration_seconds": round(time.time() - started, 3),
        "extras": extras or {},
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_allocate(cfg: ExperimentConfig, out: Path) -> tuple[int, dict]:
    grid = SiteGrid(domain=cfg.domain, spacing=cfg.spacing)

    def one(rep):
        alloc, config = run_replica(cfg.domain, grid, cfg.intensity, cfg.appetite, cfg.seed, rep)
        diag = phase_diagnostics(alloc, config, grid)
        raster = alloc.assignment.reshape(grid.shape) if rep == 0 and cfg.domain.dim == 2 else None
        return (rep, config.n_centers, diag.claimed_volume_fraction,
                diag.fraction_sated, diag.unclaimed_volume), raster, alloc.counters

    results = map_ordered(one, range(cfg.replicas), cfg.workers)
    rows = [list(r[0]) for r in results]
    _write_csv(out / "allocation.csv",
               ["replica", "n_centers", "claimed_fraction", "fraction_sated", "unclaimed_volume"],
               rows)
    if results and results[0][1] is not None:
        _write_pgm(out / "territory.pgm", results[0][1] + 2)
    params = PhaseParams(cfg.intensity, cfg.appetite.scale,
                         moment_report(replace(cfg.appetite, floor=0.0, scale=1.0)).mean)
    _log(f"allocate: {cfg.replicas} replicas, phase {classify_phase(params)}")
    return EXIT_OK, {"counters": [{"replica": r[0][0], **r[2]} for r in results]}


def cmd_boolean(cfg: ExperimentConfig, out: Path) -> tuple[int, dict]:
    if cfg.appetite.floor <= 0 or cfg.appetite.scale <= 0:
        raise ConfigError(
            "boolean model needs positive appetites; set floor > 0 and scale > 0"
        )

    def one(rep):
        config = sample_replica(cfg.domain, cfg.intensity, cfg.appetite, cfg.seed, rep)
        return rep, build_boolean(config, cfg.domain)

    results = map_ordered(one, range(cfg.replicas), cfg.workers)
    rows = []
    for rep, model in results:
        for i in range(model.n_balls):
            rows.append([rep, i, f"{model.radii[i]:.12g}", int(model.truncated[i])])
    _write_csv(out / "radii.csv", ["replica", "center", "radius", "truncated"], rows)

    models = [m for _, m in results if m.n_balls]
    extras = {}
    if models:
        try:
            stats = tail_statistics(models)
        except BooleanModelError as exc:
            raise ConfigError(f"{exc}; enlarge the box or lower the scale") from exc
        _write_csv(
            out / "tail.csv",
            ["radius", "survival", "scaled_survival"],
            [[f"{r:.12g}", f"{s:.12g}", f"{r ** cfg.domain.dim * s:.12g}"]
             for r, s in zip(stats.r_grid, stats.survival)],
        )
        extras = {"sup_statistic": stats.sup_statistic, "pooled_radii": stats.n_radii}
    _log(f"boolean: {len(models)} nonempty replicas")
    return EXIT_OK, extras


def cmd_percolate(cfg: ExperimentConfig, out: Path) -> tuple[int, dict]:
    grid = SiteGrid(domain=cfg.domain, spacing=cfg.spacing)

    def one(rep):
        alloc, _ = run_replica(cfg.domain, grid, cfg.intensity, cfg.appetite, cfg.seed, rep)
        report = claimed_components(alloc, grid)
        largest = int(report.component_sizes.max()) if report.n_components else 0
        return [rep, report.n_components, largest,
                int(report.percolates), report.origin_component,
                f"{report.max_origin_distance:.12g}", f"{report.diameter:.12g}"]

    rows = map_ordered(one, range(cfg.replicas), cfg.workers)
    _write_csv(out / "components.csv",
               ["replica", "n_components", "largest_size", "crossing",
                "origin_component", "origin_reach", "origin_diameter"],
               rows)
    _log(f"percolate: {cfg.replicas} replicas")
    return EXIT_OK, {}


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> tuple[int, dict]:
    if cfg.domain.periodic:
        raise ConfigError("sweep detects box crossings; set boundary = open")
    grid = SiteGrid(domain=cfg.domain, spacing=cfg.spacing)
    result = critical_sweep(cfg.domain, grid, cfg.intensity, cfg.appetite,
                            cfg.scale_grid, cfg.replicas, cfg.seed, cfg.workers)
    _write_csv(
        out / "sweep.csv",
        ["scale", "crossing_probability", "ci_low", "ci_high", "mean_claimed_fraction"],
        [[r.scale, f"{r.crossing_probability:.6g}", f"{r.ci_low:.6g}",
          f"{r.ci_high:.6g}", f"{r.mean_claimed_fraction:.6g}"] for r in result.rows],
    )
    extras = {"bracket": list(result.bracket) if result.bracket else None}
    probs = np.asarray([r.crossing_probability for r in result.rows])
    if np.any(np.diff(result.indicators.sum(axis=1)) < 0):
        _log("sweep: coupled crossing indicators decreased along the grid")
        return EXIT_INVARIANT, extras
    _log(f"sweep: {len(probs)} scales, bracket {result.bracket}")
    return EXIT_OK, extras


def cmd_bounds(cfg: ExperimentConfig, out: Path) -> tuple[int, dict]:
    report = moment_report(cfg.appetite)
    rows = []
    for mean in (1.0, 5.0, 10.0, 50.0):
        for ratio in (1.1, 1.5, 2.0, 5.0):
            a = mean * ratio
            rows.append([mean, a, f"{poisson_chernoff(mean, a):.12g}"])
    _write_csv(out / "poisson_bounds.csv", ["mean", "threshold", "bound"], rows)

    rows = []
    if report.finite and report.variance > 0:
        for n in (10, 100, 1000):
            for x in (1.0, 5.0, 25.0, 125.0):
                rows.append([
                    n, x,
                    f"{nagaev_bound(n, x, report.variance, report.upper_moment, cfg.appetite.tail_exponent):.12g}",
                ])
    _write_csv(out / "sum_bounds.csv", ["n", "threshold", "bound"], rows)

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
    return EXIT_OK, extras


def cmd_validate(cfg: ExperimentConfig, out: Path) -> tuple[int, dict]:
    results = run_validation(cfg.seed, cfg.workers)
    _write_csv(
        out / "validation.csv",
        ["check", "instances", "failures", "passed"],
        [[r.name, r.instances, r.failures, int(r.passed)] for r in results],
    )
    n_fail = sum(1 for r in results if not r.passed)
    for r in results:
        _log(f"validate: {r.name}: {'PASS' if r.passed else 'FAIL'} "
             f"({r.failures}/{r.instances} failing)")
    return (EXIT_OK if n_fail == 0 else EXIT_INVARIANT), {}


_COMMANDS = {
    "allocate": cmd_allocate,
    "boolean": cmd_boolean,
    "percolate": cmd_percolate,
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allocperc",
        description="Stable-allocation and percolation experiments",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="root seed override")
    parser.add_argument("--out", help="run directory override")
    parser.add_argument("--replicas", type=int, help="replica count override")
    parser.add_argument("--scale-grid", help="lo:hi:step override")
    parser.add_argument("--workers", type=int, help="worker thread count")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {
            "seed": args.seed,
            "out_dir": args.out,
            "replicas": args.replicas,
            "scale_grid": args.scale_grid,
            "workers": args.workers,
        }
        cfg = resolve_config(file_values, overrides)
    except (ConfigError, OSError) as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        code, extras = _COMMANDS[args.subcommand](cfg, out)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG
    _write_manifest(out, cfg, args.subcommand, started, extras)
    return code


if __name__ == "__main__":
    sys.exit(main())
