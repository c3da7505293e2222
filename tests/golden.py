"""Pinned artifacts: the SHA-256 of every CSV and PGM file that the CLI
writes for a fixed set of small (config, subcommand, seed) runs.

README's contract is that an identical (config, seed) gives byte-identical
artifacts. test_golden.py runs the set below and compares it with
golden_artifacts.json. A change that alters an artifact on purpose rewrites
the file in the same commit and lists every changed digest, with its reason,
in CHANGES.md:

    PYTHONPATH=src python tests/golden.py

rewrites golden_artifacts.json and prints one line per changed digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import scipy

from allocperc.cli import main

PATH = Path(__file__).with_name("golden_artifacts.json")
REWRITE = "PYTHONPATH=src python tests/golden.py"

_SWEEP = "replicas = 3\nscale_grid = 0.2:1.2:0.2\n"
CONFIGS = {
    "d1-open-constant": "dimension = 1\nsides = 40\nboundary = open\nfamily = constant\n"
                        "floor = 0.5\nspacing = 0.25\n" + _SWEEP,
    "d2-periodic-exponential": "dimension = 2\nsides = 8\nboundary = periodic\n"
                               "family = exponential\nfloor = 0.5\nspacing = 0.25\n" + _SWEEP,
    "d2-open-pareto": "dimension = 2\nsides = 8\nboundary = open\nfamily = pareto\n"
                      "pareto_index = 2.5\nfloor = 0.5\nspacing = 0.25\n" + _SWEEP,
    "d3-open-lognormal": "dimension = 3\nsides = 4\nboundary = open\nfamily = lognormal\n"
                         "lognormal_sigma = 0.5\nfloor = 0.2\nspacing = 0.5\n" + _SWEEP,
}
SEEDS = (0, 7)
VALIDATED = "d2-periodic-exponential"  # validate reads only seed and workers
THREADED = "d2-open-pareto"  # run again at 3 workers


def subcommands(config: str) -> list[str]:
    """Every subcommand that applies: sweep needs an open box."""
    subs = ["allocate", "boolean", "percolate", "bounds"]
    if "boundary = open" in CONFIGS[config]:
        subs.append("sweep")
    if config == VALIDATED:
        subs.append("validate")
    return subs


def run_all(configs=CONFIGS, workers: int = 1) -> dict:
    """{"config subcommand seed": {"exit": code, "artifacts": {file: sha256}}}
    for every run of the named configs, at the given worker count."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            cfg = Path(tmp) / f"{config}.cfg"
            cfg.write_text(CONFIGS[config])
            for sub in subcommands(config):
                for seed in SEEDS:
                    out = Path(tmp) / f"{config}-{sub}-{seed}"
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = main([sub, "--config", str(cfg), "--out", str(out),
                                     "--seed", str(seed), "--workers", str(workers)])
                    files = sorted(out.iterdir()) if out.exists() else []
                    runs[f"{config} {sub} {seed}"] = {"exit": code, "artifacts": {
                        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                        for f in files if f.name != "manifest.json"}}  # it holds the run time
    return runs


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def changes(old: dict, new: dict) -> list[str]:
    """One line per run whose exit code changed and per artifact digest that
    changed, appeared or went."""
    lines = []
    for run in sorted(old.keys() | new.keys()):
        a, b = old.get(run, {}), new.get(run, {})
        if a.get("exit") != b.get("exit"):
            lines.append(f"{run}: exit {a.get('exit')} -> {b.get('exit')}")
        fa, fb = a.get("artifacts", {}), b.get("artifacts", {})
        for name in sorted(fa.keys() | fb.keys()):
            if fa.get(name) != fb.get(name):
                lines.append(f"{run} {name}: {fa.get(name)} -> {fb.get(name)}")
    return lines


def rewrite() -> None:
    old = json.loads(PATH.read_text())["runs"] if PATH.exists() else {}
    new = run_all()
    PATH.write_text(json.dumps({**versions(), "runs": new}, indent=1, sort_keys=True) + "\n")
    lines = changes(old, new)
    print("\n".join(lines) if lines else "no digest changed")


if __name__ == "__main__":
    rewrite()
