"""Experiment configuration: flat key = value files, with CLI overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import SiteGrid
from .appetite import FAMILIES, LAWS, AppetiteConfigError, AppetiteDistribution
from .geometry import Domain, GeometryError


class ConfigError(ValueError):
    pass


CONFIG_VERSION = 1

_DEFAULTS = {
    "config_version": CONFIG_VERSION,
    "dimension": 2,
    "sides": "10,10",
    "boundary": "periodic",
    "intensity": 1.0,
    "family": "constant",
    **{key: default for law in LAWS.values() for key, default, _, _ in law.values()},
    "scale": 0.5,
    "floor": 0.0,
    "tail_exponent": 1.0,
    "spacing": 0.25,
    "replicas": 10,
    "scale_grid": "0.05:1.2:0.115",
    "seed": 0,
    "workers": 1,
    "out_dir": "runs/latest",
}


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file; '#' starts a comment."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def parse_scale_grid(text: str) -> list[float]:
    """lo:hi:step, endpoints inclusive (within rounding); lo >= 0 and at
    most 10 000 scales, since each scale is one solve per replica."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"scale grid must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad scale grid {text!r}") from exc
    if not all(math.isfinite(v) for v in (lo, hi, step)) or step <= 0 or hi < lo or lo < 0:
        raise ConfigError(f"bad scale grid {text!r}")
    # The points lo + k step up to hi + 1e-9 step ascend with k, so a sorted
    # search counts them. Where step is below the float spacing at lo, the
    # sum stalls and (hi - lo) / step counts them instead.
    with np.errstate(over="ignore"):  # points past the float range are inf
        v = lo + np.arange(10_001) * step
    n = int(np.searchsorted(v, hi + 1e-9 * step, side="right"))
    if n > 10_000:
        if (hi - lo) / step + 1e-9 >= 10_000:
            raise ConfigError(f"scale grid {text!r} has more than 10000 scales")
        n = int((hi - lo) / step + 1e-9) + 1
    return [round(float(x), 12) for x in v[:n]]


@dataclass(frozen=True)
class ExperimentConfig:
    domain: Domain
    intensity: float
    appetite: AppetiteDistribution
    spacing: float
    replicas: int
    scale_grid: list[float]
    seed: int
    workers: int
    out_dir: str
    raw: dict = field(default_factory=dict)


def resolve_config(file_values: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults, file values, and CLI overrides, then validate."""
    merged = dict(_DEFAULTS)
    for src in (file_values or {}), (overrides or {}):
        for key, value in src.items():
            if value is None:
                continue
            merged[key] = value

    def as_int(key):
        try:
            return int(merged[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be an integer, got {merged[key]!r}")

    def as_float(key):
        try:
            value = float(merged[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {merged[key]!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {merged[key]!r}")
        return value

    version = as_int("config_version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config_version {version}")

    d = as_int("dimension")
    if not 1 <= d <= 32:  # numpy's meshgrid, behind the cell centers, takes at most 32 axes
        raise ConfigError(f"dimension must be between 1 and 32, got {d}")
    sides_text = str(merged["sides"])
    try:
        sides = tuple(float(s) for s in sides_text.split(","))
    except ValueError:
        raise ConfigError(f"sides must be comma-separated numbers, got {sides_text!r}")
    if len(sides) == 1 and d > 1:
        sides = sides * d
    if len(sides) != d:
        raise ConfigError(f"got {len(sides)} sides for dimension {d}")
    boundary = str(merged["boundary"]).strip().lower()
    if boundary not in ("periodic", "open"):
        raise ConfigError(f"boundary must be 'periodic' or 'open', got {boundary!r}")

    family = str(merged["family"]).strip().lower()
    if family not in FAMILIES:
        raise ConfigError(f"family must be one of {FAMILIES}, got {family!r}")
    params = {name: as_float(key) for name, (key, _, _, _) in LAWS[family].items()}

    intensity = as_float("intensity")
    if intensity <= 0:
        raise ConfigError("intensity must be positive")
    spacing = as_float("spacing")
    try:
        domain = Domain(sides=sides, periodic=boundary == "periodic")
        SiteGrid(domain=domain, spacing=spacing)  # h tiles every side, at most 2^62 cells
        appetite = AppetiteDistribution(
            family=family,
            params=params,
            scale=as_float("scale"),
            floor=as_float("floor"),
            tail_exponent=as_float("tail_exponent"),
        )
    except (GeometryError, AppetiteConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    # A size numpy could neither index nor allocate, checked before any array
    # (the float product is inf past the float range).
    if intensity * math.prod(sides) > 2.0 ** 62:
        raise ConfigError("the box holds more than 2^62 expected centers")

    seed = as_int("seed")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    replicas = as_int("replicas")
    if replicas < 1:
        raise ConfigError("replicas must be >= 1")
    workers = as_int("workers")
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    resolved = dict(merged)
    return ExperimentConfig(
        domain=domain,
        intensity=intensity,
        appetite=appetite,
        spacing=spacing,
        replicas=replicas,
        scale_grid=parse_scale_grid(str(merged["scale_grid"])),
        seed=seed,
        workers=workers,
        out_dir=str(merged["out_dir"]),
        raw={k: str(v) for k, v in resolved.items()},
    )
