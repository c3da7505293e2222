import csv
import dataclasses
import errno
import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocperc import cli, validation
from allocperc.allocation import PointConfiguration
from allocperc.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main
from allocperc.config import ConfigError, parse_config_file, parse_scale_grid, resolve_config
from allocperc.geometry import replica_rng
from allocperc.percolation import SweepResult, SweepRow

BASE_CFG = """\
# demo configuration
dimension = 2
sides = 8,8
boundary = periodic
intensity = 1.0
family = constant
value = 1.0
scale = 0.5
spacing = 0.25
replicas = 2
seed = 21
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CFG)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def hash_artifacts(run_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))


def test_parse_scale_grid():
    assert parse_scale_grid("0.1:0.5:0.2") == [0.1, 0.3, 0.5]
    with pytest.raises(ConfigError):
        parse_scale_grid("1:2")
    with pytest.raises(ConfigError):
        parse_scale_grid("2:1:0.5")
    assert parse_scale_grid("1e308:1e308:1") == [1e308]  # lo + step rounds to lo


def test_resolve_config_validates():
    with pytest.raises(ConfigError):
        resolve_config({}, {"dimension": 0})
    with pytest.raises(ConfigError):
        resolve_config({}, {"boundary": "torus"})
    with pytest.raises(ConfigError):
        resolve_config({}, {"sides": "1,2,3"})


def test_allocate_writes_csv_and_manifest(cfg_file, tmp_path):
    out = tmp_path / "run"
    code = main(["allocate", "--config", str(cfg_file), "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out / "allocation.csv")
    assert rows[0] == ["replica", "n_centers", "claimed_fraction", "fraction_sated",
                       "unclaimed_volume"]
    assert len(rows) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 21
    names = [a["name"] for a in manifest["artifacts"]]
    assert "allocation.csv" in names
    assert (out / "territory.pgm").read_bytes().startswith(b"P5\n")


def test_boolean_requires_floor(cfg_file, tmp_path):
    code = main(["boolean", "--config", str(cfg_file), "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG


def test_boolean_outputs(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(BASE_CFG + "floor = 1.0\nscale = 0.1\n")
    out = tmp_path / "run"
    assert main(["boolean", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert read_csv(out / "radii.csv")[0] == ["replica", "center", "radius", "truncated"]
    assert read_csv(out / "tail.csv")[0] == ["radius", "survival", "scaled_survival"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extras"]["sup_statistic"] > 0


@pytest.mark.parametrize("subcommand, extra", [
    ("allocate", "sides = 10,10\nspacing = 0.3\n"),  # the spacing does not tile the box
    ("allocate", "scale = -1\n"),
    ("boolean", "sides = 2,2\nboundary = open\nfloor = 1\nscale = 5\n"),  # all censored
    ("boolean", "scale = 0\nfloor = 0.5\n"),  # zero appetites have no dominating radius
    # appetites that underflow to 0: 1e-200 x 1e-200
    ("boolean", "value = 0\nscale = 1e-200\nfloor = 1e-200\n"),
    ("boolean", "family = exponential\nmean = 1e-300\nscale = 1e-200\nfloor = 1e-200\n"),
    # appetites of 5e-324 pass the floor check, but their radii underflow to 0
    ("boolean", "sides = 3\nvalue = 1e-30\nfloor = 5e-24\nscale = 1e-300\n"),
    ("sweep", "boundary = open\nscale_grid = 0:1e6:1e-6\n"),  # 10^12 scales
    ("sweep", "boundary = open\nscale_grid = -0.5:0.5:0.5\n"),  # a negative scale
    # sizes numpy can neither index nor allocate
    ("allocate", "dimension = 40\nsides = 10\n"),
    ("allocate", "spacing = 1e-300\n"),
    ("allocate", "sides = 1e7,1e7\n"),  # refused at once: 1.42 PiB of centers
    # past numpy's 32 meshgrid axes and 64 array dimensions, with one cell
    ("allocate", "dimension = 33\nsides = 0.25\nspacing = 0.25\nintensity = 1e20\n"),
    ("percolate", "dimension = 65\nsides = 0.25\nspacing = 0.25\nintensity = 1e20\n"),
    ("allocate", "sides = nan,nan\n"),  # refused by Domain, as is the box below
    # a box whose volume underflows to 0, which the claimed fraction divides by
    ("allocate", "sides = 1e-200,1e-200\nspacing = 1e-200\n"),
    ("sweep", "boundary = open\nsides = 1e-200,1e-200\nspacing = 1e-200\n"),
])
def test_bad_values_exit_2_with_one_line(subcommand, extra, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE_CFG + extra)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not (tmp_path / "r").exists()


def test_boolean_pools_models_without_overlap_edges(tmp_path, monkeypatch):
    # a built model carries its overlap edges; the run keeps only radii and flags
    cfg = tmp_path / "b.cfg"
    cfg.write_text(BASE_CFG + "floor = 1.0\nscale = 0.1\nreplicas = 3\n")
    built, pooled = [], []
    real_build, real_tail = cli.build_boolean, cli.tail_statistics

    def build(*args):
        built.append(real_build(*args))
        return built[-1]

    def tail(models):
        pooled.extend(models)
        return real_tail(models)

    monkeypatch.setattr(cli, "build_boolean", build)
    monkeypatch.setattr(cli, "tail_statistics", tail)
    assert main(["boolean", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert len(built) == len(pooled) == 3 and all(m.edges is not None for m in built)
    assert all(m.edges is None for m in pooled)


def test_boolean_tail_grid_starts_below_tiny_radii(tmp_path):
    # radii of about 8e-161: the grid starts at half the smallest, not at 1e-12
    cfg = tmp_path / "t.cfg"
    cfg.write_text(BASE_CFG + "sides = 3\nfamily = exponential\nmean = 1e-300\n"
                   "floor = 1e-300\nscale = 1e-20\n")
    out = tmp_path / "run"
    assert main(["boolean", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    radii = [float(r[2]) for r in read_csv(out / "radii.csv")[1:] if r[3] == "0"]
    tail = [[float(x) for x in r] for r in read_csv(out / "tail.csv")[1:]]
    assert 0 < tail[0][0] < min(radii) and tail[0][1] == 1.0
    assert [r[0] for r in tail] == sorted(r[0] for r in tail) and tail[-1][1] == 0.0


@pytest.mark.parametrize("args", [
    ["allocate", "--seed", "x"], ["allocate", "--replicas", "2.5"],
    ["allocate", "--workers", "two"], ["allocate", "--bogus", "1"], [],
], ids=["seed", "replicas", "workers", "unknown-flag", "no-subcommand"])
def test_bad_flags_exit_2_with_one_line(args, cfg_file, tmp_path, capsys):
    assert main([*args, "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not (tmp_path / "r").exists()


def test_help_exits_0_with_the_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: allocperc")


def test_manifest_lists_only_this_runs_artifacts(cfg_file, tmp_path):
    out = tmp_path / "run"
    assert main(["allocate", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    assert main(["bounds", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "bounds"
    assert {a["name"]: a["sha256"] for a in manifest["artifacts"]} == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("poisson_bounds.csv", "sum_bounds.csv")}
    assert (out / "allocation.csv").is_file()  # the older run's files are left alone


@pytest.mark.parametrize("blocked", ["allocation.csv", "manifest.json"])
def test_unwritable_artifact_exits_2_with_one_line(blocked, cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    assert main(["allocate", "--config", str(cfg_file), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()  # the progress line, then the error
    assert [line for line in err if line.startswith("config error: ")] == err[-1:]
    assert len(err) == 2 and "Is a directory" in err[-1]
    assert [p.name for p in out.iterdir()] == [blocked]  # nothing written


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "old-run"])
def test_a_failed_second_write_leaves_no_new_file(existing, cfg_file, tmp_path, capsys,
                                                   monkeypatch):
    out = tmp_path / "runs" / "b"
    if existing:  # an older run's file stays as it was
        out.mkdir(parents=True)
        (out / "poisson_bounds.csv").write_text("old\n")
    before = sorted(tmp_path.rglob("*"))
    writes, real = [], Path.write_bytes

    def write_bytes(path, data):
        writes.append(path)
        if len(writes) == 2:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return real(path, data)

    monkeypatch.setattr(Path, "write_bytes", write_bytes)
    assert main(["bounds", "--config", str(cfg_file), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()  # the progress line, then the error
    assert len(err) == 2 and err[1].startswith("config error: ") and "No space" in err[1]
    assert len(writes) == 2 and sorted(tmp_path.rglob("*")) == before
    assert not existing or (out / "poisson_bounds.csv").read_text() == "old\n"


def test_exit_2_run_writes_no_artifact(tmp_path):
    cfg = tmp_path / "c.cfg"  # every radius censored by the window
    cfg.write_text(BASE_CFG + "sides = 2,2\nboundary = open\nfloor = 1\nscale = 5\n")
    out = tmp_path / "run"
    assert main(["boolean", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_config_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(BASE_CFG.encode("utf-16"))  # starts with the bytes ff fe
    assert main(["allocate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
def test_unusable_out_dir_exits_2_with_one_line(below, cfg_file, tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    out = blocker / below if below else blocker
    assert main(["allocate", "--config", str(cfg_file), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert blocker.read_text() == "not a directory\n"


def test_percolate_fully_claimed_torus(tmp_path):
    # no boundary cell: the diameter is the farthest midpoint from any one
    cfg = tmp_path / "p.cfg"
    cfg.write_text(BASE_CFG + "sides = 20,20\nscale = 3\n")
    out = tmp_path / "run"
    assert main(["percolate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    for row in read_csv(out / "components.csv")[1:]:
        assert row[2] == "6400"
        assert float(row[6]) == pytest.approx(10.25 * 2 ** 0.5, rel=1e-9)


def test_percolate_outputs(cfg_file, tmp_path):
    out = tmp_path / "run"
    assert main(["percolate", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "components.csv")
    assert rows[0][0] == "replica"
    assert len(rows) == 3


def test_sweep_needs_open_box(cfg_file, tmp_path, capsys):
    out = tmp_path / "runs" / "sweep"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: sweep detects box crossings; set boundary = open\n"
    assert not (tmp_path / "runs").exists()  # no run directory, nor its parent


def test_validate_same_on_a_thread_pool(cfg_file, tmp_path):
    runs = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        assert main(["validate", "--config", str(cfg_file), "--out", str(out),
                     "--workers", workers]) == EXIT_OK
        runs.append((out / "validation.csv").read_bytes())
    assert runs[0] == runs[1]


def _collapse(alloc):  # every cell to center 0
    return dataclasses.replace(alloc, assignment=np.zeros_like(alloc.assignment))


def _merge(report):  # every labelled ball or cell in one component
    return dataclasses.replace(report, labels=np.where(report.labels >= 0, 0, report.labels))


def _flip(report):  # every crossing flag inverted
    return dataclasses.replace(report, crossing_axes=~report.crossing_axes)


def _on_result(fast_path, fault):  # fault applied to the result of a fast path in validation
    def inject(monkeypatch):
        original = getattr(validation, fast_path)
        monkeypatch.setattr(validation, fast_path, lambda *a, **k: fault(original(*a, **k)))
    return inject


def _reversed_index(monkeypatch):  # cells rank equidistant centers by decreasing index
    original = validation.gale_shapley

    def solve(config, grid):
        alloc = original(PointConfiguration(config.centers[::-1], config.appetites[::-1]), grid)
        a = alloc.assignment
        return dataclasses.replace(alloc, assignment=np.where(a >= 0, config.n_centers - 1 - a, a),
                                   territory_volumes=alloc.territory_volumes[::-1],
                                   sated=alloc.sated[::-1])

    monkeypatch.setattr(validation, "gale_shapley", solve)


# fault: (its injection, rows that catch it)
_FAULTS = {
    "gale_shapley": (_on_result("gale_shapley", _collapse),
                     ("stability", "ball_union_dominates_claimed_set")),
    "compute_radius": (_on_result("compute_radius", lambda r: r + 1e-8),
                       ("radius_sweep_vs_bisection",)),
    "ball_components": (_on_result("ball_components", _merge),
                        ("ball_components_vs_bfs", "boolean_model_components_vs_bfs")),
    "ball_components_crossing": (_on_result("ball_components", _flip),
                                 ("ball_components_vs_bfs", "boolean_model_components_vs_bfs")),
    "mask_components": (_on_result("mask_components", _merge),
                        ("mask_components_vs_floodfill",)),
    "mask_components_crossing": (_on_result("mask_components", _flip),
                                 ("mask_components_vs_floodfill",)),
    "poisson_chernoff": (_on_result("poisson_chernoff", lambda bound: 0.0),
                         ("poisson_chernoff_dominates_exact_tail",)),
    "build_boolean": (_on_result("build_boolean",
                                 lambda m: dataclasses.replace(m, radii=m.radii * 0.5)),
                      ("ball_union_dominates_claimed_set",)),
    "index_tiebreak": (_reversed_index, ("assignment_equals_dense_walk",)),
}


@pytest.mark.parametrize("fault", _FAULTS)
def test_validate_reports_an_injected_fault(fault, cfg_file, tmp_path, monkeypatch):
    inject, rows = _FAULTS[fault]
    inject(monkeypatch)
    # only the rows that catch the fault are run
    monkeypatch.setattr(validation, "_CHECKS", tuple(c for c in validation._CHECKS if c[0] in rows))
    out = tmp_path / "run"
    assert main(["validate", "--config", str(cfg_file), "--out", str(out)]) == EXIT_INVARIANT
    failures = {r[0]: int(r[2]) for r in read_csv(out / "validation.csv")[1:]}
    assert all(failures[row] > 0 for row in rows)


@pytest.mark.parametrize("seed", [0, 7])
def test_index_tiebreak_fault_fails_lattice_and_duplicated_ladders(seed, monkeypatch):
    _reversed_index(monkeypatch)
    _, base, n, failed = next(c for c in validation._CHECKS
                              if c[0] == "assignment_equals_dense_walk")
    caught = [failed(replica_rng(seed, base + i), i) for i in range(n)]
    assert any(caught[i] for i in range(n) if i % 4 < 2)  # lattice centers
    assert any(caught[i] for i in range(n) if i % 4 >= 2)  # duplicated centers


def test_sweep_exits_3_when_one_replica_stops_crossing(tmp_path, monkeypatch):
    # one crossing at each scale, but replica 0's switches off as replica 1's switches on
    def sweep(*args, **kwargs):
        rows = [SweepRow(a, 0.5, 0.0, 1.0, 0.5) for a in (0.5, 1.0)]
        return SweepResult(rows, np.array([[1, 0], [0, 1]], dtype=bool), None,
                           np.ones((2, 2, 2), dtype=np.int64))

    monkeypatch.setattr(cli, "critical_sweep", sweep)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG.replace("boundary = periodic", "boundary = open"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--scale-grid", "0.5:1:0.5"]) == EXIT_INVARIANT


def test_allocate_counters_go_to_the_manifest_only(cfg_file, tmp_path):
    out = tmp_path / "run"
    assert main(["allocate", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    counters = json.loads((out / "manifest.json").read_text())["extras"]["counters"]
    assert [c["replica"] for c in counters] == [0, 1]
    assert all(c["rounds"] >= 1 and c["beyond_list"] >= 0 for c in counters)
    csv_text = (out / "allocation.csv").read_text()
    assert "rounds" not in csv_text and "beyond_list" not in csv_text


def test_sweep_counters_go_to_the_manifest_only(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG.replace("boundary = periodic", "boundary = open"))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--scale-grid", "0.5:1.5:0.5"]) == EXIT_OK
    counters = json.loads((out / "manifest.json").read_text())["extras"]["counters"]
    assert [c["scale"] for c in counters] == [0.5, 1.0, 1.5]
    assert all(c["rounds_max"] >= 1 and c["beyond_list_total"] >= 0 for c in counters)
    csv_text = (out / "sweep.csv").read_text()
    assert "rounds" not in csv_text and "beyond_list" not in csv_text


def test_sweep_monotone_column(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG.replace("boundary = periodic", "boundary = open"))
    out = tmp_path / "run"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--scale-grid", "0.05:1.25:0.6", "--replicas", "4"])
    assert code == EXIT_OK
    rows = read_csv(out / "sweep.csv")[1:]
    probs = [float(r[1]) for r in rows]
    assert probs == sorted(probs)


def test_bounds_outputs(cfg_file, tmp_path):
    out = tmp_path / "run"
    assert main(["bounds", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    assert read_csv(out / "poisson_bounds.csv")[0] == ["mean", "threshold", "bound"]
    assert read_csv(out / "sum_bounds.csv")[0] == ["n", "threshold", "bound"]


def test_bounds_lognormal_with_floor_keeps_the_nagaev_table(tmp_path):
    cfg = tmp_path / "l.cfg"
    cfg.write_text(BASE_CFG + "sides = 10,10\nboundary = open\nfamily = lognormal\n"
                   "lognormal_mu = 0\nlognormal_sigma = 1\nfloor = 0.3\ntail_exponent = 2\n")
    out = tmp_path / "r"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert not caught
    assert len(read_csv(out / "sum_bounds.csv")) == 1 + 12
    assert json.loads((out / "manifest.json").read_text())["extras"]["moments"]["finite"]


def test_missing_config_file_is_config_error(tmp_path):
    code = main(["allocate", "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("subcommand, extra, args", [
    ("allocate", "", []),
    ("boolean", "floor = 1.0\nscale = 0.1\n", []),
    ("percolate", "", []),
    ("sweep", "boundary = open\n", ["--scale-grid", "0.05:1.25:0.3", "--replicas", "4"]),
], ids=["allocate", "boolean", "percolate", "sweep"])
def test_deterministic_across_workers(subcommand, extra, args, tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text(BASE_CFG + extra)
    runs = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        assert main([subcommand, "--config", str(cfg), "--out", str(out),
                     "--workers", workers, *args]) == EXIT_OK
        runs.append(hash_artifacts(out))
    assert runs[0] == runs[1] and runs[0]


_OVERFLOWING = {
    "pareto-0.05": "family = pareto\npareto_index = 0.05\n",
    "exponential-1e200": "family = exponential\nmean = 1e200\n",
    "constant-1e309": "family = constant\nvalue = 1e308\nscale = 10\n",
    "lognormal-1000": "family = lognormal\nlognormal_sigma = 1000\n",
    "exponential-1e-5-delta-100": "family = exponential\nmean = 1e-5\ntail_exponent = 100\n",
}


@pytest.mark.parametrize("extra", _OVERFLOWING.values(), ids=_OVERFLOWING.keys())
@pytest.mark.parametrize("subcommand", ["allocate", "percolate", "sweep", "bounds"])
def test_overflowing_appetites_exit_0(subcommand, extra, tmp_path):
    # appetites or moments beyond the int64 and float ranges, or a moment
    # that underflows to 0
    cfg = tmp_path / "o.cfg"
    cfg.write_text(BASE_CFG + "sides = 4,4\nboundary = open\n" + extra)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--scale-grid", "0.2:1.0:0.4"]) == EXIT_OK


@pytest.mark.parametrize("extra, code", zip(_OVERFLOWING.values(), [EXIT_CONFIG] * 3 + [EXIT_OK] * 2),
                         ids=_OVERFLOWING.keys())
def test_overflowing_appetites_boolean(extra, code, tmp_path):
    # infinite appetites give infinite radii; the kernel stops once a row
    # holds every center, and a window of only censored radii exits 2
    cfg = tmp_path / "o.cfg"
    cfg.write_text(BASE_CFG + "sides = 4,4\nboundary = open\nfloor = 0.5\n" + extra)
    assert main(["boolean", "--config", str(cfg), "--out", str(tmp_path / "r")]) == code


@pytest.mark.parametrize("law", ["lognormal_mu = 1e308", "pareto_scale = 1e308",
                                 "pareto_index = 0.001"])
@pytest.mark.parametrize("subcommand", ["allocate", "percolate", "sweep"])
def test_scale_0_with_an_overflowing_law_claims_nothing(subcommand, law, tmp_path):
    # base draws past the float range read inf, yet 0 times a finite number is 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"sides = 2\nboundary = open\nscale = 0\nscale_grid = 0:0.2:0.1\n"
                   f"family = {law.split('_')[0]}\n{law}\n")
    out = tmp_path / "run"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    if subcommand == "allocate":
        assert {row[2] for row in read_csv(out / "allocation.csv")[1:]} == {"0.0"}
    elif subcommand == "percolate":
        assert {row[1] for row in read_csv(out / "components.csv")[1:]} == {"0"}
    else:
        assert read_csv(out / "sweep.csv")[1][::4] == ["0.0", "0"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("name", ["pareto-0.05", "exponential-1e200"])
def test_bounds_manifest_is_strict_json(name, tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text(BASE_CFG + _OVERFLOWING[name])
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_OK
    text = (tmp_path / "r" / "manifest.json").read_text()
    moments = json.loads(text, parse_constant=_reject_constant)["extras"]["moments"]
    assert "inf" in (moments["mean"], moments["variance"])


def test_seed_changes_outputs(cfg_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["allocate", "--config", str(cfg_file), "--out", str(out1)])
    main(["allocate", "--config", str(cfg_file), "--out", str(out2), "--seed", "99"])
    assert hash_artifacts(out1) != hash_artifacts(out2)


_CONFIG_VALUES = {
    "dimension": ["1", "2", "3", "0", "2.5"],
    "sides": ["2", "3,3", "2,2,2", "0", "-1", "inf", "nan", "x"],
    "boundary": ["periodic", "open", "torus"],
    "intensity": ["0.5", "1.0", "0", "nan"],
    "family": ["constant", "exponential", "pareto", "lognormal", "bogus"],
    "pareto_scale": ["1", "0", "-1", "1e308"],
    "pareto_index": ["0.5", "3.5", "-1"],
    "lognormal_mu": ["0", "1e308", "-1e308"],
    "lognormal_sigma": ["1", "0", "-1"],
    "mean": ["1.0", "1e-5", "1e200"],
    "tail_exponent": ["1", "100"],
    "value": ["1.0", "0"],
    "scale": ["0.05", "0.5", "2", "0", "-1", "nan", "inf", "1e-200"],
    "floor": ["0", "0.5", "1", "-1", "nan", "1e-200"],
    "spacing": ["0.5", "1", "0.3", "0", "nan", "x"],
    "replicas": ["1", "2", "0"],
    "scale_grid": ["0.1:0.5:0.2", "0.5:0.1:0.1", "0:inf:1", "nan:1:0.1", "x"],
    "seed": ["0", "7", "-1"],
    "workers": ["1", "2", "0"],
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["allocate", "boolean", "percolate", "sweep", "bounds"]),
    st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in _CONFIG_VALUES.items()}),
)
def test_main_exits_0_2_or_3_and_never_raises(subcommand, values):
    # validate reads only seed and workers and runs its own fixed instances;
    # test_validate_same_on_a_thread_pool covers it.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {"sides": "2", **values}.items()))
        assert main([subcommand, "--config", str(cfg), "--out", str(Path(tmp) / "r")]) in (0, 2, 3)
