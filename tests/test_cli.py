import csv
import dataclasses
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
from allocperc.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main
from allocperc.config import ConfigError, parse_config_file, parse_scale_grid, resolve_config
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
    ("sweep", "boundary = open\nscale_grid = 0:1e6:1e-6\n"),  # 10^12 scales
    ("sweep", "boundary = open\nscale_grid = -0.5:0.5:0.5\n"),  # a negative scale
    # sizes numpy can neither index nor allocate
    ("allocate", "dimension = 40\nsides = 10\n"),
    ("allocate", "spacing = 1e-300\n"),
    ("allocate", "sides = 1e7,1e7\n"),  # refused at once: 1.42 PiB of centers
    # past numpy's 32 meshgrid axes and 64 array dimensions, with one cell
    ("allocate", "dimension = 33\nsides = 0.25\nspacing = 0.25\nintensity = 1e20\n"),
    ("percolate", "dimension = 65\nsides = 0.25\nspacing = 0.25\nintensity = 1e20\n"),
])
def test_bad_values_exit_2_with_one_line(subcommand, extra, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE_CFG + extra)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


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


def test_sweep_needs_open_box(cfg_file, tmp_path):
    code = main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG


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


# fast path in allocperc.validation: (fault applied to its result, rows that catch it)
_FAULTS = {
    "gale_shapley": (_collapse, ("stability", "ball_union_dominates_claimed_set")),
    "compute_radius": (lambda r: r + 1e-8, ("radius_sweep_vs_bisection",)),
    "ball_components": (_merge, ("ball_components_vs_bfs",)),
    "mask_components": (_merge, ("mask_components_vs_floodfill",)),
    "poisson_chernoff": (lambda bound: 0.0, ("poisson_chernoff_dominates_exact_tail",)),
    "build_boolean": (lambda m: dataclasses.replace(m, radii=m.radii * 0.5),
                      ("ball_union_dominates_claimed_set",)),
}


@pytest.mark.parametrize("fast_path", _FAULTS)
def test_validate_reports_an_injected_fault(fast_path, cfg_file, tmp_path, monkeypatch):
    fault, rows = _FAULTS[fast_path]
    original = getattr(validation, fast_path)
    monkeypatch.setattr(validation, fast_path, lambda *a, **k: fault(original(*a, **k)))
    out = tmp_path / "run"
    assert main(["validate", "--config", str(cfg_file), "--out", str(out)]) == EXIT_INVARIANT
    failures = {r[0]: int(r[2]) for r in read_csv(out / "validation.csv")[1:]}
    assert all(failures[row] > 0 for row in rows)


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
    "sides": ["2", "3,3", "2,2,2", "0", "-1", "inf", "x"],
    "boundary": ["periodic", "open", "torus"],
    "intensity": ["0.5", "1.0", "0", "nan"],
    "family": ["constant", "exponential", "pareto", "lognormal", "bogus"],
    "pareto_index": ["0.5", "3.5", "-1"],
    "mean": ["1.0", "1e-5", "1e200"],
    "tail_exponent": ["1", "100"],
    "scale": ["0.05", "0.5", "2", "0", "-1", "nan", "inf"],
    "floor": ["0", "0.5", "1", "-1", "nan"],
    "spacing": ["0.5", "1", "0.3", "0", "x"],
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
