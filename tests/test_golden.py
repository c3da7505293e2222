"""Every pinned run gives the exit code and the artifact digests recorded in
golden_artifacts.json (see golden.py, which rewrites the file)."""

import json

import pytest

import golden


def _pinned() -> dict:
    pinned = json.loads(golden.PATH.read_text())
    made = {k: pinned[k] for k in golden.versions()}
    if made != golden.versions():
        pytest.fail(f"{golden.PATH.name} was made with {made}, this is {golden.versions()}; "
                    f"rewrite it with `{golden.REWRITE}` and record the changed digests",
                    pytrace=False)
    return pinned["runs"]


def _check(pinned: dict, runs: dict) -> None:
    lines = golden.changes(pinned, runs)
    if lines:
        pytest.fail("\n".join(lines), pytrace=False)


def test_every_run_matches_its_pinned_digests():
    _check(_pinned(), golden.run_all())


def test_three_workers_match_the_pinned_digests():
    pinned = _pinned()
    runs = golden.run_all([golden.THREADED], workers=3)
    _check({run: pinned[run] for run in runs}, runs)
