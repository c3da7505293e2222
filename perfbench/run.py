"""allocperc benchmark: one workload per call, oracle-checked, with per-module spans.

    python3 perfbench/run.py --workload sweep-open --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; allocperc is imported from its src/. The
workload runs in a child process (workload.py) with BLAS threads pinned to 1;
its outputs are then checked against the dense oracles in this process.
--seconds sizes the op count (see workload.py). --trace 0 prints the
end-to-end metrics; --trace 1 splits --seconds into an untraced and a traced
pass of the same ops and prints the per-layer metrics.
Human-readable lines go first; the last line of stdout is the JSON result.
Records with per-op timings, failures and digests go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import self_times
from workload import MODULES, SPEC, import_library

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def machine_record() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "child_env": THREAD_ENV}


def child(args: list[str], timeout: float) -> None:
    """Run workload.py and wait until it has ended. Popen.wait(timeout) polls
    in steps of up to 50 ms, which would show in setup_s, so the wait blocks
    and a timer kills a child that runs past the timeout."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    proc = subprocess.Popen(cmd, env={**os.environ, **THREAD_ENV}, stdout=sys.stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code:
        raise subprocess.CalledProcessError(code, cmd)


def setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh processes that import allocperc, resolve the config
    and build the SiteGrid."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        child(["--workload", workload, "--setup-only"], timeout=60)
        times.append(perf_counter() - start)
    return times


def run_pass(workload: str, seed: int, seconds: float, traced: bool):
    prefix = OUT / f"{workload}-s{seed}-{'traced' if traced else 'plain'}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--out", str(prefix)] + (["--traced"] if traced else [])
    child(args, timeout=seconds + 120)
    npz_path = Path(str(prefix) + ".npz")
    with np.load(npz_path, allow_pickle=False) as npz:
        arrays = dict(npz)
    npz_path.unlink()  # megabytes per run; the digests are kept in the record
    with open(str(prefix) + ".json", encoding="utf-8") as fh:
        return json.load(fh), arrays


def check_pass(workload: str, rec: dict, arrays: dict) -> list[dict]:
    """One verdict per measured op: digest, failures and oracle counts."""
    from check import Checker, digest  # imports allocperc, so only after import_library

    checker = Checker(workload, rec)
    verdicts = []
    for op in rec["ops"]:
        failures, counts = checker.check(op, arrays, str(op["i"]))
        verdicts.append({"i": op["i"], "digest": digest(op, arrays, str(op["i"])),
                         "failures": [list(f) for f in failures], **counts})
    if digest(rec["warmup"], arrays, "w") != verdicts[0]["digest"]:
        verdicts[0]["failures"].append(["benchmark", "warm-up and measured op 0 differ", None])
    return verdicts


def end_to_end(rec: dict, verdicts: list[dict]) -> dict:
    """The *_ref metrics give op time in units of the reference kernel timed
    before each op (workload.reference_kernel), so the host's speed drift
    cancels; the seconds are kept for the summary and the record. Timings
    cover every attempted op. On sweep-open the share of ops that fail
    depends on the seed (known defects), and would otherwise put that seed
    spread into the timing metrics; failures are reported on their own."""
    latency = [op["latency_s"] for op in rec["ops"]]
    ref = [op["ref_s"] for op in rec["ops"]]
    return {
        "op_mean_ref": sum(latency) / sum(ref),
        "op_p50_ref": statistics.median(t / r for t, r in zip(latency, ref)),
        "peak_rss_mb": rec["peak_rss_kib"] * 1024 / 1e6,
        "op_mean_s": sum(latency) / len(latency),
        "op_p50_s": statistics.median(latency),
        "ref_p50_s": statistics.median(ref),
        "fail_share": sum(bool(v["failures"]) for v in verdicts) / len(verdicts),
    }


def per_layer(rec: dict, verdicts: list[dict], overhead: float) -> dict:
    n = len(rec["ops"])
    spans = rec["spans"]
    selfs = self_times(spans)
    in_ops = [isinstance(s[4], int) for s in spans]

    def total(name=None, module=None, self_time=False, parent=None):
        return sum(
            (st if self_time else s[2] - s[1])
            for s, st, inside in zip(spans, selfs, in_ops)
            if inside and (name is None or s[0] == name)
            and (module is None or s[0].startswith(module + "."))
            and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent))) / n

    def mean(values):
        values = list(values)
        return sum(values) / n if values else 0.0

    scalars = [op["scalars"] for op in rec["ops"]]
    failed = {m: sum(any(f[0] == m for f in v["failures"]) for v in verdicts) for m in MODULES}
    metrics = {}
    for m in MODULES:
        metrics[f"{m}.self_s"] = (total(module=m, self_time=True), "s")
    for m in MODULES:
        metrics[f"{m}.failed"] = (failed[m], "count")
    pairs = mean(s["pairs"] for s in scalars if "pairs" in s)
    is_boolean = rec["workload"] == "boolean-open"
    tail = [s for s in spans if s[4] == "tail" and s[0] == "booleanmodel.tail_statistics"]
    metrics.update({
        "allocation.solve_s": (total("allocation.gale_shapley", self_time=True), "s"),
        "geometry.distance_s": (total("geometry.pairwise_distances",
                                      parent="allocation.gale_shapley"), "s"),
        "allocation.pairs": (0.0 if is_boolean else pairs, "count"),
        "allocation.dense_bytes": (0.0 if is_boolean else 24 * pairs, "bytes"),
        "percolation.mask_s": (total("percolation.claimed_components"), "s"),
        "percolation.origin_cells": (mean(v.get("origin_cells", 0) for v in verdicts), "count"),
        "percolation.ball_s": (total("percolation.ball_components"), "s"),
        "percolation.components": (
            mean(s["n_components"] for s in scalars if is_boolean and "n_components" in s),
            "count"),
        "booleanmodel.build_s": (total("booleanmodel.build_boolean"), "s"),
        "booleanmodel.pairs": (pairs if is_boolean else 0.0, "count"),
        "booleanmodel.truncated_share": (
            mean(s["truncated_share"] for s in scalars if "truncated_share" in s), "share"),
        "booleanmodel.tail_s": (sum(s[2] - s[1] for s in tail), "s"),
        "geometry.sample_s": (total("geometry.sample_poisson"), "s"),
        "appetite.sample_s": (total("appetite.sample_appetites"), "s"),
        "bounds.s": (total("bounds.finiteness_threshold") + total("bounds.classify_phase"), "s"),
        "op.mean_s": (sum(op["latency_s"] for op in rec["ops"]) / n, "s"),
        "ref.p50_s": (statistics.median(op["ref_s"] for op in rec["ops"]), "s"),
        "op.fail_share": (sum(bool(v["failures"]) for v in verdicts) / n, "share"),
        "trace.overhead_share": (overhead, "share"),
    })
    return metrics


def run_failures(passes: list) -> list[str]:
    """Failures of the run as a whole: a failed tail statistic, or passes of
    the same seed that disagree on an op both ran."""
    out = []
    for rec, _, _ in passes:
        tail = rec["tail"]
        if tail and tail["error"]:
            out.append(f"[{tail['error']['module']}] tail_statistics: "
                       f"{tail['error']['type']}: {tail['error']['message']}")
    if len(passes) == 2:
        (_, _, va), (_, _, vb) = passes
        differ = [x["i"] for x, y in zip(va, vb) if x["digest"] != y["digest"]]
        if differ:
            out.append(f"[benchmark] untraced and traced passes differ on ops {differ}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "allocperc" / "__init__.py").is_file():
        print(f"error: no allocperc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in SPEC["workloads"]:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(SPEC['workloads'])}", file=sys.stderr)
        return 2
    import_library()
    OUT.mkdir(exist_ok=True)
    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))

    setup = setup_seconds(args.workload) if not args.trace else []
    shares = [args.seconds / 2, args.seconds / 2] if args.trace else [args.seconds]
    passes = []
    for seconds, traced in zip(shares, (False, True)):
        rec, arrays = run_pass(args.workload, args.seed, seconds, traced)
        passes.append((rec, arrays, check_pass(args.workload, rec, arrays)))
    e2e = [end_to_end(rec, verdicts) for rec, _, verdicts in passes]

    verdicts = [v for _, _, vs in passes for v in vs]
    failures = [(rec["traced"], v["i"], f)
                for rec, _, vs in passes for v in vs for f in v["failures"]]
    whole_run = run_failures(passes)
    unknown = [f for _, _, f in failures if f[2] is None] + whole_run
    attempted = len(verdicts)
    failed = sum(bool(v["failures"]) for v in verdicts)
    run_digest = hashlib.sha256("".join(v["digest"] for v in passes[0][2]).encode()).hexdigest()
    tally = Counter(f[2] or "UNKNOWN" for _, _, f in failures)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{failed} failed (fail_share {failed / attempted:.4f}; "
          f"{', '.join(f'{k} x{n}' for k, n in sorted(tally.items())) or 'none'}); "
          f"digest of ops 0-{len(passes[0][2]) - 1}: {run_digest[:16]}")
    for traced, i, (module, reason, defect) in failures:
        print(f"  failed {'traced' if traced else 'untraced'} op {i} [{module}] "
              f"{defect or 'UNKNOWN'}: {reason}")
    for reason in whole_run:
        print(f"  failed run {reason}")

    plain = e2e[0]
    print(f"end-to-end (untraced, {len(passes[0][0]['ops'])} ops, "
          f"{passes[0][0]['loop_s']:.2f} s loop with the reference kernel): "
          f"op_mean_ref {plain['op_mean_ref']:.4f}, op_p50_ref {plain['op_p50_ref']:.4f}, "
          f"op_mean_s {plain['op_mean_s']:.4f} s, op_p50_s {plain['op_p50_s']:.4f} s, "
          f"reference p50 {plain['ref_p50_s']:.4f} s, "
          f"peak_rss_mb {plain['peak_rss_mb']:.1f} MB, fail_share {plain['fail_share']:.4f}"
          + (f", setup_s {statistics.median(setup):.4f} s (median of {len(setup)})"
             if setup else ""))
    if args.trace:
        overhead = 1.0 - e2e[0]["op_mean_ref"] / e2e[1]["op_mean_ref"]
        layer = per_layer(passes[1][0], passes[1][2], overhead)
        op_s = layer["op.mean_s"][0]
        print(f"traced pass: {len(passes[1][0]['ops'])} ops, mean op {op_s:.4f} s, "
              f"op_mean_ref {e2e[1]['op_mean_ref']:.4f}, tracing overhead {overhead:+.4f}")
        calls = Counter(s[0].split(".")[0] for s in passes[1][0]["spans"] if s[4] != "tail")
        for m in MODULES:
            self_s = layer[f"{m}.self_s"][0]
            print(f"  {m:<13} self {self_s:.4f} s/op ({self_s / op_s:6.1%} of op), "
                  f"{calls[m] / len(passes[1][0]['ops']):g} calls/op, "
                  f"failed {layer[f'{m}.failed'][0]}")
        metrics = layer
    else:
        metrics = {k: (plain[k], u) for k, u in
                   (("op_mean_ref", "ref"), ("op_p50_ref", "ref"), ("peak_rss_mb", "MB"))}
        metrics["setup_s"] = (statistics.median(setup), "s")

    result = {"correct": not unknown, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"args": vars(args), "machine": machine, "setup_s": setup, "end_to_end": e2e,
              "digest": run_digest, "verdicts": [vs for _, _, vs in passes],
              "run_failures": whole_run, "result": result}
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
