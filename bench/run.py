"""isoqec benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload mc-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from anywhere; the program is imported from the ``src/`` directory
next to this one, never from an installed copy, and the run fails with
exit 2 if that directory holds no isoqec sources.

A run first measures set-up (a fresh interpreter importing isoqec and
building the workload's config, several times, median), then repeats the
workload for --seconds with tracing off.  With --trace 1 every untraced
iteration is followed by a traced one at the same seed: the probes give
the per-layer numbers and the pair gives the tracing overhead.  Outputs
are checked after each iteration, outside the timed region.  With
--workload all each workload runs in its own process.

Standard output ends with a table of every metric, one JSON line holding
the full record (metrics with unit and kind, checks, provenance), and a
last JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5

# name -> (unit, better, kind)
END_TO_END = {
    "setup_s": ("s", "lower", "timing"),
    "wall_s": ("s", "lower", "timing"),
    "peak_rss_mb": ("MB", "lower", "memory"),
}
# printed in the record but left out of BENCHMARK.json and the result
# line, because they do not apply to every workload or are zero on a
# healthy run
RECORD_ONLY = {
    "mc_samples_per_s": ("1/s", "higher", "rate"),
    "closed_form_cells_per_s": ("1/s", "higher", "rate"),
    "failed_ops_frac": ("fraction", "lower", "ratio"),
}

# imports plus config, timed inside a fresh interpreter
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import isoqec.cli
from isoqec.experiments import SweepConfig
config = json.loads(sys.argv[2])
if config is not None:
    SweepConfig(**config)
print(time.perf_counter() - t0)
"""


def measure_setup(workload, seed: int) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters.

    The median also drops the one start that byte-compiles the sources
    on the first run in a checkout.
    """
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC),
            json.dumps(workload.setup_config(seed))]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(argv, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    import isoqec
    from isoqec.sampler import DEFAULT_CHUNK_SIZE

    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "git_commit": commit,
        "isoqec": getattr(isoqec, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "chunk_size": DEFAULT_CHUNK_SIZE,
        "workers": workload.workers,
        "n_samples": workload.n_samples,
        "cells": workload.n_cells,
    }


def _iteration(workload, seed: int, scratch: Path, checks,
               timed_parts: dict):
    """Run once in a fresh directory; wall time and CSV bytes (or None)."""
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = workload.run(seed, workdir)
        except Exception as exc:  # any exception is a failed operation
            wall = time.perf_counter() - t0
            checks.check(False, f"{type(exc).__name__}: {exc}")
            return wall, None
        wall = time.perf_counter() - t0
        timed_parts.update(out.pop("timed", {}))
        try:
            return wall, workload.check(out, checks)
        except Exception as exc:
            checks.check(False, f"checking outputs: "
                                f"{type(exc).__name__}: {exc}")
            return wall, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, seed: int, seconds: float, trace: bool,
            scratch: Path) -> dict:
    import probes
    from spans import Recorder
    from workloads import Checks

    checks = Checks()
    walls, traced_walls, layers, selfs = [], [], [], []
    parts: dict[str, list[float]] = {}
    first_csv = None

    def same_csv(csv, what):
        nonlocal first_csv
        if csv is None:
            return
        if first_csv is None:
            first_csv = csv
        else:
            checks.check(csv == first_csv,
                         f"{what} CSV differs from the first iteration's")

    begin = time.perf_counter()
    while True:
        timed = {}
        wall, csv = _iteration(workload, seed, scratch, checks, timed)
        walls.append(wall)
        for k, v in timed.items():
            parts.setdefault(k, []).append(v)
        same_csv(csv, "untraced")
        if trace:
            rec = Recorder(run_id=len(traced_walls))
            with probes.instrument(rec):
                twall, tcsv = _iteration(workload, seed, scratch, checks,
                                         {})
            traced_walls.append(twall)
            layer = probes.layer_metrics(rec.spans, twall)
            layer["trace.overhead_frac"] = twall / wall - 1.0
            layers.append(layer)
            selfs.append(probes.self_time_by_name(rec.spans))
            same_csv(tcsv, "traced")
        elapsed = time.perf_counter() - begin
        groups = len(walls)
        if elapsed * (groups + 1) / groups > seconds:
            break

    wall_s = statistics.median(walls)
    e2e = {
        "wall_s": wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record_only = {
        "failed_ops_frac": len(checks.failures) / max(checks.attempted, 1),
    }
    if workload.mc_samples:
        record_only["mc_samples_per_s"] = workload.mc_samples / wall_s
    if "closed_form_rows_s" in parts:
        record_only["closed_form_cells_per_s"] = (
            workload.n_cells / statistics.median(parts["closed_form_rows_s"]))
    result = {
        "iterations": {"untraced": len(walls), "traced": len(traced_walls)},
        "wall_samples_s": walls,
        "end_to_end": e2e,
        "record_only": record_only,
        "checks": checks,
    }
    if trace:
        result["per_layer"] = {
            name: statistics.median(run[name] for run in layers)
            for name in probes.LAYER_METRICS}
        result["self_s"] = {
            name: statistics.median(run.get(name, 0.0) for run in selfs)
            for name in selfs[0]}
        result["traced_wall_samples_s"] = traced_walls
    return result


def _entry(value, spec) -> dict:
    unit, better, kind = spec
    return {"value": value, "unit": unit, "better": better, "kind": kind}


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> dict:
    """Full record of one workload run; outputs go under scratch."""
    import probes

    setup_s = measure_setup(workload, seed)
    m = measure(workload, seed, seconds, trace, scratch)
    checks = m.pop("checks")
    e2e = dict(setup_s=setup_s, **m.pop("end_to_end"))
    metrics = {name: _entry(e2e[name], END_TO_END[name]) for name in e2e}
    metrics.update({name: _entry(value, RECORD_ONLY[name])
                    for name, value in m.pop("record_only").items()})
    record = {
        "workload": workload.name,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(workload, seed),
        "end_to_end": metrics,
        "checks": {"attempted": checks.attempted,
                   "failed": len(checks.failures),
                   "failures": checks.failures[:20]},
        **m,
    }
    if trace:
        record["per_layer"] = {
            name: _entry(value, probes.LAYER_METRICS[name])
            for name, value in record["per_layer"].items()}
    return record


def _table(record: dict) -> list[str]:
    lines = [f"# {record['workload']}: "
             f"{record['iterations']['untraced']} untraced, "
             f"{record['iterations']['traced']} traced iterations; "
             f"checks {record['checks']['attempted']} attempted, "
             f"{record['checks']['failed']} failed"]
    for group in ("end_to_end", "per_layer"):
        for name, e in record.get(group, {}).items():
            lines.append(f"{name:36s} {e['value']:>16.6g} {e['unit']:9s} "
                         f"{e['kind']}")
    for failure in record["checks"]["failures"]:
        lines.append(f"FAILED: {failure}")
    return lines


def _result_metrics(record: dict, trace: bool) -> dict:
    if trace:
        chosen = record["per_layer"]
    else:
        chosen = {k: record["end_to_end"][k] for k in END_TO_END}
    return {k: {"value": e["value"], "unit": e["unit"]}
            for k, e in chosen.items()}


def _run_child(name: str, args) -> dict:
    """One workload in its own process, so peak RSS and caches stay its own."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace",
         str(args.trace)],
        capture_output=True, text=True, check=True,
        timeout=2 * args.seconds + 600)
    return json.loads(out.stdout.splitlines()[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="mc-sweep, closed-form-grid, large-code or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "isoqec" / "__init__.py").is_file():
        print(f"error: no isoqec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    chosen = WORKLOADS.get(args.workload)
    if chosen is None and args.workload != "all":
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or all")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    trace = bool(args.trace)
    if args.workload == "all":
        records = [_run_child(name, args) for name in WORKLOADS]
    else:
        scratch = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT))
        try:
            records = [run_workload(chosen, args.seed, args.seconds, trace,
                                    scratch)]
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    for record in records:
        print("\n".join(_table(record)))
    for record in records:
        print(json.dumps(record))
    attempted = sum(r["checks"]["attempted"] for r in records)
    failed = sum(r["checks"]["failed"] for r in records)
    if len(records) == 1:
        metrics = _result_metrics(records[0], trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in _result_metrics(r, trace).items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
