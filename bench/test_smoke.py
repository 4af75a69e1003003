"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

One code, one sigma and 1000 samples per estimate.  Every metric that
BENCHMARK.json names must appear with its unit, and a traced iteration
must write a CSV byte-identical to an untraced one at the same seed,
which shows that the probes do not change how the RNG streams are
consumed.  These tests stay out of the tier-1 suite (testpaths = tests).
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import scipy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, self_times  # noqa: E402

from isoqec import codesim, mathcore, sampler  # noqa: E402
from isoqec.experiments import DEFAULT_SIGMA_GRID, FIGURE_CODES  # noqa: E402

TINY = {w.name: w for w in (
    workloads.McSweep("mc-sweep", ((3, 1),), (0.6,), n_samples=1000,
                      workers=2),
    # the figure check needs both figure codes over the default grid
    workloads.ClosedFormGrid("closed-form-grid", FIGURE_CODES,
                             DEFAULT_SIGMA_GRID),
    workloads.LargeCode("large-code", ((6, 1),), (0.95,), n_samples=1000),
)}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tiny_workloads_mirror_the_real_ones():
    assert set(TINY) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for name, tiny in TINY.items():
        assert type(tiny) is type(workloads.WORKLOADS[name])


def test_benchmark_json_matches_the_metric_tables():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == {k: v[:2] for k, v in run.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == {k: v[:2] for k, v in probes.LAYER_METRICS.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_appears_with_its_unit(name, tmp_path):
    record = run.run_workload(TINY[name], seed=3, seconds=0, trace=True,
                              scratch=tmp_path)
    assert record["checks"]["failed"] == 0, record["checks"]["failures"]
    assert record["checks"]["attempted"] > 0
    assert record["iterations"] == {"untraced": 1, "traced": 1}
    for group, metrics in (("end_to_end", SPEC["end_to_end"]),
                           ("per_layer", SPEC["per_layer"])):
        for m in metrics:
            entry = record[group][m["name"]]
            assert entry["unit"] == m["unit"], m["name"]
            assert isinstance(entry["value"], (int, float)), m["name"]
    for m in SPEC["end_to_end"]:
        assert record["end_to_end"][m["name"]]["value"] > 0, m["name"]
    assert record["end_to_end"]["failed_ops_frac"]["value"] == 0
    rate = ("closed_form_cells_per_s" if name == "closed-form-grid"
            else "mc_samples_per_s")
    assert record["end_to_end"][rate]["value"] > 0
    for key in ("git_commit", "python", "numpy", "scipy", "nproc", "seed",
                "chunk_size", "workers"):
        assert key in record["provenance"], key
    for trace in (False, True):
        line = run._result_metrics(record, trace)
        names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(line) == {m["name"] for m in names}


@pytest.mark.parametrize("name", ["mc-sweep", "large-code"])
def test_traced_csv_is_byte_identical(name, tmp_path):
    tiny = TINY[name]
    checks = workloads.Checks()
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = tiny.check(tiny.run(5, plain_dir), checks)
    rec = Recorder(run_id=0)
    with probes.instrument(rec):
        traced = tiny.check(tiny.run(5, traced_dir), checks)
    assert checks.failures == []
    assert plain == traced
    names = {s.name for s in rec.spans}
    assert {"sampler.chunk", "sampler.sample_states",
            "codesim.corrected_fidelity_mc", "mathcore.quad"} <= names
    # every probe is taken out again
    assert codesim.mc_mean is sampler.mc_mean
    assert codesim.sample_states is sampler.sample_states
    assert mathcore.scipy is scipy


def test_chunk_spans_on_pool_threads_need_an_explicit_parent():
    rec = Recorder(run_id=7)
    with rec.span("outer") as outer:
        def work(parent):
            with rec.span("chunk", parent=parent):
                time.sleep(0.01)
        threads = [threading.Thread(target=work, args=(p,))
                   for p in (outer, outer, None)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    chunks = [s for s in rec.spans if s.name == "chunk"]
    assert sorted(s.parent or 0 for s in chunks) == [0, outer.id, outer.id]
    assert all(s.run == 7 for s in rec.spans)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [Span(1, "mc_mean", None, 1, 0, 0.0, 10.0),
             Span(2, "chunk", 1, 2, 0, 1.0, 4.0),
             Span(3, "chunk", 1, 3, 0, 2.0, 6.0),
             Span(4, "sample_states", 2, 2, 0, 1.5, 3.5)]
    assert self_times(spans) == {1: 5.0, 2: 1.0, 3: 4.0, 4: 2.0}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "mc-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
