"""Per-layer probes: isoqec's public functions wrapped at their call sites.

Each wrapper is installed on the module that looks the name up, not only
where the function is defined: codesim imports ``sample_states`` and
``mc_mean`` from sampler, so those spans are placed on ``codesim``;
mathcore reaches QUADPACK through its own ``scipy`` global, so that
global is swapped for a namespace whose ``integrate.quad`` is timed.
Nothing under ``src/`` changes, and ``instrument`` puts every original
attribute back when it exits.

Counts marked "computed" come from array shapes (normals drawn, state
bytes); they repeat exactly for a fixed configuration but say nothing
about cache behaviour.
"""

from __future__ import annotations

import functools
import types
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np
import scipy.integrate

from isoqec import cli, codesim, distributions, experiments, mathcore, sampler

from spans import Recorder, Span, covered_time, self_times

# name -> (unit, better, kind); kind is "timing", "count", "computed" or
# "ratio".  Timings ending in _s are inclusive span time summed over
# calls and threads; full_report_self_s excludes child spans.
LAYER_METRICS = {
    "mathcore.quad_calls": ("count", "lower", "count"),
    "mathcore.quad_neval": ("count", "lower", "count"),
    "mathcore.quad_s": ("s", "lower", "timing"),
    "mathcore.quad_failures": ("count", "lower", "count"),
    "distributions.density_builds": ("count", "lower", "count"),
    "distributions.density_build_s": ("s", "lower", "timing"),
    "distributions.marginal_builds": ("count", "lower", "count"),
    "distributions.marginal_build_s": ("s", "lower", "timing"),
    "distributions.marginal_nodes": ("count", "lower", "count"),
    "distributions.expectation_calls": ("count", "lower", "count"),
    "distributions.expectation_s": ("s", "lower", "timing"),
    "closedform.full_report_calls": ("count", "lower", "count"),
    "closedform.full_report_self_s": ("s", "lower", "timing"),
    "sampler.mc_mean_calls": ("count", "lower", "count"),
    "sampler.chunks": ("count", "lower", "count"),
    "sampler.chunk_busy_s": ("s", "lower", "timing"),
    "sampler.sample_states_s": ("s", "lower", "timing"),
    "sampler.theta_s": ("s", "lower", "timing"),
    "sampler.direction_s": ("s", "lower", "timing"),
    "sampler.normals_drawn": ("count", "lower", "computed"),
    "sampler.uniforms_drawn": ("count", "lower", "computed"),
    "sampler.state_bytes_max": ("B", "lower", "computed"),
    "codesim.raw_mc_s": ("s", "lower", "timing"),
    "codesim.corrected_mc_s": ("s", "lower", "timing"),
    "codesim.reduce_s": ("s", "lower", "timing"),
    "experiments.run_sweep_s": ("s", "lower", "timing"),
    "experiments.closed_form_rows_s": ("s", "lower", "timing"),
    "experiments.verify_appendix_s": ("s", "lower", "timing"),
    "experiments.verify_theorems_s": ("s", "lower", "timing"),
    "experiments.emit_figure2_s": ("s", "lower", "timing"),
    "experiments.io_s": ("s", "lower", "timing"),
    "cli.main_s": ("s", "lower", "timing"),
    "trace.overhead_frac": ("fraction", "lower", "ratio"),
    "trace.mc_coverage_frac": ("fraction", "higher", "ratio"),
}


def _wrap(rec: Recorder, name: str, fn, note=None):
    """fn inside a span; note(attrs, out) records counts from the result."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as s:
            out = fn(*args, **kwargs)
            if note is not None:
                note(s.attrs, out)
            return out
    return wrapper


def _wrap_mc_mean(rec: Recorder, fn):
    # chunks may run on pool threads whose span stack is empty, so each
    # chunk names the mc_mean span as its parent explicitly
    @functools.wraps(fn)
    def wrapper(value_fn, *args, **kwargs):
        with rec.span("sampler.mc_mean") as parent:
            def chunk_fn(rng, count):
                with rec.span("sampler.chunk", parent=parent):
                    return value_fn(rng, count)
            return fn(chunk_fn, *args, **kwargs)
    return wrapper


def _timed_quad(rec: Recorder):
    quad = scipy.integrate.quad

    def note(attrs, out):
        # adaptive_quadrature always asks for full_output; a fourth item
        # is QUADPACK's convergence warning, which it raises on
        attrs["neval"] = out[2]["neval"]
        attrs["failed"] = len(out) > 3

    timed = _wrap(rec, "mathcore.quad", quad, note)
    return types.SimpleNamespace(integrate=types.SimpleNamespace(quad=timed))


def _set_attr(module, attr: str, value):
    original = getattr(module, attr)
    setattr(module, attr, value)
    return lambda: setattr(module, attr, original)


@contextmanager
def instrument(rec: Recorder):
    """Install every probe for the duration of one traced iteration."""
    w = functools.partial(_wrap, rec)
    patches = [
        (cli, "main", w("cli.main", cli.main)),
        (cli, "run_sweep", w("experiments.run_sweep", cli.run_sweep)),
        (cli, "closed_form_rows",
         w("experiments.closed_form_rows", cli.closed_form_rows)),
        (cli, "verify_appendix",
         w("experiments.verify_appendix", cli.verify_appendix)),
        (cli, "verify_theorems",
         w("experiments.verify_theorems", cli.verify_theorems)),
        (cli, "emit_figure2", w("experiments.emit_figure2", cli.emit_figure2)),
        # the benchmark's own calls look these up on experiments
        (experiments, "run_sweep",
         w("experiments.run_sweep", experiments.run_sweep)),
        (experiments, "closed_form_rows",
         w("experiments.closed_form_rows", experiments.closed_form_rows)),
        (experiments, "full_report",
         w("closedform.full_report", experiments.full_report)),
        (experiments, "raw_fidelity_mc",
         w("codesim.raw_fidelity_mc", experiments.raw_fidelity_mc)),
        (experiments, "corrected_fidelity_mc",
         w("codesim.corrected_fidelity_mc",
           experiments.corrected_fidelity_mc)),
        (experiments, "write_csv",
         w("experiments.write_csv", experiments.write_csv)),
        (experiments, "write_json_report",
         w("experiments.write_json_report", experiments.write_json_report)),
        (codesim, "mc_mean", _wrap_mc_mean(rec, codesim.mc_mean)),
        (codesim, "sample_states",
         w("sampler.sample_states", codesim.sample_states,
           lambda a, out: a.update(nbytes=out.nbytes))),
        (sampler, "sample_theta0",
         w("sampler.sample_theta0", sampler.sample_theta0,
           lambda a, out: a.update(uniforms=np.size(out)))),
        (sampler, "sample_uniform_direction",
         w("sampler.sample_uniform_direction",
           sampler.sample_uniform_direction,
           lambda a, out: a.update(normals=np.size(out)))),
        (distributions, "marginal_polar",
         w("distributions.marginal_polar", distributions.marginal_polar,
           lambda a, out: a.update(nodes=out.theta.size))),
        # classes are looked up where they are defined; dataclass __init__
        # calls __post_init__ (the normalization quadrature) by attribute
        (distributions.IsotropicDensity, "__post_init__",
         w("distributions.density_build",
           distributions.IsotropicDensity.__post_init__)),
        (distributions.PolarMarginal, "expectation",
         w("distributions.expectation",
           distributions.PolarMarginal.expectation)),
        (mathcore, "scipy", _timed_quad(rec)),
    ]
    with ExitStack() as stack:
        for module, attr, value in patches:
            stack.callback(_set_attr(module, attr, value))
        yield rec


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == name:
            return True
    return False


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced iteration, keyed as LAYER_METRICS.

    trace.overhead_frac needs the paired untraced wall time and is filled
    in by the caller.
    """
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    reduce_s = 0.0
    for chunk in by_name["sampler.chunk"]:
        if _has_ancestor(chunk, "codesim.corrected_fidelity_mc", by_id):
            inner = sum(s.duration for s in by_name["sampler.sample_states"]
                        if s.parent == chunk.id)
            reduce_s += chunk.duration - inner

    mc_spans = [s for s in spans
                if s.name.startswith(("sampler.", "codesim."))]
    return {
        "mathcore.quad_calls": len(by_name["mathcore.quad"]),
        "mathcore.quad_neval": attr_sum("mathcore.quad", "neval"),
        "mathcore.quad_s": total("mathcore.quad"),
        "mathcore.quad_failures": attr_sum("mathcore.quad", "failed"),
        "distributions.density_builds":
            len(by_name["distributions.density_build"]),
        "distributions.density_build_s": total("distributions.density_build"),
        "distributions.marginal_builds":
            len(by_name["distributions.marginal_polar"]),
        "distributions.marginal_build_s":
            total("distributions.marginal_polar"),
        "distributions.marginal_nodes":
            attr_sum("distributions.marginal_polar", "nodes"),
        "distributions.expectation_calls":
            len(by_name["distributions.expectation"]),
        "distributions.expectation_s": total("distributions.expectation"),
        "closedform.full_report_calls":
            len(by_name["closedform.full_report"]),
        "closedform.full_report_self_s":
            sum(selfs[s.id] for s in by_name["closedform.full_report"]),
        "sampler.mc_mean_calls": len(by_name["sampler.mc_mean"]),
        "sampler.chunks": len(by_name["sampler.chunk"]),
        "sampler.chunk_busy_s": total("sampler.chunk"),
        "sampler.sample_states_s": total("sampler.sample_states"),
        "sampler.theta_s": total("sampler.sample_theta0"),
        "sampler.direction_s": total("sampler.sample_uniform_direction"),
        "sampler.normals_drawn":
            attr_sum("sampler.sample_uniform_direction", "normals"),
        "sampler.uniforms_drawn": attr_sum("sampler.sample_theta0",
                                           "uniforms"),
        "sampler.state_bytes_max":
            max((s.attrs.get("nbytes", 0)
                 for s in by_name["sampler.sample_states"]), default=0),
        "codesim.raw_mc_s": total("codesim.raw_fidelity_mc"),
        "codesim.corrected_mc_s": total("codesim.corrected_fidelity_mc"),
        "codesim.reduce_s": reduce_s,
        "experiments.run_sweep_s": total("experiments.run_sweep"),
        "experiments.closed_form_rows_s":
            total("experiments.closed_form_rows"),
        "experiments.verify_appendix_s": total("experiments.verify_appendix"),
        "experiments.verify_theorems_s": total("experiments.verify_theorems"),
        "experiments.emit_figure2_s": total("experiments.emit_figure2"),
        "experiments.io_s": (total("experiments.write_csv")
                             + total("experiments.write_json_report")),
        "cli.main_s": total("cli.main"),
        "trace.mc_coverage_frac": covered_time(mc_spans) / wall_s,
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name, largest first."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s.name] += selfs[s.id]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
