"""Every name a package module exports resolves, the Monte Carlo entry
points keep their parameters, and the tests reach Monte Carlo only
through mc_means.

A stale ``__all__`` entry breaks ``from isoqec.<module> import *`` only
when someone runs it, so each module is star-imported here.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import isoqec
from isoqec.sampler import (
    DEFAULT_CHUNK_SIZE,
    fidelity_sampler,
    mc_mean,
    mc_means,
    raw_sampler,
)


def test_every_exported_name_resolves():
    modules = sorted(info.name
                     for info in pkgutil.iter_modules(isoqec.__path__))
    exporting = []
    for name in modules:
        module = importlib.import_module(f"isoqec.{name}")
        if not hasattr(module, "__all__"):
            continue
        exporting.append(name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], (name, missing)
        namespace = {}
        exec(f"from isoqec.{name} import *", namespace)
        assert set(module.__all__) <= set(namespace), name
    assert exporting, "no isoqec module declares __all__"


def test_monte_carlo_signatures_are_pinned():
    # a new knob on the Monte Carlo path shows up here as a test change
    def params(fn):
        return [(p.name, p.default)
                for p in inspect.signature(fn).parameters.values()]

    empty = inspect.Parameter.empty
    assert params(fidelity_sampler) == [
        ("d", empty), ("kept", empty), ("sigmas", empty)]
    assert params(raw_sampler) == [("laws", empty)]
    assert params(mc_means) == [
        ("jobs", empty), ("n_samples", empty),
        ("chunk_size", DEFAULT_CHUNK_SIZE), ("workers", 1)]
    assert params(mc_mean) == [
        ("value_fn", empty), ("n_samples", empty), ("streams", empty),
        ("workers", 1)]


# the one-job route that only bench/probes.py still needs: codesim's
# estimators over mc_mean.  test_probes.py checks the probes' names,
# test_codesim.py checks the route against mc_means, and this file pins
# mc_mean's signature; no other test may use it, so deleting the route
# touches no other test
ONE_JOB_ROUTE = re.compile(
    r"\bcodesim\b|raw_fidelity_mc|corrected_fidelity_mc|\bmc_mean\b")
ALLOWED = {"test_probes.py", "test_codesim.py", "test_exports.py"}


def test_tests_reach_monte_carlo_only_through_mc_means():
    naming = [f"{path.name}:{number}: {line.strip()}"
              for path in sorted(Path(__file__).parent.glob("*.py"))
              if path.name not in ALLOWED
              for number, line in enumerate(
                  path.read_text().splitlines(), 1)
              if ONE_JOB_ROUTE.search(line)]
    assert naming == [], "\n".join(naming)
