"""Every name a package module exports resolves, and the Monte Carlo
entry points keep their parameters.

A stale ``__all__`` entry breaks ``from isoqec.<module> import *`` only
when someone runs it, so each module is star-imported here.
"""

import importlib
import inspect
import pkgutil

import isoqec
from isoqec.sampler import (
    DEFAULT_CHUNK_SIZE,
    fidelity_sampler,
    mc_mean,
    mc_means,
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
        ("d", empty), ("kept", empty), ("sigmas", empty), ("scratch", None)]
    assert params(mc_means) == [
        ("jobs", empty), ("n_samples", empty),
        ("chunk_size", DEFAULT_CHUNK_SIZE), ("workers", 1)]
    assert params(mc_mean) == [
        ("value_fn", empty), ("n_samples", empty), ("streams", empty),
        ("chunk_size", DEFAULT_CHUNK_SIZE), ("workers", 1)]
