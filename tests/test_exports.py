"""Every name a package module exports resolves.

A stale ``__all__`` entry breaks ``from isoqec.<module> import *`` only
when someone runs it, so each module is star-imported here.
"""

import importlib
import pkgutil

import isoqec


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
