"""The benchmark's probes still fit the package.

bench/probes.py wraps package functions by attribute name, so deleting
or renaming one of them breaks traced benchmark runs.  Entering and
leaving the probes here catches that in the test suite.
"""

import sys
from pathlib import Path

import scipy

from isoqec import cli, codesim, distributions, experiments, mathcore, sampler

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import probes  # noqa: E402
from spans import Recorder  # noqa: E402

PATCHED = (cli, codesim, distributions, experiments, mathcore, sampler,
           distributions.IsotropicDensity, distributions.PolarMarginal)


def test_instrument_patches_and_restores_every_attribute():
    before = [dict(vars(owner)) for owner in PATCHED]
    with probes.instrument(Recorder(run_id=0)):
        assert mathcore.scipy is not scipy
        assert codesim.sample_states is not sampler.sample_states
    after = [dict(vars(owner)) for owner in PATCHED]
    for owner, old, new in zip(PATCHED, before, after):
        assert old.keys() == new.keys(), owner
        changed = [k for k in old if old[k] is not new[k]]
        assert changed == [], (owner, changed)
