"""Monte Carlo estimates of the raw and the corrected fidelity, one job each.

Each estimator is mc_mean of a sampler for the law that run_sweep
estimates: the raw fidelity keeps e0 plus one real coordinate
(raw_sampler with the one law d), and the corrected one, averaged over
syndromes in closed form, e0 plus 2 d'' - 1 (each block's first
amplitude; fidelity_sampler).  No command calls them.
They stay because bench/probes.py wraps them, and mc_mean and
sample_states, by name here; tests/test_codesim.py checks each against
its mc_means job, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from .distributions import CodeParams
# bench/probes.py wraps mc_mean and sample_states under these names here
from .sampler import (  # noqa: F401
    McEstimate,
    RngStreams,
    fidelity_sampler,
    mc_mean,
    raw_sampler,
    sample_states,
)

__all__ = ["raw_fidelity_mc", "corrected_fidelity_mc"]


def raw_fidelity_mc(d: int, sigmas: Sequence[float], n_samples: int,
                    streams: RngStreams, *,
                    workers: int = 1) -> tuple[McEstimate, ...]:
    """Monte Carlo squared fidelity of the raw perturbed state, per sigma."""
    # the second coordinate is the only one kept beside e0
    return mc_mean(raw_sampler([(d, sigmas)]), n_samples, streams,
                   workers=workers)


def corrected_fidelity_mc(params: CodeParams, sigmas: Sequence[float],
                          n_samples: int, streams: RngStreams, *,
                          workers: int = 1) -> tuple[McEstimate, ...]:
    """Monte Carlo squared fidelity after syndrome measurement and
    recovery, per sigma, averaged over syndromes in closed form."""
    # each block's first amplitude: e0 plus 2 d'' - 1 coordinates
    return mc_mean(fidelity_sampler(params.d, 2 * params.d_dprime - 1,
                                    sigmas), n_samples, streams,
                   workers=workers)
