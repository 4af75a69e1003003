"""Monte Carlo estimates of the raw and the corrected fidelity.

The encoded space splits into ``d_dprime`` blocks of ``d_prime`` complex
dimensions each.  Measuring the syndrome projects onto one block;
recovery relabels that block as the logical space, so the corrected
fidelity is the squared magnitude of the block's first amplitude after
renormalization.  Averaged over syndromes in closed form, that is the
squared mass on the d'' first amplitudes, i.e. on e0 plus 2d''-1 other
real coordinates, which sampler.fidelity_sampler draws without building
the state: four variates per sample here, and three for the raw
estimate's mass on e0 plus one coordinate.  tests/oracle.py keeps the
geometric route, which builds full states and draws one syndrome each.

Both estimators take a sequence of sigmas of the normal density and
return one estimate per sigma, all evaluated on one shared draw per
chunk, so a whole sigma grid costs one draw; estimate j is
bit-identical to a one-sigma call at sigmas[j].
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
    sample_states,
)

__all__ = ["raw_fidelity_mc", "corrected_fidelity_mc"]


def raw_fidelity_mc(d: int, sigmas: Sequence[float], n_samples: int,
                    streams: RngStreams, *,
                    workers: int = 1) -> tuple[McEstimate, ...]:
    """Monte Carlo squared fidelity of the raw perturbed state, per sigma."""
    # the second coordinate is the only one kept beside e0
    return mc_mean(fidelity_sampler(d, 1, sigmas), n_samples, streams,
                   workers=workers)


def corrected_fidelity_mc(params: CodeParams, sigmas: Sequence[float],
                          n_samples: int, streams: RngStreams, *,
                          workers: int = 1) -> tuple[McEstimate, ...]:
    """Monte Carlo squared fidelity after syndrome measurement and
    recovery, per sigma, averaged over syndromes in closed form."""
    # each block's first amplitude: e0 plus 2 d'' - 1 coordinates
    return mc_mean(fidelity_sampler(params.d, 2 * params.d_dprime - 1,
                                    sigmas),
                   n_samples, streams, workers=workers)
