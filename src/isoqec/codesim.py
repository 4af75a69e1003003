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

Both estimators take a sequence of densities that share d and return
one estimate per density, all evaluated on one shared draw per chunk,
so a whole sigma grid costs one draw; estimate j is bit-identical to a
one-density call at densities[j].
"""

from __future__ import annotations

from typing import Sequence

from .distributions import CodeParams, IsotropicDensity
# bench/probes.py wraps mc_mean and sample_states under these names here
from .sampler import (  # noqa: F401
    McEstimate,
    RngStreams,
    fidelity_sampler,
    mc_mean,
    sample_states,
)

__all__ = ["raw_fidelity_mc", "corrected_fidelity_mc"]


def raw_fidelity_mc(densities: Sequence[IsotropicDensity], n_samples: int,
                    streams: RngStreams, *,
                    workers: int = 1) -> tuple[McEstimate, ...]:
    """Monte Carlo squared fidelity of the raw perturbed state, per density."""
    # the second coordinate is the only one kept beside e0
    return mc_mean(fidelity_sampler(densities, 1), n_samples, streams,
                   workers=workers)


def corrected_fidelity_mc(densities: Sequence[IsotropicDensity],
                          params: CodeParams, n_samples: int,
                          streams: RngStreams, *,
                          workers: int = 1) -> tuple[McEstimate, ...]:
    """Monte Carlo squared fidelity after syndrome measurement and
    recovery, per density, averaged over syndromes in closed form."""
    for density in densities:
        if density.d != params.d:
            raise ValueError(f"density has d={density.d}, "
                             f"expected {params.d}")
    # each block's first amplitude: e0 plus 2 d'' - 1 coordinates
    return mc_mean(fidelity_sampler(densities, 2 * params.d_dprime - 1),
                   n_samples, streams, workers=workers)
