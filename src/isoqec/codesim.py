"""Syndrome measurement and recovery on sampled states.

The encoded space splits into ``d_dprime`` blocks of ``d_prime`` complex
dimensions each.  Block ``j`` occupies real coordinates
``[2 d_prime j, 2 d_prime (j + 1))`` and its first complex amplitude sits
at real coordinates ``2 d_prime j`` and ``2 d_prime j + 1``.  Measuring
the syndrome projects onto one block; recovery relabels that block as the
logical space, so the corrected fidelity is the squared magnitude of the
block's first amplitude after renormalization.

Two Monte Carlo estimators of the corrected fidelity are provided.  The
block-sum form, corrected_fidelity_mc, averages over syndrome outcomes
analytically per sample and has the lower variance: summed over blocks,
the recovered fidelity is the squared mass on the d'' first amplitudes,
i.e. on e0 plus 2d''-1 other real coordinates, which
sampler.fidelity_sampler draws without building the state, reusing its
arrays from chunk to chunk: four variates per sample here, and three for
the raw estimate's mass on e0 plus one coordinate.  The sampled
form, syndrome_sampled_fidelity_mc, builds full states with
sampler.sample_states and draws an explicit syndrome per sample.  Both
are unbiased and are kept as independent routes to the same number.

All three estimators take a sequence of densities that share d and
return one estimate per density.  The raw and block-sum estimators
evaluate every density on one shared draw per chunk, so a whole sigma
grid costs one draw; the sampled form runs one estimate per density on
the same streams.  Either way estimate j is bit-identical to a
one-density call at densities[j].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import CodeParams, IsotropicDensity
from .sampler import (
    McEstimate,
    RngStreams,
    fidelity_sampler,
    mc_mean,
    sample_states,
)

__all__ = [
    "BlockCode",
    "raw_fidelity_mc",
    "corrected_fidelity_mc",
    "syndrome_sampled_fidelity_mc",
]


@dataclass(frozen=True)
class BlockCode:
    """Block layout of an encoded space."""

    params: CodeParams

    @property
    def n_blocks(self) -> int:
        return self.params.d_dprime

    @property
    def block_width(self) -> int:
        # real coordinates per block
        return 2 * self.params.d_prime

    def block_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Reshape real coordinates so axis -2 indexes blocks."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape[-1] != 2 * self.params.d:
            raise ValueError(
                f"expected {2 * self.params.d} real coordinates, "
                f"got {coords.shape[-1]}")
        return coords.reshape(*coords.shape[:-1],
                              self.n_blocks, self.block_width)


def _sampled_values(x: np.ndarray, code: BlockCode,
                    rng: np.random.Generator) -> np.ndarray:
    """Recovered fidelity of each row of x after one drawn syndrome.

    A syndrome j is drawn with the probability of block j; the value is the
    squared first amplitude of block j over that probability.
    """
    r = code.block_matrix(x)
    p = np.einsum("ijk,ijk->ij", r, r)
    u = rng.random(x.shape[0])
    idx = (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    idx = np.minimum(idx, code.n_blocks - 1)
    rows = np.arange(x.shape[0])
    num = r[rows, idx, 0] ** 2 + r[rows, idx, 1] ** 2
    p_sel = p[rows, idx]
    # zero-probability draws only arise from rounding at the boundary
    return np.divide(num, p_sel, out=np.zeros_like(num), where=p_sel > 0)


def _checked(densities: Sequence[IsotropicDensity],
             d: int) -> tuple[IsotropicDensity, ...]:
    densities = tuple(densities)
    if not densities:
        raise ValueError("need at least one density")
    for density in densities:
        if density.d != d:
            raise ValueError(f"density has d={density.d}, expected {d}")
    return densities


def raw_fidelity_mc(densities: Sequence[IsotropicDensity], n_samples: int,
                    streams: RngStreams, *,
                    workers: int = 1) -> tuple[McEstimate, ...]:
    """Monte Carlo squared fidelity of the raw perturbed state, per density."""
    # the second coordinate is the only one kept beside e0
    return mc_mean(fidelity_sampler(densities, 1), n_samples, streams,
                   workers=workers)


def corrected_fidelity_mc(densities: Sequence[IsotropicDensity],
                          code: BlockCode, n_samples: int,
                          streams: RngStreams, *,
                          workers: int = 1) -> tuple[McEstimate, ...]:
    """Monte Carlo squared fidelity after syndrome measurement and
    recovery, per density, averaged over syndromes in closed form."""
    densities = _checked(densities, code.params.d)
    # each block's first amplitude: e0 plus 2 d'' - 1 coordinates
    return mc_mean(fidelity_sampler(densities, 2 * code.n_blocks - 1),
                   n_samples, streams, workers=workers)


def syndrome_sampled_fidelity_mc(densities: Sequence[IsotropicDensity],
                                 code: BlockCode, n_samples: int,
                                 streams: RngStreams
                                 ) -> tuple[McEstimate, ...]:
    """corrected_fidelity_mc with one drawn syndrome per full state.

    The geometric reference route: one estimate per density, each on
    the same streams.
    """
    densities = _checked(densities, code.params.d)

    def sampled_fn(density: IsotropicDensity):
        def value_fn(rng: np.random.Generator, count: int) -> np.ndarray:
            # states consume the stream first, then the syndrome draws
            x = sample_states(density, count, rng)
            return _sampled_values(x, code, rng)
        return value_fn

    return tuple(est for density in densities
                 for est in mc_mean(sampled_fn(density), n_samples, streams))
