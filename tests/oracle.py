"""Syndrome sampling on full states: the tests' geometric reference for
the corrected fidelity, which the sweep samples as a block sum without
building states (fidelity_sampler keeping 2 d'' - 1 coordinates).

The encoded space splits into ``d_dprime`` blocks of ``d_prime`` complex
dimensions each.  Block ``j`` occupies real coordinates
``[2 d_prime j, 2 d_prime (j + 1))`` and its first complex amplitude sits
at real coordinates ``2 d_prime j`` and ``2 d_prime j + 1``.
syndrome_sampled_fidelity_mc builds full states with
sampler.sample_states, draws one syndrome per state with the probability
of its block, and scores the recovered state: an unbiased estimate of the
same number, with a larger spread.

sample_states draws the polar angle through the tabulated marginal,
which is biased beyond n ~ 12 qubits, so this route serves small d only.
"""

import numpy as np

from isoqec.distributions import IsotropicDensity
from isoqec.sampler import mc_means, sample_states


def block_matrix(coords, params):
    """Reshape real coordinates so axis -2 indexes blocks."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[-1] != 2 * params.d:
        raise ValueError(f"expected {2 * params.d} real coordinates, "
                         f"got {coords.shape[-1]}")
    return coords.reshape(*coords.shape[:-1], params.d_dprime,
                          2 * params.d_prime)


def sampled_values(x, params, rng):
    """Recovered fidelity of each row of x after one drawn syndrome.

    A syndrome j is drawn with the probability of block j; the value is the
    squared first amplitude of block j over that probability.
    """
    r = block_matrix(x, params)
    p = np.einsum("ijk,ijk->ij", r, r)
    u = rng.random(x.shape[0])
    idx = (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    idx = np.minimum(idx, params.d_dprime - 1)
    rows = np.arange(x.shape[0])
    num = r[rows, idx, 0] ** 2 + r[rows, idx, 1] ** 2
    p_sel = p[rows, idx]
    # zero-probability draws only arise from rounding at the boundary
    return np.divide(num, p_sel, out=np.zeros_like(num), where=p_sel > 0)


def syndrome_sampled_fidelity_mc(params, sigmas, n_samples, streams):
    """The corrected fidelity with one drawn syndrome per full state.

    One estimate per sigma of the normal density, each a job of one
    mc_means call on the same streams.
    """
    def sampled_fn(sigma):
        density = IsotropicDensity.normal(sigma, params.d)

        def value_fn(rng, count, scratch):
            # states consume the stream first, then the syndrome draws
            x = sample_states(density, count, rng)
            yield sampled_values(x, params, rng)[None]
        return value_fn

    results = mc_means([(sampled_fn(sigma), streams) for sigma in sigmas],
                       n_samples)
    return tuple(est for estimates, _ in results for est in estimates)
