"""Shared density zoo and sample helpers for cross-route checks.

Normal densities and uniform caps at a given half-dimension, so bound and
identity tests sweep both density kinds and both of their closed forms.

compose_errors applies an error about an arbitrary base state by drawing
the error about the north pole e0 and transporting it with the
Householder reflection taking e0 to the base.  The reflection is
orthogonal, so it maps the isotropic law about e0 exactly onto the
isotropic law about the base; in particular distances to the base keep
the distribution the distances to e0 had.
"""

import math

import numpy as np

from isoqec.distributions import IsotropicDensity
from isoqec.sampler import sample_states


def make_suite(d):
    """(label, density) pairs covering every kind at half-dimension d."""
    return [
        ("uniform", IsotropicDensity.uniform(d)),
        ("normal_0.3", IsotropicDensity.normal(0.3, d)),
        ("normal_0.9", IsotropicDensity.normal(0.9, d)),
        ("normal_0.99", IsotropicDensity.normal(0.99, d)),
        ("cap_pi4", IsotropicDensity.uniform_cap(math.pi / 4, d)),
        ("cap_pi2", IsotropicDensity.uniform_cap(math.pi / 2, d)),
    ]


def reference_states(d, n):
    """n copies of the reference state e0 on S^(2d-1), as an (n, 2d) array."""
    states = np.zeros((n, 2 * d))
    states[:, 0] = 1.0
    return states


def compose_errors(bases, density, rng):
    """Apply one isotropic error about each row of bases, batched.

    Draws about e0 and reflects e0 onto each base; for a base equal to e0
    the transport is the identity.
    """
    bases = np.asarray(bases, dtype=float)
    n = bases.shape[0]
    if bases.shape != (n, 2 * density.d):
        raise ValueError(f"bases shape {bases.shape} does not match "
                         f"half-dimension {density.d}")
    fresh = sample_states(density, n, rng)
    w = bases.copy()
    w[:, 0] -= 1.0
    wsq = np.einsum("ij,ij->i", w, w)
    safe = wsq > 1e-28
    coef = np.zeros(n)
    np.divide(2.0 * np.einsum("ij,ij->i", w, fresh), wsq, out=coef,
              where=safe)
    return fresh - coef[:, None] * w


def mean_se(values):
    """Sample mean and its standard error."""
    values = np.asarray(values, dtype=float)
    return values.mean(), values.std(ddof=1) / math.sqrt(values.size)
