"""Shared density zoo and sample helpers for cross-route checks.

Normal densities and uniform caps at a given half-dimension, so bound and
identity tests sweep both density kinds and both of their closed forms.
"""

import math

import numpy as np

from isoqec.distributions import IsotropicDensity


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


def mean_se(values):
    """Sample mean and its standard error."""
    values = np.asarray(values, dtype=float)
    return values.mean(), values.std(ddof=1) / math.sqrt(values.size)
