"""Closed-form fidelities and bounds for isotropically perturbed states.

For an isotropic error on S^(2d-1) with polar marginal g, the squared
fidelity of the perturbed state against the unperturbed one is

    F^2 = 1 - 2w / (2d-1) * E_g[sin^2 theta0]

where the weight w counts the amplitude pairs lost to the error: w = d - 1
for a bare state, and w = d - d'' for a block code that recovers all but
one pair per syndrome block.  Equivalently F^2 is the mean squared mass
a perturbed state keeps on e0 plus kept = 2d - 1 - 2w other coordinates,
cos^2 + sin^2 B with B ~ Beta(kept/2, (2d-1-kept)/2) independent of theta0;
sampler.fidelity_sampler draws that mass for normal densities.

The PRINTED variant of the corrected-fidelity upper bound reproduces a
published denominator 2d' - 1 that its own derivation does not support;
the derivation yields 2d - 1 (PROOF).  Both are kept so the discrepancy
stays visible in verification output.

full_report gives every closed-form column of a sweep's CSV row for one
(code, density) cell, named and ordered as in the CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import (
    CodeParams,
    IsotropicDensity,
    condition_18,
    moment_sin2,
    variance_compose_n,
    variance_of,
)


class BoundVariant(Enum):
    PROOF = "proof"
    PRINTED = "printed"


@dataclass(frozen=True)
class FidelityReport:
    """A cell's closed-form columns, in the sweep CSV's names and order."""

    v_c: float                   # variance of the composed coded error
    v_u: float                   # variance of the unencoded error
    f2_psi: float                # error acting on the encoded state
    f2_phi_tilde: float          # after syndrome measurement and correction
    f2_psi0: float               # error acting on the unencoded state
    lb_psi0: float               # variance-only lower bound on f2_psi0
    ub_phi_tilde_proof: float    # variance-only upper bound on f2_phi_tilde
    ub_phi_tilde_printed: float  # the same with the published denominator
    cond18: bool                 # moment condition under which it applies


def _kept_fidelity(density: IsotropicDensity, kept: int) -> float:
    # mean of fidelity_sampler's values: 1 - sin^2 theta (1 - B),
    # E[B] = kept/(2d-1)
    return 1.0 - moment_sin2(density) * (1.0 - kept / (2 * density.d - 1))


def fidelity_psi(density: IsotropicDensity) -> float:
    """Squared fidelity of the raw perturbed state on S^(2d-1), d = density.d.

    On the logical sphere (d = d') this is the unencoded fidelity.
    """
    return _kept_fidelity(density, 1)


def fidelity_psi_normal(sigma, d: int):
    """fidelity_psi specialized to the normal density: (1 + (d-1) s^2) / d.

    Accepts sigma = 1 as the continuous limit (fidelity 1) even though the
    density itself is only defined for sigma < 1.  sigma may be an array;
    the result then has its shape.
    """
    s = np.asarray(sigma, dtype=float)
    if not np.all((0.0 <= s) & (s <= 1.0)):
        raise ValueError(f"need 0 <= sigma <= 1, got {sigma}")
    if d < 1:
        raise ValueError(f"half-dimension d must be >= 1, got {d}")
    out = (1.0 + (d - 1) * s * s) / d
    return out if out.ndim else float(out)


def fidelity_corrected(density: IsotropicDensity, params: CodeParams) -> float:
    """Squared fidelity after syndrome measurement and correction.

    Correction recovers every amplitude pair except one per block, so the
    kept coordinates grow from 1 to 2d'' - 1.
    """
    if density.d != params.d:
        raise ValueError(
            f"density lives at half-dimension {density.d}, "
            f"expected coded dimension {params.d}")
    return _kept_fidelity(density, 2 * params.d_dprime - 1)


def bound_psi0_lower(v_u: float, d_prime: int) -> float:
    """Lower bound on the unencoded fidelity from the per-step variance alone.

    1 - (2d'-2)/(2d'-1) (v_u - (v_u/2)^2); tight for concentrated errors.
    """
    if not 0.0 <= v_u <= 4.0:
        raise ValueError(f"variance must lie in [0, 4], got {v_u}")
    if d_prime < 1:
        raise ValueError(f"half-dimension must be >= 1, got {d_prime}")
    spread = v_u - (v_u / 2.0) ** 2
    return 1.0 - (2 * d_prime - 2) / (2 * d_prime - 1) * spread


def bound_corrected_upper(v_c: float, params: CodeParams,
                          variant: BoundVariant = BoundVariant.PROOF) -> float:
    """Upper bound on fidelity_corrected from the composed variance alone.

    PROOF: 1 - (d - d'') v_c / (2d - 1), which the supporting moment
    argument actually establishes.  PRINTED: same with denominator 2d' - 1,
    kept only to document the published discrepancy; it is violated by
    explicit code/density pairs.
    """
    if not 0.0 <= v_c <= 4.0:
        raise ValueError(f"variance must lie in [0, 4], got {v_c}")
    weight = params.d - params.d_dprime
    if variant is BoundVariant.PROOF:
        return 1.0 - weight * v_c / (2 * params.d - 1)
    if variant is BoundVariant.PRINTED:
        return 1.0 - weight * v_c / (2 * params.d_prime - 1)
    raise ValueError(f"unknown bound variant {variant!r}")


def lemma_g(n: int, x):
    """g(n, x) = 2 - 2 (1 - x/2)^n - (x - (x/2)^2), nonnegative on [0, 4].

    The gap between the n-fold composed variance and the single-step
    spread term; its nonnegativity is what orders the unencoded fidelity
    above the corrected one.  x may be an array; the result then has its
    shape.
    """
    if not (isinstance(n, int) and n >= 2):
        raise ValueError(f"step count must be an integer >= 2, got {n}")
    v = np.asarray(x, dtype=float)
    out = variance_compose_n(v, n) - (v - (v / 2.0) ** 2)
    return out if out.ndim else float(out)


def full_report(density: IsotropicDensity, params: CodeParams,
                uncoded: IsotropicDensity) -> FidelityReport:
    """All closed-form quantities for one code/density cell.

    density is the composed error on the coded sphere S^(2d-1) and
    uncoded the accumulated error on the logical sphere S^(2d'-1);
    fidelity_corrected refuses a density at any other d.
    """
    if uncoded.d != params.d_prime:
        raise ValueError(
            f"unencoded density lives at half-dimension {uncoded.d}, "
            f"expected logical dimension {params.d_prime}")
    v_c = variance_of(density)
    v_u = variance_of(uncoded)
    return FidelityReport(
        v_c=v_c,
        v_u=v_u,
        f2_psi=fidelity_psi(density),
        f2_phi_tilde=fidelity_corrected(density, params),
        f2_psi0=fidelity_psi(uncoded),
        lb_psi0=bound_psi0_lower(v_u, params.d_prime),
        ub_phi_tilde_proof=bound_corrected_upper(v_c, params,
                                                 BoundVariant.PROOF),
        ub_phi_tilde_printed=bound_corrected_upper(v_c, params,
                                                   BoundVariant.PRINTED),
        cond18=condition_18(density).holds,
    )
