"""Log-stable special functions and the exact integrals behind them.

The density normalizations and the appendix integrals are ratios of
double factorials times a power of 2*pi.  Materialized naively these
factors overflow float64 long before the dimensions of interest
(63!! ~ 1e44, (2*pi)^64 ~ 1e51, and the normal density peak at d=64
exceeds 1e308), so all of them are carried as logarithms and only the
finished, cancelled combination is exponentiated.

Conventions: (-1)!! = 0!! = 1.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

# SciPy loads scipy.integrate on first attribute access, so processes that
# make no quadrature call (a sweep of normal densities) never import QUADPACK
import scipy

LOG_2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested accuracy."""


@lru_cache(maxsize=None)
def double_factorial_log(k: int) -> float:
    """log(k!!), for k >= -1.

    Even k=2m: k!! = 2^m m!.  Odd k=2m+1: k!! = (2m+1)!/(2^m m!).
    Computed through lgamma so no intermediate is materialized.
    """
    if k < -1:
        raise ValueError(f"double factorial needs k >= -1, got {k}")
    if k <= 0:  # (-1)!! = 0!! = 1
        return 0.0
    if k % 2 == 0:
        m = k // 2
        return m * LOG_2 + math.lgamma(m + 1)
    m = (k - 1) // 2
    return math.lgamma(k + 1) - m * LOG_2 - math.lgamma(m + 1)


def sin_power_integral(k: int) -> float:
    """Integral of sin^k over [0, pi].

    Equals 2 (k-1)!!/k!! for odd k and pi (k-1)!!/k!! for even k.
    """
    if k < 0:
        raise ValueError(f"sin power must be nonnegative, got {k}")
    ratio = math.exp(double_factorial_log(k - 1) - double_factorial_log(k))
    return (2.0 if k % 2 else math.pi) * ratio


def log_sphere_surface(dim: int) -> float:
    """log of the surface measure of the unit sphere S^dim in R^(dim+1).

    |S^(2c)| = 2 (2 pi)^c / (2c-1)!!  and  |S^(2c-1)| = (2 pi)^c / (2c-2)!!.
    """
    if dim < 0:
        raise ValueError(f"sphere dimension must be nonnegative, got {dim}")
    c = (dim + 1) // 2
    log_surface = c * LOG_2PI - double_factorial_log(dim - 1)
    return log_surface + LOG_2 if dim % 2 == 0 else log_surface


def sphere_surface(dim: int) -> float:
    """Surface measure of S^dim; underflows to 0 from dim = 455 on."""
    return math.exp(log_sphere_surface(dim))


class KernelVariant(Enum):
    """Numerator choices for the Poisson-kernel integrals on [0, pi]."""

    SIN_2D_MINUS_2 = "sin_2d_minus_2"
    COS_SIN_2D_MINUS_2 = "cos_sin_2d_minus_2"
    SIN_2D = "sin_2d"


def poisson_kernel_integral(d: int, sigma: float,
                            variant: KernelVariant) -> float:
    """Closed form of  int_0^pi  numerator / (1 + s^2 - 2 s cos t)^d  dt.

    With s = sigma the three variants evaluate to
        sin^(2d-2):      (2d-3)!!/(2d-2)!! * pi / (1 - s^2)
        cos sin^(2d-2):  (2d-3)!!/(2d-2)!! * s pi / (1 - s^2)
        sin^(2d):        (2d-1)!!/(2d)!!   * pi            (independent of s)
    """
    if d < 1:
        raise ValueError(f"half-dimension d must be >= 1, got {d}")
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"kernel requires 0 <= sigma < 1, got {sigma}")
    if variant is KernelVariant.SIN_2D:
        ratio = math.exp(double_factorial_log(2 * d - 1)
                         - double_factorial_log(2 * d))
        return math.pi * ratio
    ratio = math.exp(double_factorial_log(2 * d - 3)
                     - double_factorial_log(2 * d - 2))
    base = ratio * math.pi / (1.0 - sigma * sigma)
    if variant is KernelVariant.COS_SIN_2D_MINUS_2:
        return sigma * base
    if variant is KernelVariant.SIN_2D_MINUS_2:
        return base
    raise ValueError(f"unknown kernel variant {variant!r}")


def poisson_kernel_integrand(d: int, sigma: float,
                             variant: KernelVariant) -> Callable[[float], float]:
    """Raw integrand matching poisson_kernel_integral, for quadrature checks.

    Safe pointwise for d <= 64, sigma <= 0.99: the factored form
    (sin^2 t / kernel)^d peaks at exactly 1 (at cos t = sigma), so nothing
    overflows even where the unfactored kernel power would.
    """
    if d < 1:
        raise ValueError(f"half-dimension d must be >= 1, got {d}")
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"kernel requires 0 <= sigma < 1, got {sigma}")

    def integrand(t: float) -> float:
        s = math.sin(t)
        kernel = 1.0 + sigma * sigma - 2.0 * sigma * math.cos(t)
        core = (s * s / kernel) ** d
        if variant is KernelVariant.SIN_2D:
            return core
        if variant is KernelVariant.COS_SIN_2D_MINUS_2:
            return core * math.cos(t) / (s * s) if s != 0.0 else 0.0
        return core / (s * s) if s != 0.0 else 0.0

    return integrand


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float,
                        rel_tol: float = 1e-10, *,
                        abs_tol: float = 0.0,
                        points: Sequence[float] | None = None,
                        limit: int = 400) -> float:
    """Integrate f over [a, b] to an estimated relative error <= rel_tol.

    Thin wrapper over QUADPACK's globally adaptive rule (deterministic for a
    fixed subdivision rule).  abs_tol > 0 adds an absolute floor so that
    integrals cancelling to ~0 still converge.  points marks known interior
    features (peaks, kinks) for the subdivision to start from.  Raises
    QuadratureError if the node budget is exhausted or QUADPACK reports any
    other convergence problem.
    """
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if points is not None:
        points = [p for p in points if a < p < b]
        if not points:
            points = None
    out = scipy.integrate.quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol,
                               limit=limit, points=points, full_output=True)
    if len(out) > 3:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] failed to converge: {out[3]}")
    return out[0]
