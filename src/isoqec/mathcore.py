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
from typing import Callable, NamedTuple, Sequence

# SciPy loads scipy.integrate on first attribute access, so processes that
# make no quadrature call (a sweep, verify theorems) never import QUADPACK
import scipy

LOG_2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested accuracy.

    a and b are the interval, neval the integrand evaluations QUADPACK
    spent on it before giving up.
    """

    def __init__(self, message: str, a: float, b: float, neval: int):
        super().__init__(message)
        self.a, self.b, self.neval = a, b, neval


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

    Equals 2 (k-1)!!/k!! for odd k and pi (k-1)!!/k!! for even k;
    double_factorial_log refuses k < 0.
    """
    ratio = math.exp(double_factorial_log(k - 1) - double_factorial_log(k))
    return (2.0 if k % 2 else math.pi) * ratio


class SinPowerPartial(NamedTuple):
    log_integral: float  # log of the integral of sin^k over [0, alpha]
    mean_cos: float      # mean of cos under the weight sin^k on [0, alpha]


def sin_power_partial(k: int, alpha: float) -> SinPowerPartial:
    """log of the integral I of sin^k over [0, alpha], and the mean cosine.

    The mean of cos under sin^k on [0, alpha] is sin^(k+1)(alpha)/((k+1) I).
    With a = (k+1)/2 and c = cos(alpha), I = B(a, 1/2)/2 (1 -+ I_x(1/2, a))
    at x = c^2 for c > 0 (-) and c <= 0 (+), I_x the regularized incomplete
    beta.  Below pi/2, where that tail underflows at large k, the mean
    cosine is c / 2F1(1/2, 1; a+1; -tan^2 alpha), summed while its terms
    at least halve (scipy's hyp2f1 returns NaN near pi/2 from k ~ 500 on).
    k < 0 fails on the log of 2a <= 0.
    """
    if not 0.0 < alpha <= math.pi:
        raise ValueError(f"need 0 < alpha <= pi, got {alpha}")
    a = 0.5 * (k + 1)
    c = math.cos(alpha)
    # log sin(alpha) through cos where sin rounds to 1
    log_sin = (0.5 * math.log1p(-c * c) if abs(c) < 0.5
               else math.log(math.sin(alpha)))
    log_head = 2.0 * a * log_sin - math.log(2.0 * a)  # sin^(k+1)/(k+1)
    t = math.tan(alpha) ** 2
    if c > 0.0 and 121.0 * t <= a + 61.0:  # t (n+1/2)/(a+1+n) <= 1/2, n < 60
        term = total = 1.0
        for n in range(60):
            term *= -t * (n + 0.5) / (a + 1.0 + n)
            total += term
            if abs(term) <= 1e-17 * total:
                break
        mean_cos = c / total
        return SinPowerPartial(log_head - math.log(mean_cos), mean_cos)
    # imported here, not through the scipy global: a sweep never loads it
    from scipy import special
    tail = (special.betaincc(0.5, a, c * c) if c > 0.0
            else 1.0 + special.betainc(0.5, a, c * c))
    log_integral = special.betaln(a, 0.5) - LOG_2 + math.log(tail)
    return SinPowerPartial(log_integral, math.exp(log_head - log_integral))


def log_sphere_surface(dim: int) -> float:
    """log of the surface measure of the unit sphere S^dim in R^(dim+1).

    |S^(2c)| = 2 (2 pi)^c / (2c-1)!!  and  |S^(2c-1)| = (2 pi)^c / (2c-2)!!;
    double_factorial_log refuses dim < 0.
    """
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

    With s = sigma and I_k = sin_power_integral(k) the three variants
    evaluate to
        sin^(2d-2):      I_(2d-2) / (1 - s^2)
        cos sin^(2d-2):  s I_(2d-2) / (1 - s^2)
        sin^(2d):        I_(2d)                (independent of s)
    """
    if d < 1:
        raise ValueError(f"half-dimension d must be >= 1, got {d}")
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"kernel requires 0 <= sigma < 1, got {sigma}")
    if variant is KernelVariant.SIN_2D:
        return sin_power_integral(2 * d)
    base = sin_power_integral(2 * d - 2) / (1.0 - sigma * sigma)
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
    overflows even where the unfactored kernel power would.  The
    sin^(2d-2) numerators take the power d - 1 of that ratio and divide
    by the kernel once more, so nothing is divided by sin^2 t, and at
    d = 1 the sin^(2d-2) integrand is 1/kernel, (1 - s)^-2 at t = 0.
    d and sigma are not checked here: the closed form it is compared
    with refuses d < 1 and sigma outside [0, 1).
    """
    # one closure per variant, with the kernel's constant terms hoisted:
    # Python evaluates 1 + sigma^2 - 2 sigma cos t left to right, so
    # (1 + sigma^2) - (2 sigma) cos t rounds exactly as the inline form
    sin, cos = math.sin, math.cos
    one_plus_sq = 1.0 + sigma * sigma
    two_sigma = 2.0 * sigma
    if variant is KernelVariant.SIN_2D:
        def integrand(t: float) -> float:
            s = sin(t)
            return (s * s / (one_plus_sq - two_sigma * cos(t))) ** d
    elif variant is KernelVariant.COS_SIN_2D_MINUS_2:
        def integrand(t: float) -> float:
            s = sin(t)
            c = cos(t)
            k = one_plus_sq - two_sigma * c
            return (s * s / k) ** (d - 1) * c / k
    elif variant is KernelVariant.SIN_2D_MINUS_2:
        def integrand(t: float) -> float:
            s = sin(t)
            k = one_plus_sq - two_sigma * cos(t)
            return (s * s / k) ** (d - 1) / k
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
    if points is not None:
        points = [p for p in points if a < p < b]
        if not points:
            points = None
    out = scipy.integrate.quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol,
                               limit=limit, points=points, full_output=True)
    if len(out) > 3:
        neval = out[2]["neval"]
        raise QuadratureError(
            f"quadrature on [{a}, {b}] failed to converge after "
            f"neval={neval} evaluations: {out[3]}", a, b, neval)
    return out[0]
