"""Isotropic error distributions on S^(2d-1) and their polar moments.

An isotropic error about the first basis vector is described entirely by a
density f(theta0) in the polar angle.  The full spherical marginal of theta0
is then g(theta0) = |S^(2d-2)| f(theta0) sin^(2d-2)(theta0) on [0, pi]; all
moments are one-dimensional integrals against g.  Both density kinds, the
normal density and the uniform polar cap, have every moment the routes read
in closed form, and the sweep draws normal errors without a table (see
sampler).  The tabulated marginal serves only sample_states, the geometric
sampling route the tests compare against, and its quadrature expectation
is the tests' reference.  Densities are evaluated in log space: at d = 64
the normal-density peak exceeds float64 range while g itself stays
O(100), so only cancelled combinations are exponentiated.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .mathcore import (
    LOG_2PI,
    SinPowerPartial,
    adaptive_quadrature,
    double_factorial_log,
    log_sphere_surface,
    sin_power_partial,
)

# log g values below this are indistinguishable from an exact zero in
# float64; clipping here keeps the marginal table free of -inf arithmetic
_LOG_FLOOR = -745.0


@dataclass(frozen=True)
class CodeParams:
    """Block-code dimensions: n physical qubits, m logical qubits.

    d = 2^n is the coded half-dimension, d' = 2^m the logical one, and
    d'' = d / d' counts syndrome blocks.
    """

    n: int
    m: int

    def __post_init__(self):
        # bool is an int subclass, but true/false as a qubit count is a mistake
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in (self.n, self.m)):
            raise ValueError(f"code parameters must be integers, "
                             f"got n={self.n!r}, m={self.m!r}")
        if self.m < 1 or self.n <= self.m:
            raise ValueError(
                f"need n > m >= 1, got n={self.n}, m={self.m}")

    @property
    def d(self) -> int:
        return 2 ** self.n

    @property
    def d_prime(self) -> int:
        return 2 ** self.m

    @property
    def d_dprime(self) -> int:
        return 2 ** (self.n - self.m)


class DensityKind(Enum):
    NORMAL = "normal"
    UNIFORM_CAP = "uniform_cap"


def normal_density_eval(sigma: float, d: int, theta0):
    """log of the normal isotropic density at polar angle theta0.

    f(theta0) = (2d-2)!!/(2 pi)^d * (1 - s^2) / (1 + s^2 - 2 s cos theta0)^d
    with s = sigma.  Only the log is returned: the peak value overflows
    float64 already at moderate d (d=64, sigma=0.99 gives ~1e309).
    """
    if d < 1:
        raise ValueError(f"half-dimension d must be >= 1, got {d}")
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"need 0 <= sigma < 1, got {sigma}")
    t = np.asarray(theta0, dtype=float)
    kernel = 1.0 + sigma * sigma - 2.0 * sigma * np.cos(t)
    out = (double_factorial_log(2 * d - 2) - d * LOG_2PI
           + math.log1p(-sigma * sigma) - d * np.log(kernel))
    return out if out.ndim else float(out)


def _log_sin_power(k: int, t):
    """k * log(sin t), with the k = 0 case kept free of 0 * inf."""
    t = np.asarray(t, dtype=float)
    if k == 0:
        return np.zeros_like(t)
    with np.errstate(divide="ignore"):
        return k * np.log(np.sin(np.clip(t, 0.0, math.pi)))


@dataclass(frozen=True, eq=False)
class IsotropicDensity:
    """An isotropic error density on S^(2d-1), reduced to its polar profile.

    Immutable after construction.  Both kinds are normalized in closed
    form: a normal density's mass is |S^(2d-2)| times the sin^(2d-2)
    kernel integral, the first of mathcore.poisson_kernel_integrals; a
    cap's is |S^(2d-2)| times the partial sin-power integral over
    [0, theta_max]; verify_appendix checks both integrals against
    quadrature.
    """

    kind: DensityKind
    d: int
    sigma: float | None = None
    theta_max: float | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"half-dimension d must be >= 1, got {self.d}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def normal(cls, sigma: float, d: int) -> "IsotropicDensity":
        if not 0.0 <= sigma < 1.0:
            raise ValueError(f"need 0 <= sigma < 1, got {sigma}")
        return cls(kind=DensityKind.NORMAL, d=d, sigma=float(sigma))

    @classmethod
    def uniform(cls, d: int) -> "IsotropicDensity":
        """Uniform on the whole sphere; the sigma = 0 normal density."""
        return cls.normal(0.0, d)

    @classmethod
    def uniform_cap(cls, theta_max: float, d: int) -> "IsotropicDensity":
        """Constant density on the polar cap theta0 <= theta_max, zero beyond.

        sin_power_partial refuses an angle outside (0, pi] when the first
        moment is read.
        """
        return cls(kind=DensityKind.UNIFORM_CAP, d=d, theta_max=float(theta_max))

    # -- evaluation --------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        if self.kind is DensityKind.UNIFORM_CAP:
            return 0.0, self.theta_max
        return 0.0, math.pi

    def log_density(self, theta0):
        """log f(theta0); -inf outside the support."""
        t = np.asarray(theta0, dtype=float)
        if self.kind is DensityKind.NORMAL:
            out = np.asarray(normal_density_eval(self.sigma, self.d, t))
        else:
            out = np.where((t >= 0.0) & (t <= self.theta_max),
                           self._cap_log_level, -math.inf)
        return out if out.ndim else float(out)

    @cached_property
    def _cap(self) -> SinPowerPartial:
        # g is proportional to sin^(2d-2) on the cap: every moment reads this
        return sin_power_partial(2 * self.d - 2, self.theta_max)

    @cached_property
    def _cap_log_level(self) -> float:
        # constant log-level c with |S^(2d-2)| * c * int_0^tmax sin^(2d-2) = 1
        return -(log_sphere_surface(2 * self.d - 2) + self._cap.log_integral)

    def log_marginal(self, theta0):
        """log g(theta0) for the full spherical marginal of the polar angle."""
        t = np.asarray(theta0, dtype=float)
        out = (log_sphere_surface(2 * self.d - 2)
               + np.asarray(self.log_density(t))
               + _log_sin_power(2 * self.d - 2, t))
        return out if out.ndim else float(out)

    def descriptor(self) -> dict:
        """JSON-safe summary used to label verification cases."""
        out = {"kind": self.kind.value, "d": self.d}
        if self.kind is DensityKind.NORMAL:
            out["sigma"] = self.sigma
        else:
            out["theta_max"] = self.theta_max
        return out

    @cached_property
    def marginal(self) -> "PolarMarginal":
        return marginal_polar(self)


class PolarMarginal:
    """Tabulated polar-angle marginal g with exact pointwise evaluation.

    Holds a deterministic adaptive grid (>= 4096 nodes, refined where log g
    moves fast) with a trapezoid CDF for inverse-transform sampling;
    expectation goes through the exact log-density, not the table.  The
    grid spans all of [0, pi], so it stops resolving the width ~1/sqrt(2d)
    peak of g at large d; only sample_states reads it.

    The density is held by a weak reference: it caches its marginal, and
    a strong link back would make every density a reference cycle that
    only the cyclic collector frees.  expectation needs it alive.
    """

    def __init__(self, density: IsotropicDensity):
        self._density = weakref.ref(density)
        lo, hi = density.support
        theta = np.linspace(lo, hi, 4097)
        for _ in range(4):  # refine where adjacent log g values jump
            vals = np.asarray(density.log_marginal(theta))
            delta = np.abs(np.diff(vals))
            big = np.nonzero((delta > 0.5) | ~np.isfinite(delta))[0]
            if big.size == 0 or theta.size > 60000:
                break
            mids = 0.5 * (theta[big] + theta[big + 1])
            theta = np.sort(np.concatenate([theta, mids]))
        self.theta = theta
        self.log_g = np.asarray(density.log_marginal(theta))
        peak = float(np.max(self.log_g))
        # window where g is representable; the rest underflows to exact zero
        alive = np.nonzero(self.log_g > peak + _LOG_FLOOR)[0]
        if alive.size == 0:
            raise ValueError(f"polar marginal of {density.descriptor()}: no "
                             "node of the grid carries representable mass")
        dens = np.exp(np.clip(self.log_g - peak, _LOG_FLOOR, None))
        seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(theta)
        cdf = np.concatenate([[0.0], np.cumsum(seg)])
        self.cdf = cdf / cdf[-1]
        self.argmax = float(theta[int(np.argmax(self.log_g))])
        i0, i1 = int(alive[0]), int(alive[-1])
        self._window = (float(theta[max(i0 - 1, 0)]),
                        float(theta[min(i1 + 1, theta.size - 1)]))

    def ppf(self, u):
        """Inverse CDF by linear interpolation on the tabulated grid."""
        return np.interp(u, self.cdf, self.theta)

    def expectation(self, h: Callable, rel_tol: float = 1e-10) -> float:
        """E[h(theta0)] under g by adaptive quadrature of the exact density."""
        density = self._density()
        if density is None:
            raise ReferenceError("the density of this polar marginal was freed")
        lo, hi = self._window
        log_marginal = density.log_marginal

        def integrand(t):
            lg = log_marginal(t)
            return math.exp(min(lg, 300.0)) * h(t) if lg > _LOG_FLOOR else 0.0

        return adaptive_quadrature(integrand, lo, hi, rel_tol,
                                   abs_tol=1e-13, points=[self.argmax],
                                   limit=800)


def marginal_polar(density: IsotropicDensity) -> PolarMarginal:
    """Full spherical marginal of the polar angle as a sampling-ready table."""
    return PolarMarginal(density)


def variance_of(density: IsotropicDensity) -> float:
    """Variance v = E[2 - 2 cos theta0] in [0, 4].

    Closed form 2(1 - sigma) for normal densities.
    """
    if density.kind is DensityKind.NORMAL:
        return 2.0 * (1.0 - density.sigma)
    return max(2.0 - 2.0 * density._cap.mean_cos, 0.0)


def moment_sin2(density: IsotropicDensity) -> float:
    """E[sin^2 theta0] under the full marginal g; every fidelity reads it.

    Normal closed form: (2d - 1)(1 - sigma^2) / (2d).  Cap of angle alpha:
    (2d - 1)/(2d) (1 - cos alpha E[cos]), from one integration by parts.
    """
    d = density.d
    if density.kind is DensityKind.NORMAL:
        s = density.sigma
        return (2 * d - 1) * (1.0 - s * s) / (2 * d)
    cos_max = math.cos(density.theta_max)
    return (2 * d - 1) / (2 * d) * (1.0 - cos_max * density._cap.mean_cos)


def condition_18(density: IsotropicDensity) -> float:
    """E[(1 - cos theta0) cos theta0] under the full marginal.

    Condition (18), that this is >= 0, is sufficient for the
    corrected-fidelity upper bound to apply; concentrated densities meet
    it, densities with most mass beyond theta0 = pi/2 need not.  Normal
    closed form: E[cos] - E[cos^2] = (1 - sigma)((2d - 1) sigma - 1) / (2d),
    which is >= 0 exactly when sigma >= 1/(2d - 1).  Cap of angle alpha:
    E[cos] (1 - (2d - 1) cos alpha / (2d)) - 1/(2d).
    """
    d = density.d
    # factored: as E[cos] - 1 + E[sin^2] it cancels and flips sign near zero
    if density.kind is DensityKind.NORMAL:
        s = density.sigma
        return (1.0 - s) * ((2 * d - 1) * s - 1.0) / (2 * d)
    cos_max = math.cos(density.theta_max)
    return (density._cap.mean_cos * (1.0 - (2 * d - 1) * cos_max / (2 * d))
            - 1.0 / (2 * d))


def variance_compose_n(v_u, n: int):
    """n-fold composition of a per-step variance: 2 - 2 (1 - v_u/2)^n.

    v_u may be an array; the result then has its shape.
    """
    # bool is an int subclass, but true/false as a step count is a mistake
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"step count must be a positive integer, got {n!r}")
    v = np.asarray(v_u, dtype=float)
    if not np.all((0.0 <= v) & (v <= 4.0)):
        raise ValueError(f"variance must lie in [0, 4], got {v_u}")
    # for v > 2 the base is negative, and numpy's power falls back to
    # scalar libm pow on negative bases; |base|^n with the sign put back
    # for odd n stays vectorised
    base = 1.0 - v / 2.0
    power = np.power(np.abs(base), n)
    out = 2.0 - 2.0 * (np.copysign(power, base) if n % 2 else power)
    return out if out.ndim else float(out)
