"""Isotropic error distributions on S^(2d-1) and their variance algebra.

An isotropic error about the first basis vector is described entirely by a
density f(theta0) in the polar angle.  The full spherical marginal of theta0
is then g(theta0) = |S^(2d-2)| f(theta0) sin^(2d-2)(theta0) on [0, pi]; all
moments are one-dimensional integrals against g.  Densities are evaluated in
log space throughout: at d = 64 the normal-density peak exceeds float64
range while g itself stays O(100), so only cancelled combinations are
exponentiated.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .mathcore import (
    LOG_2PI,
    adaptive_quadrature,
    double_factorial_log,
    log_sphere_surface,
)

# log f values below this are indistinguishable from an exact zero in
# float64; clipping here keeps table interpolation free of -inf arithmetic
_LOG_FLOOR = -745.0

_NORM_TOL = 1e-8

# equal-width u-bins of PolarMarginal's guide table; a power of two, so
# u * _GUIDE_BINS is exact and its floor names the bin of u exactly
_GUIDE_BINS = 2 ** 16


@dataclass(frozen=True)
class CodeParams:
    """Block-code dimensions: n physical qubits, m logical qubits.

    d = 2^n is the coded half-dimension, d' = 2^m the logical one, and
    d'' = d / d' counts syndrome blocks.
    """

    n: int
    m: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.m, int)):
            raise ValueError("code parameters must be integers")
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
    POLAR_TABLE = "polar_table"


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


def _probe_scan(log_fn, lo, hi, n_coarse=4097, zooms=3, n_zoom=513):
    """Scan log_fn: all probed (t, v) pairs plus the located peak.

    A coarse pass finds the neighborhood, zoom passes pin peaks much
    narrower than the interval (sharp densities near sigma = 1).
    """
    ts = np.linspace(lo, hi, n_coarse)
    vs = np.asarray(log_fn(ts), dtype=float)
    step = (hi - lo) / (n_coarse - 1)
    i = int(np.argmax(vs))
    best_t, best_v = float(ts[i]), float(vs[i])
    all_t, all_v = [ts], [vs]
    a, b = max(lo, best_t - 2 * step), min(hi, best_t + 2 * step)
    for _ in range(zooms):
        grid = np.linspace(a, b, n_zoom)
        vals = np.asarray(log_fn(grid), dtype=float)
        all_t.append(grid)
        all_v.append(vals)
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_t, best_v = float(grid[j]), float(vals[j])
        span = (b - a) / (n_zoom - 1)
        a, b = max(lo, best_t - 2 * span), min(hi, best_t + 2 * span)
    return np.concatenate(all_t), np.concatenate(all_v), best_t, best_v, step


def _log_integral(log_fn, lo, hi, rel_tol=1e-11, breakpoints=None):
    """log of int exp(log_fn(t)) dt over [lo, hi], max-shifted for stability.

    Integration is restricted to the window where the shifted integrand is
    representable at all; outside it the integrand underflows to an exact
    float64 zero, so the cut changes nothing representable but spares the
    quadrature from hunting a spike across a numerically dead interval.
    breakpoints mark known kinks (table nodes) so each panel stays smooth.
    """
    t_all, v_all, best_t, best_v, step = _probe_scan(log_fn, lo, hi)
    if best_v == -math.inf:
        return -math.inf
    live = t_all[v_all > best_v + _LOG_FLOOR]
    a = max(lo, float(live.min()) - step)
    b = min(hi, float(live.max()) + step)
    points = [best_t]
    if breakpoints is not None:
        points.extend(float(p) for p in breakpoints)

    def integrand(t):
        v = log_fn(np.asarray(t)) - best_v
        return float(np.exp(np.clip(v, _LOG_FLOOR, 300.0)))

    val = adaptive_quadrature(integrand, a, b, rel_tol, points=points,
                              limit=max(800, 10 * (len(points) + 2)))
    return best_v + math.log(val)


@dataclass(frozen=True, eq=False)
class IsotropicDensity:
    """An isotropic error density on S^(2d-1), reduced to its polar profile.

    Immutable after construction.  Cap and table densities have their
    mass under the polar marginal checked by marginal.expectation at
    construction time to 1e-8, and construction fails if it does not
    hold; table densities are normalized automatically and the applied
    constant is kept in .normalization.  Normal densities are normalized
    in closed form: their mass is |S^(2d-2)| times the kernel-inverse-square
    integral, which verify_appendix checks against quadrature.
    """

    kind: DensityKind
    d: int
    sigma: float | None = None
    theta_max: float | None = None
    table_theta: np.ndarray | None = None
    table_log_f: np.ndarray | None = None
    normalization: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"half-dimension d must be >= 1, got {self.d}")
        if self.kind is DensityKind.NORMAL:
            return
        residual = abs(self.marginal.expectation(lambda t: 1.0) - 1.0)
        if not residual < _NORM_TOL:
            raise ValueError(
                f"density normalization off by {residual:.3e} (tol {_NORM_TOL})")

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
        """Constant density on the polar cap theta0 <= theta_max, zero beyond."""
        if not 0.0 < theta_max <= math.pi:
            raise ValueError(
                f"cap angle must be in (0, pi], got {theta_max}")
        return cls(kind=DensityKind.UNIFORM_CAP, d=d, theta_max=float(theta_max))

    @classmethod
    def from_table(cls, theta, f, d: int) -> "IsotropicDensity":
        """Density from tabulated (theta0, f) nodes, log-linear in between.

        f is renormalized; the divisor ends up in .normalization.  Outside
        the tabulated range the density is zero.
        """
        theta = np.asarray(theta, dtype=float)
        f = np.asarray(f, dtype=float)
        if theta.ndim != 1 or theta.shape != f.shape or theta.size < 2:
            raise ValueError("table needs matching 1-d theta/f with >= 2 nodes")
        if not (np.all(np.diff(theta) > 0) and theta[0] >= 0.0
                and theta[-1] <= math.pi + 1e-12):
            raise ValueError("table theta must increase strictly within [0, pi]")
        if np.any(f < 0):
            raise ValueError("table f must be nonnegative")
        pos = np.nonzero(f > 0)[0]
        if pos.size < 2:
            raise ValueError("table needs at least 2 positive-density nodes")
        # leading/trailing zeros just shrink the support; interior zeros
        # cannot be represented log-linearly
        theta = theta[pos[0]:pos[-1] + 1]
        f = f[pos[0]:pos[-1] + 1]
        if np.any(f <= 0):
            raise ValueError("zero density inside the table interior")
        log_f = np.log(f)
        lo, hi = float(theta[0]), float(theta[-1])

        def raw_log(t):
            t = np.asarray(t, dtype=float)
            v = np.interp(t, theta, log_f, left=-math.inf, right=-math.inf)
            return v + _log_sin_power(2 * d - 2, t)

        log_z = log_sphere_surface(2 * d - 2) + _log_integral(
            raw_log, lo, hi, breakpoints=theta[1:-1])
        return cls(kind=DensityKind.POLAR_TABLE, d=d, table_theta=theta,
                   table_log_f=log_f - log_z, normalization=math.exp(log_z))

    # -- evaluation --------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        if self.kind is DensityKind.UNIFORM_CAP:
            return 0.0, self.theta_max
        if self.kind is DensityKind.POLAR_TABLE:
            return float(self.table_theta[0]), float(self.table_theta[-1])
        return 0.0, math.pi

    def log_density(self, theta0):
        """log f(theta0); -inf outside the support."""
        t = np.asarray(theta0, dtype=float)
        if self.kind is DensityKind.NORMAL:
            out = normal_density_eval(self.sigma, self.d, t)
            out = np.asarray(out)
        elif self.kind is DensityKind.UNIFORM_CAP:
            out = np.where((t >= 0.0) & (t <= self.theta_max),
                           self._cap_log_level, -math.inf)
        else:
            out = np.interp(t, self.table_theta, self.table_log_f,
                            left=-math.inf, right=-math.inf)
        return out if out.ndim else float(out)

    @cached_property
    def _cap_log_level(self) -> float:
        # constant log-level c with |S^(2d-2)| * c * int_0^tmax sin^(2d-2) = 1
        k = 2 * self.d - 2
        log_area = (log_sphere_surface(k)
                    + _log_integral(lambda t: _log_sin_power(k, t),
                                    0.0, self.theta_max))
        return -log_area

    def log_marginal(self, theta0):
        """log g(theta0) for the full spherical marginal of the polar angle."""
        t = np.asarray(theta0, dtype=float)
        out = (log_sphere_surface(2 * self.d - 2)
               + np.asarray(self.log_density(t))
               + _log_sin_power(2 * self.d - 2, t))
        return out if out.ndim else float(out)

    @property
    def _kink_points(self):
        # interior table nodes; the log-density is non-smooth exactly there
        if self.kind is DensityKind.POLAR_TABLE:
            return self.table_theta[1:-1]
        return None

    def descriptor(self) -> dict:
        """JSON-safe summary used to label verification cases."""
        out = {"kind": self.kind.value, "d": self.d}
        if self.kind is DensityKind.NORMAL:
            out["sigma"] = self.sigma
        elif self.kind is DensityKind.UNIFORM_CAP:
            out["theta_max"] = self.theta_max
        else:
            out["nodes"] = int(self.table_theta.size)
            out["normalization"] = self.normalization
        return out

    @cached_property
    def marginal(self) -> "PolarMarginal":
        return marginal_polar(self)


class PolarMarginal:
    """Tabulated polar-angle marginal g with exact pointwise evaluation.

    Holds a deterministic adaptive grid (>= 4096 nodes, refined where log g
    moves fast) with a trapezoid CDF for inverse-transform sampling;
    expectation goes through the exact log-density, not the table.

    ppf draws in O(1) per point through a guide table over _GUIDE_BINS
    equal-width bins of u (indexed search, Chen & Asau 1974): a bin that
    no CDF node falls inside maps to its one interpolation segment, and
    only points in the other bins fall back to np.interp's binary search.
    Both evaluate np.interp's own formula on the same segment, so draws
    are bit-identical to interpolation on the table.  The guide is built
    on the first array draw, since most marginals are never sampled.

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
        self._guide = None

    def _build_guide(self):
        """(guide, slope): the segment of each u-bin, or -1, and its slope.

        Bin k of M = _GUIDE_BINS holds u in [k/M, (k+1)/M).  With no node
        strictly inside, np.interp picks for every such u the last node j
        with cdf[j] <= k/M, whose index is the count of nodes in bins <= k,
        minus one.  The last entry stands for u = 1.0 and is always -1.
        """
        scaled = self.cdf * _GUIDE_BINS
        node_bin = scaled.astype(np.intp)
        guide = np.cumsum(np.bincount(node_bin, minlength=_GUIDE_BINS + 1)) - 1
        guide[node_bin[scaled > node_bin]] = -1
        guide[_GUIDE_BINS] = -1
        # a segment that covers a whole bin rises by >= 1/M, so the
        # division is only needed, and only finite, where that holds
        d_cdf = np.diff(self.cdf)
        covers = d_cdf * _GUIDE_BINS >= 1.0
        slope = np.zeros(d_cdf.size)
        np.divide(np.diff(self.theta), d_cdf, out=slope, where=covers)
        return guide, slope

    def ppf(self, u):
        """Inverse CDF by linear interpolation on the tabulated grid.

        Array input in [0, 1] goes through the guide table; a 0-d input,
        or one with points outside [0, 1] or NaN, goes to np.interp.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim == 0 or not (u.min(initial=0.0) >= 0.0
                               and u.max(initial=0.0) <= 1.0):
            return np.interp(u, self.cdf, self.theta)
        if self._guide is None:
            self._guide = self._build_guide()  # one assignment publishes it
        guide, slope = self._guide
        seg = guide[(u * _GUIDE_BINS).astype(np.intp)]
        out = slope[seg] * (u - self.cdf[seg]) + self.theta[seg]
        mixed = seg < 0
        if mixed.any():
            out[mixed] = np.interp(u[mixed], self.cdf, self.theta)
        return out

    def expectation(self, h: Callable, rel_tol: float = 1e-10) -> float:
        """E[h(theta0)] under g by adaptive quadrature of the exact density."""
        density = self._density()
        if density is None:
            raise ReferenceError("the density of this polar marginal was freed")
        lo, hi = self._window
        points = [self.argmax]
        kinks = density._kink_points
        if kinks is not None:
            points.extend(float(p) for p in kinks)
        log_marginal = density.log_marginal

        def integrand(t):
            lg = log_marginal(t)
            return math.exp(min(lg, 300.0)) * h(t) if lg > _LOG_FLOOR else 0.0

        return adaptive_quadrature(integrand, lo, hi, rel_tol,
                                   abs_tol=1e-13, points=points,
                                   limit=max(800, 10 * (len(points) + 2)))


def marginal_polar(density: IsotropicDensity) -> PolarMarginal:
    """Full spherical marginal of the polar angle as a sampling-ready table."""
    return PolarMarginal(density)


class Condition18Result(NamedTuple):
    holds: bool
    value: float


def variance_of(density: IsotropicDensity) -> float:
    """Variance v = E[2 - 2 cos theta0] in [0, 4].

    Closed form 2(1 - sigma) for normal densities.
    """
    if density.kind is DensityKind.NORMAL:
        return 2.0 * (1.0 - density.sigma)
    v = 2.0 - 2.0 * density.marginal.expectation(math.cos)
    return min(max(v, 0.0), 4.0)


def moment_sin2(density: IsotropicDensity) -> float:
    """E[sin^2 theta0] under the full marginal g; every fidelity reads it.

    Normal closed form: (2d - 1)(1 - sigma^2) / (2d).
    """
    if density.kind is DensityKind.NORMAL:
        d, s = density.d, density.sigma
        return (2 * d - 1) * (1.0 - s * s) / (2 * d)
    return density.marginal.expectation(lambda t: math.sin(t) ** 2)


def condition_18(density: IsotropicDensity) -> Condition18Result:
    """Whether E[(1 - cos theta0) cos theta0] >= 0 under the full marginal.

    This is the sufficient condition under which the corrected-fidelity
    upper bound applies; concentrated densities satisfy it, densities with
    most mass beyond theta0 = pi/2 need not.  Normal closed form:
    E[cos] - E[cos^2] = (1 - sigma)((2d - 1) sigma - 1) / (2d), which holds
    exactly when sigma >= 1/(2d - 1).
    """
    if density.kind is DensityKind.NORMAL:
        d, s = density.d, density.sigma
        # factored: as E[cos] - 1 + E[sin^2] it cancels and flips sign near zero
        value = (1.0 - s) * ((2 * d - 1) * s - 1.0) / (2 * d)
        return Condition18Result(holds=value >= 0.0, value=value)
    value = density.marginal.expectation(
        lambda t: (1.0 - math.cos(t)) * math.cos(t))
    return Condition18Result(holds=value >= 0.0, value=value)


def _check_variance(v: float, name: str = "variance"):
    if not 0.0 <= v <= 4.0:
        raise ValueError(f"{name} must lie in [0, 4], got {v}")


def variance_compose(v1: float, v2: float) -> float:
    """Variance of two independent isotropic errors in sequence.

    v = v1 + v2 - v1 v2 / 2; symmetric, with 0 as identity and 2 absorbing.
    """
    _check_variance(v1, "v1")
    _check_variance(v2, "v2")
    return v1 + v2 - v1 * v2 / 2.0


def variance_compose_n(v_u: float, n: int) -> float:
    """n-fold composition of a per-step variance: 2 - 2 (1 - v_u/2)^n."""
    _check_variance(v_u, "v_u")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"step count must be a positive integer, got {n}")
    if n == 1:
        return v_u
    return 2.0 - 2.0 * (1.0 - v_u / 2.0) ** n


def variance_split(v_c: float, n: int) -> float:
    """Per-step variance whose n-fold composition reaches v_c.

    v_u = 2 - 2 ((2 - v_c)/2)^(1/n).  Only v_c <= 2 is accepted: beyond 2
    the even-n root leaves the reals, and the decoherence regime treated
    here stays below 2 anyway.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"step count must be a positive integer, got {n}")
    if not 0.0 <= v_c <= 2.0:
        raise ValueError(f"composed variance must lie in [0, 2], got {v_c}")
    if n == 1:
        return v_c
    return 2.0 - 2.0 * ((2.0 - v_c) / 2.0) ** (1.0 / n)
