"""Checks for the log-domain special functions against independent oracles.

Double factorials are checked against exact big-integer products, sphere
surfaces against the gamma-function formula and a quadrature-built
recursion, and the kernel closed forms against direct adaptive quadrature
of the raw integrands.
"""

import math

import pytest

from isoqec.experiments import KERNEL_D_GRID, KERNEL_SIGMA_GRID
from isoqec.mathcore import (
    KernelVariant,
    QuadratureError,
    adaptive_quadrature,
    double_factorial_log,
    log_sphere_surface,
    poisson_kernel_integral,
    poisson_kernel_integrand,
    sin_power_integral,
    sin_power_partial,
    sphere_surface,
)


def exact_double_factorial(k):
    # big-integer product oracle, independent of the lgamma route
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


class TestDoubleFactorial:
    def test_conventions(self):
        assert double_factorial_log(-1) == 0.0
        assert double_factorial_log(0) == 0.0

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            double_factorial_log(-2)

    def test_small_values_materialize_exactly(self):
        # 20!! = 3715891200; every k <= 20 must round-trip to the exact integer
        for k in range(0, 21):
            got = math.exp(double_factorial_log(k))
            want = exact_double_factorial(k)
            assert int(round(got)) == want
            assert got == pytest.approx(want, rel=1e-13)

    def test_log_63_matches_bigint_oracle(self):
        want = math.log(exact_double_factorial(63))  # math.log takes big ints
        got = double_factorial_log(63)
        assert got == pytest.approx(want, rel=1e-13)

    def test_log_large_values(self):
        for k in (64, 127, 128, 255):
            want = math.log(exact_double_factorial(k))
            assert double_factorial_log(k) == pytest.approx(
                want, rel=1e-13)


class TestSinPowerIntegral:
    def test_base_cases(self):
        assert sin_power_integral(0) == pytest.approx(math.pi, rel=1e-15)
        assert sin_power_integral(1) == pytest.approx(2.0, rel=1e-15)
        assert sin_power_integral(2) == pytest.approx(math.pi / 2, rel=1e-14)
        assert sin_power_integral(4) == pytest.approx(3 * math.pi / 8, rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sin_power_integral(-1)

    def test_parity_recursion(self):
        # I_k = (k-1)/k * I_{k-2} holds for both parities
        for k in range(2, 130):
            assert sin_power_integral(k) == pytest.approx(
                (k - 1) / k * sin_power_integral(k - 2), rel=1e-13)

    def test_against_quadrature(self):
        for k in (3, 10, 63, 127):
            ref = adaptive_quadrature(lambda t: math.sin(t) ** k, 0.0, math.pi,
                                      1e-12)
            assert sin_power_integral(k) == pytest.approx(ref, rel=1e-11)


class TestSinPowerPartial:
    # angles on the series, upper-tail and lower-tail routes
    ANGLES = (1e-6, 0.3, 1.0, math.pi / 2, 2.0, math.pi)

    def test_low_powers_in_elementary_form(self):
        for alpha in self.ANGLES:
            flat = sin_power_partial(0, alpha)
            assert flat.log_integral == pytest.approx(math.log(alpha),
                                                      abs=1e-14)
            assert flat.mean_cos == pytest.approx(math.sin(alpha) / alpha,
                                                  abs=1e-14)
            # alpha/2 - sin(2 alpha)/4, which cancels to alpha^3/3 near 0
            square = (alpha ** 3 / 3 if alpha < 1e-3
                      else alpha / 2 - math.sin(2 * alpha) / 4)
            assert sin_power_partial(2, alpha).log_integral == pytest.approx(
                math.log(square), rel=1e-13)

    def test_full_and_half_range(self):
        for k in (1, 2, 10, 63, 126):
            whole = sin_power_partial(k, math.pi)
            assert math.exp(whole.log_integral) == pytest.approx(
                sin_power_integral(k), rel=1e-13)
            assert abs(whole.mean_cos) < 1e-15
            half = sin_power_partial(k, math.pi / 2)
            assert math.exp(half.log_integral) == pytest.approx(
                sin_power_integral(k) / 2, rel=1e-13)

    def test_rejects_bad_arguments(self):
        for k, alpha in ((-1, 1.0), (2, 0.0), (2, 3.5)):
            with pytest.raises(ValueError):
                sin_power_partial(k, alpha)


class TestSphereSurface:
    def test_known_values(self):
        assert sphere_surface(0) == pytest.approx(2.0, rel=1e-15)
        assert sphere_surface(1) == pytest.approx(2 * math.pi, rel=1e-15)
        assert sphere_surface(2) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_surface(3) == pytest.approx(2 * math.pi ** 2, rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sphere_surface(-1)

    def test_gamma_formula(self):
        # |S^D| = 2 pi^((D+1)/2) / Gamma((D+1)/2), an independent route
        for dim in range(0, 129):
            want = 2.0 * math.exp(0.5 * (dim + 1) * math.log(math.pi)
                                  - math.lgamma(0.5 * (dim + 1)))
            assert sphere_surface(dim) == pytest.approx(want, rel=1e-13)

    def test_log_form_beyond_float_range(self):
        # |S^D| underflows float64 long before the coded spheres of n >= 8
        # qubits (D = 2^(n+1) - 2); the log form stays exact there
        for dim in (455, 510, 8190):
            want = (math.log(2.0) + 0.5 * (dim + 1) * math.log(math.pi)
                    - math.lgamma(0.5 * (dim + 1)))
            assert log_sphere_surface(dim) == pytest.approx(want, rel=1e-13)
        assert sphere_surface(455) == 0.0
        for dim in range(0, 129):
            assert math.exp(log_sphere_surface(dim)) == sphere_surface(dim)

    def test_recursion_through_sin_integral(self):
        # |S^D| = |S^(D-1)| * int sin^(D-1)
        for dim in range(2, 129):
            assert sphere_surface(dim) == pytest.approx(
                sphere_surface(dim - 1) * sin_power_integral(dim - 1),
                rel=1e-12)


class TestPoissonKernelIntegral:
    def test_sigma_zero_reduces_to_sin_powers(self):
        for d in (1, 2, 5, 32):
            assert poisson_kernel_integral(
                d, 0.0, KernelVariant.SIN_2D_MINUS_2) == pytest.approx(
                    sin_power_integral(2 * d - 2), rel=1e-13)
            assert poisson_kernel_integral(
                d, 0.0, KernelVariant.COS_SIN_2D_MINUS_2) == 0.0

    def test_known_values(self):
        # d=1, numerator sin^0: plain Poisson kernel integral pi/(1-s^2)
        assert poisson_kernel_integral(
            1, 0.5, KernelVariant.SIN_2D_MINUS_2) == pytest.approx(
                math.pi / 0.75, rel=1e-14)
        # sin^(2d) variant is independent of sigma: d=2 gives 3 pi / 8
        for sigma in (0.0, 0.3, 0.5, 0.99):
            assert poisson_kernel_integral(
                2, sigma, KernelVariant.SIN_2D) == pytest.approx(
                    3 * math.pi / 8, rel=1e-14)
        # frozen quadrature value for the cosine variant at d=2, sigma=0.3
        assert poisson_kernel_integral(
            2, 0.3, KernelVariant.COS_SIN_2D_MINUS_2) == pytest.approx(
                0.5178449428994164678, rel=1e-13)

    def test_rejects_bad_sigma(self):
        for sigma in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                poisson_kernel_integral(2, sigma, KernelVariant.SIN_2D)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            poisson_kernel_integral(0, 0.5, KernelVariant.SIN_2D)

    def test_sin_2d_variant_decreases_with_d(self):
        values = [poisson_kernel_integral(d, 0.7, KernelVariant.SIN_2D)
                  for d in range(1, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_agrees_with_quadrature(self):
        # spot grid; the full d <= 64, sigma <= 0.99 grid runs in acceptance
        for d in (1, 2, 8, 32):
            for sigma in (0.0, 0.3, 0.9):
                for variant in KernelVariant:
                    ref = adaptive_quadrature(
                        poisson_kernel_integrand(d, sigma, variant),
                        0.0, math.pi, 1e-12, abs_tol=1e-13,
                        points=[math.acos(sigma)])
                    assert poisson_kernel_integral(
                        d, sigma, variant) == pytest.approx(
                            ref, rel=1e-10, abs=1e-13)


def inline_kernel_integrand(d, sigma, variant, t):
    # the integrand written out in one expression per variant
    s, c = math.sin(t), math.cos(t)
    kernel = 1.0 + sigma * sigma - 2.0 * sigma * c
    if variant is KernelVariant.SIN_2D:
        return (s * s / kernel) ** d
    if variant is KernelVariant.COS_SIN_2D_MINUS_2:
        return (s * s / kernel) ** (d - 1) * c / kernel
    return (s * s / kernel) ** (d - 1) / kernel


class TestKernelIntegrand:
    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_matches_inline_formula_exactly(self, variant):
        for d in KERNEL_D_GRID:
            for sigma in KERNEL_SIGMA_GRID:
                f = poisson_kernel_integrand(d, sigma, variant)
                ts = [0.0, 5e-324, math.acos(sigma), math.pi] \
                    + [math.pi * i / 97 for i in range(1, 97)]
                for t in ts:
                    assert f(t) == inline_kernel_integrand(
                        d, sigma, variant, t), (d, sigma, t)

    @pytest.mark.parametrize("variant", [
        KernelVariant.SIN_2D_MINUS_2, KernelVariant.COS_SIN_2D_MINUS_2])
    def test_where_sin_vanishes(self, variant):
        # at d = 1 the numerator is 1 or cos t, so at t = 0 the integrand
        # is its limit 1/(1 - sigma)^2, 4 at sigma = 0.5; at t = 5e-324
        # sin^2 t underflows to 0, and nothing is divided by it
        for t in (0.0, 5e-324):
            assert poisson_kernel_integrand(1, 0.5, variant)(t) == 4.0
            assert poisson_kernel_integrand(2, 0.5, variant)(t) == 0.0


class TestAdaptiveQuadrature:
    def test_simple_integral(self):
        assert adaptive_quadrature(math.sin, 0.0, math.pi,
                                   1e-12) == pytest.approx(2.0, rel=1e-12)

    def test_sharply_peaked_high_power(self):
        got = adaptive_quadrature(lambda t: math.sin(t) ** 62, 0.0, math.pi,
                                  1e-12)
        assert got == pytest.approx(sin_power_integral(62), rel=1e-11)

    def test_near_singular_kernel(self):
        d, sigma = 32, 0.9
        got = adaptive_quadrature(
            poisson_kernel_integrand(d, sigma, KernelVariant.SIN_2D),
            0.0, math.pi, 1e-11, points=[math.acos(sigma)])
        assert got == pytest.approx(
            poisson_kernel_integral(d, sigma, KernelVariant.SIN_2D), rel=1e-9)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError) as exc:
            adaptive_quadrature(lambda t: 1.0 / t if t > 0 else 0.0,
                                0.0, 1.0, 1e-10)
        assert (exc.value.a, exc.value.b) == (0.0, 1.0)
        assert isinstance(exc.value.neval, int) and exc.value.neval > 0
        assert f"neval={exc.value.neval}" in str(exc.value)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(math.sin, 0.0, 1.0, 0.0)

    def test_zero_integral_with_abs_floor(self):
        got = adaptive_quadrature(math.cos, 0.0, math.pi, 1e-10,
                                  abs_tol=1e-13)
        assert abs(got) < 1e-13

    def test_points_outside_interval_ignored(self):
        got = adaptive_quadrature(math.sin, 0.0, 1.0, 1e-12,
                                  points=[5.0, -1.0])
        assert got == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)
