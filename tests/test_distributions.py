"""Density, marginal and polar-moment checks.

Closed forms are pinned against independent quadrature of the raw
integrands and of the polar marginal; the n-fold variance composition is
checked against its sigma parametrization and against literal repeated
composition.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoqec.distributions import (
    CodeParams,
    DensityKind,
    IsotropicDensity,
    condition_18,
    marginal_polar,
    moment_sin2,
    normal_density_eval,
    variance_compose_n,
    variance_of,
)
from isoqec.mathcore import (
    LOG_2PI,
    adaptive_quadrature,
    double_factorial_log,
    log_sphere_surface,
    sphere_surface,
)

from suite import make_suite


class TestCodeParams:
    def test_dimension_fields(self):
        p = CodeParams(5, 1)
        assert (p.d, p.d_prime, p.d_dprime) == (32, 2, 16)
        p = CodeParams(5, 4)
        assert (p.d, p.d_prime, p.d_dprime) == (32, 16, 2)
        p = CodeParams(4, 2)
        assert (p.d, p.d_prime, p.d_dprime) == (16, 4, 4)
        p = CodeParams(3, 1)
        assert (p.d, p.d_prime, p.d_dprime) == (8, 2, 4)

    def test_rejects_bad_parameters(self):
        for n, m in [(1, 1), (3, 3), (3, 0), (2, 3)]:
            with pytest.raises(ValueError):
                CodeParams(n, m)
        for n, m in [(3.0, 1), (2, True), (True, 1), (3, False)]:
            with pytest.raises(ValueError, match="integers"):
                CodeParams(n, m)


class TestNormalDensityEval:
    def test_matches_naive_formula_at_moderate_d(self):
        # small enough that the unlogged formula is representable
        d, s = 4, 0.5
        for t in (0.0, 0.7, 2.0, math.pi):
            kernel = 1 + s * s - 2 * s * math.cos(t)
            naive = 48.0 / (2 * math.pi) ** 4 * (1 - s * s) / kernel ** 4
            assert normal_density_eval(s, d, t) == pytest.approx(
                math.log(naive), rel=1e-13)

    def test_sigma_zero_is_constant(self):
        d = 8
        want = double_factorial_log(2 * d - 2) - d * LOG_2PI
        grid = np.linspace(0, math.pi, 50)
        assert np.allclose(normal_density_eval(0.0, d, grid), want, rtol=0,
                           atol=1e-14)

    def test_peak_beyond_float_range_stays_finite_in_log(self):
        lg = normal_density_eval(0.99, 64, 0.0)
        assert lg > 709.0  # exp(lg) would overflow float64
        assert math.isfinite(lg)

    def test_scalar_in_scalar_out(self):
        out = normal_density_eval(0.3, 2, 1.0)
        assert isinstance(out, float)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            normal_density_eval(1.0, 2, 0.5)
        with pytest.raises(ValueError):
            normal_density_eval(-0.1, 2, 0.5)
        with pytest.raises(ValueError):
            normal_density_eval(0.5, 0, 0.5)


class TestIsotropicDensityConstruction:
    def test_marginal_mass_is_one(self):
        # independent trapezoid integration of the marginal on a dense grid
        for label, density in make_suite(4):
            lo, hi = density.support
            grid = np.linspace(lo, hi, 200001)
            mass = np.trapezoid(np.exp(density.log_marginal(grid)), grid)
            assert mass == pytest.approx(1.0, abs=5e-7), label

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            IsotropicDensity.uniform_cap(0.0, 4)
        with pytest.raises(ValueError):
            IsotropicDensity.uniform_cap(3.5, 4)

    def test_zero_density_outside_cap(self):
        density = IsotropicDensity.uniform_cap(1.5, 2)
        assert density.log_density(-0.1) == -math.inf
        assert density.log_density(2.0) == -math.inf
        assert math.isfinite(density.log_density(1.0))
        assert density.log_density(1.5) == density.log_density(0.0)


class TestPolarMarginal:
    def test_uniform_d1_is_flat(self):
        density = IsotropicDensity.uniform(1)
        m = marginal_polar(density)
        grid = np.linspace(0.1, 3.0, 9)
        assert np.allclose(np.exp(density.log_marginal(grid)), 1.0 / math.pi,
                           rtol=1e-12)
        assert np.allclose(np.interp(grid, m.theta, m.cdf), grid / math.pi,
                           rtol=0, atol=1e-12)

    def test_uniform_peaks_at_equator(self):
        density = IsotropicDensity.uniform(32)
        m = marginal_polar(density)
        assert m.argmax == pytest.approx(math.pi / 2, abs=1e-3)
        assert density.log_marginal(math.pi / 2 - 0.3) == pytest.approx(
            density.log_marginal(math.pi / 2 + 0.3), rel=1e-12)

    def test_normal_mode_location(self):
        # dense-scan oracle for d=32, sigma=0.9: mode at 0.38971456867781385
        m = marginal_polar(IsotropicDensity.normal(0.9, 32))
        assert m.argmax == pytest.approx(0.38971456867781385, abs=1e-3)
        assert 0.0 < m.argmax < math.pi / 2

    def test_grid_size_and_cdf_shape(self):
        m = marginal_polar(IsotropicDensity.normal(0.99, 16))
        assert m.theta.size >= 4096
        assert m.cdf[0] == 0.0 and m.cdf[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(m.cdf) >= 0)

    def test_ppf_cdf_consistency(self):
        m = marginal_polar(IsotropicDensity.normal(0.7, 8))
        u = np.linspace(0.001, 0.999, 997)
        assert np.max(np.abs(np.interp(m.ppf(u), m.theta, m.cdf) - u)) < 1e-12

    def test_expectation_of_one(self):
        for label, density in make_suite(16):
            total = density.marginal.expectation(lambda t: 1.0)
            assert total == pytest.approx(1.0, abs=1e-9), label

    @pytest.mark.parametrize("density", [
        *(IsotropicDensity.normal(s, d) for d in (1, 2, 8, 32, 128, 4096)
          for s in (0.0, 0.5, 0.99)),
        IsotropicDensity.uniform_cap(math.pi / 4, 8),
        IsotropicDensity.uniform_cap(math.pi, 2),
    ], ids=lambda density: "-".join(map(str, density.descriptor().values())))
    def test_table_inverts_its_cdf_and_keeps_the_exact_mean(self, density):
        # sample_states draws theta0 from this table; it must span the
        # support, invert its own CDF at every node, and carry the mean
        # angle that quadrature of the exact density gives
        m = density.marginal
        assert (m.theta[0], m.theta[-1]) == density.support
        assert np.all(np.diff(m.theta) > 0)
        assert m.cdf[0] == 0.0 and m.cdf[-1] == 1.0
        step = np.diff(m.cdf)
        inner = np.nonzero((step[:-1] > 0) & (step[1:] > 0))[0] + 1
        assert np.array_equal(m.ppf(m.cdf[inner]), m.theta[inner])
        u = (np.arange(200_000) + 0.5) / 200_000
        draws = m.ppf(u)
        assert np.all(np.diff(draws) >= 0)
        assert draws.mean() == pytest.approx(m.expectation(lambda t: t),
                                             rel=1e-3)

    def test_out_of_range_draws_match_interpolation(self):
        m = IsotropicDensity.normal(0.5, 8).marginal
        u = np.array([-0.5, 0.25, 1.5])
        got = m.ppf(u)
        assert np.array_equal(got, np.interp(u, m.cdf, m.theta))
        assert (got[0], got[2]) == (m.theta[0], m.theta[-1])
        assert np.isnan(m.ppf(np.array([0.5, np.nan]))[1])

    @pytest.mark.parametrize("build", [
        lambda: IsotropicDensity.normal(0.5, 8),
        lambda: IsotropicDensity.uniform_cap(math.pi / 4, 8),
    ])
    def test_dropping_density_frees_its_marginal(self, build):
        # the marginal must not point back at the density that caches it,
        # or every sweep cell's tables wait for the cyclic collector
        gc.disable()
        try:
            density = build()
            density.marginal.ppf(np.linspace(0.0, 1.0, 9))
            ref = weakref.ref(density.marginal)
            del density
            assert ref() is None
        finally:
            gc.enable()

    def test_expectation_needs_its_density(self):
        m = marginal_polar(IsotropicDensity.normal(0.5, 8))
        assert m.ppf(np.array([0.5]))[0] > 0.0
        with pytest.raises(ReferenceError, match="freed"):
            m.expectation(math.cos)

    def test_unrepresentable_density_raises_value_error(self):
        density = IsotropicDensity.normal(0.5, 2 ** 100)
        with pytest.raises(ValueError, match="no node of the grid carries "
                           "representable mass") as info:
            density.marginal
        assert str(density.descriptor()) in str(info.value)


class TestVarianceOf:
    def test_normal_closed_form(self):
        assert variance_of(IsotropicDensity.normal(0.5, 8)) == 1.0

    def test_normal_closed_form_matches_quadrature(self):
        for d in (1, 2, 32):
            for s in (0.0, 0.5, 0.9, 0.99):
                density = IsotropicDensity.normal(s, d)
                quad_v = 2.0 - 2.0 * density.marginal.expectation(math.cos)
                assert variance_of(density) == pytest.approx(
                    quad_v, abs=1e-8)

    def test_uniform_has_variance_two(self):
        for d in (1, 4, 32):
            assert variance_of(IsotropicDensity.uniform(d)) == pytest.approx(
                2.0, abs=1e-9)

    def test_tiny_cap_has_tiny_variance(self):
        assert 0.0 <= variance_of(IsotropicDensity.uniform_cap(1e-4, 16)) < 1e-7

    def test_range_across_suite(self):
        for d in (1, 4):
            for label, density in make_suite(d):
                assert 0.0 <= variance_of(density) <= 4.0, label


class TestMomentSin2:
    def test_normal_closed_form_value(self):
        # (2d-1)(1-s^2)/(2d) at d=4, s=0.7 is exactly 0.44625
        assert moment_sin2(IsotropicDensity.normal(0.7, 4)) == pytest.approx(
            0.44625, rel=1e-15)

    def test_closed_form_matches_quadrature(self):
        for d in (1, 4, 32):
            for s in (0.0, 0.7, 0.99):
                density = IsotropicDensity.normal(s, d)
                quad_m = density.marginal.expectation(
                    lambda t: math.sin(t) ** 2)
                assert moment_sin2(density) == pytest.approx(quad_m, abs=1e-9)

    def test_uniform_d1(self):
        assert moment_sin2(IsotropicDensity.uniform(1)) == pytest.approx(
            0.5, rel=1e-12)

    def test_concentrated_density_small_moment(self):
        assert moment_sin2(IsotropicDensity.normal(0.999, 8)) < 3e-3


class TestBarMoment:
    """int f sin^(2d) = E_g[sin^2] / |S^(2d-2)|, the paper's fidelity moment."""

    @staticmethod
    def bar(density):
        return moment_sin2(density) / sphere_surface(2 * density.d - 2)

    def test_uniform_d1_is_quarter(self):
        # f = 1/(2 pi), int sin^2 = pi/2
        assert self.bar(IsotropicDensity.uniform(1)) == pytest.approx(
            0.25, rel=1e-11)

    def test_exp_of_log_version(self):
        # exact linear-space closed form at d = 3, sigma = 0.4:
        # 4!!/(2 pi)^3 (1 - s^2) 5!!/6!! pi = 8 * 0.84 * 15 / (48 * 8 pi^2)
        density = IsotropicDensity.normal(0.4, 3)
        want = 8 * 0.84 * 15 / (48 * 8 * math.pi ** 2)
        assert self.bar(density) == pytest.approx(want, rel=1e-14)

    def test_normal_ratio_property(self):
        # closed form scales exactly by (1 - sigma^2) against sigma = 0
        for d in (2, 8, 32):
            base = moment_sin2(IsotropicDensity.normal(0.0, d))
            for s in (0.3, 0.9, 0.99):
                got = moment_sin2(IsotropicDensity.normal(s, d))
                assert got / base == pytest.approx(1.0 - s * s, rel=1e-12)

    def test_cap_route_matches_linear_space_quadrature(self):
        density = IsotropicDensity.uniform_cap(2.0, 4)
        lo, hi = density.support
        ref = adaptive_quadrature(
            lambda t: math.exp(density.log_density(t)) * math.sin(t) ** 8,
            lo, hi, 1e-11)
        assert self.bar(density) == pytest.approx(ref, rel=1e-9)


CAP_D_GRID = (1, 2, 4, 8, 16, 32, 64, 256, 4096)
CAP_ANGLES = (1e-6, 0.3, math.pi / 4, math.pi / 2 - 1e-3, math.pi / 2 + 1e-3,
              math.pi / 2 - 1e-7, math.pi / 2 + 1e-7, math.pi / 2, 2.0,
              3 * math.pi / 4, math.pi)


class TestCapClosedForms:
    """Cap moments from the partial sin-power integral vs quadrature."""

    @pytest.mark.parametrize("d", CAP_D_GRID)
    def test_moments_match_marginal_quadrature(self, d):
        for alpha in CAP_ANGLES:
            density = IsotropicDensity.uniform_cap(alpha, d)
            expect = density.marginal.expectation
            mean_cos = expect(math.cos)
            pairs = {
                "mean_cos": (density._cap.mean_cos, mean_cos),
                "sin2": (moment_sin2(density),
                         expect(lambda t: math.sin(t) ** 2)),
                "cond18": (condition_18(density).value,
                           expect(lambda t: (1.0 - math.cos(t)) * math.cos(t))),
                "variance": (variance_of(density), 2.0 - 2.0 * mean_cos),
            }
            for name, (closed, quad) in pairs.items():
                assert abs(closed - quad) <= 1e-10, (alpha, name, closed, quad)

    @pytest.mark.parametrize("d", CAP_D_GRID)
    def test_log_level_matches_quadrature(self, d):
        k = 2 * d - 2
        for alpha in CAP_ANGLES:
            # sin^k over its value at the peak, so nothing underflows
            shift = k * math.log(math.sin(min(alpha, math.pi / 2)))
            area = adaptive_quadrature(
                lambda t: math.exp(k * math.log(math.sin(t)) - shift)
                if t > 0.0 else float(k == 0),
                0.0, alpha, 1e-13, points=[math.pi / 2])
            want = -(log_sphere_surface(k) + shift + math.log(area))
            got = IsotropicDensity.uniform_cap(alpha, d)._cap_log_level
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), alpha

    @pytest.mark.parametrize("d", [2 ** 20, 2 ** 40])
    def test_huge_dimensions_stay_finite_and_bounded(self, d):
        # scipy's hyp2f1 for the mean cosine returns NaN near pi/2 here
        for alpha in CAP_ANGLES:
            density = IsotropicDensity.uniform_cap(alpha, d)
            mean_cos = density._cap.mean_cos
            assert max(math.cos(alpha), 0.0) - 1e-12 <= mean_cos <= 1.0, alpha
            for value in (density._cap_log_level, moment_sin2(density),
                          condition_18(density).value, variance_of(density)):
                assert math.isfinite(value), alpha


class TestCondition18:
    def test_uniform_value_is_exact(self):
        # E[cos] = 0 and E[cos^2] = 1/(2d): value -1/64 at d=32
        holds, value = condition_18(IsotropicDensity.uniform(32))
        assert not holds
        assert value == pytest.approx(-1.0 / 64.0, abs=1e-9)

    def test_normal_closed_form_value(self):
        # sigma - (1 + (2d-1) sigma^2)/(2d) = 0.08703125 at d=32, sigma=0.9
        holds, value = condition_18(IsotropicDensity.normal(0.9, 32))
        assert holds
        assert value == pytest.approx(0.08703125, abs=1e-9)

    def test_normal_quadrature_matches_moment_identity(self):
        for d in (2, 16):
            for s in (0.1, 0.5, 0.9):
                want = s - (1 + (2 * d - 1) * s * s) / (2 * d)
                assert condition_18(
                    IsotropicDensity.normal(s, d)).value == pytest.approx(
                        want, abs=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.9, 0.99])
    def test_normal_closed_forms_match_quadrature(self, d, sigma):
        # the two checks normal densities skip: the construction-time
        # mass check and the condition_18 quadrature
        density = IsotropicDensity.normal(sigma, d)
        assert abs(density.marginal.expectation(lambda t: 1.0) - 1.0) < 1e-8
        want = density.marginal.expectation(
            lambda t: (1.0 - math.cos(t)) * math.cos(t))
        assert abs(condition_18(density).value - want) < 1e-10

    def test_caps_within_quarter_turn_hold(self):
        for d in (2, 8):
            for tmax in (0.3, math.pi / 4, math.pi / 2):
                assert condition_18(IsotropicDensity.uniform_cap(tmax, d)).holds

    def test_wide_cap_fails(self):
        holds, value = condition_18(IsotropicDensity.uniform_cap(3.0, 1))
        assert not holds
        assert value < -0.3


def compose_pair(v1, v2):
    # variance of two independent isotropic errors in sequence
    return v1 + v2 - v1 * v2 / 2.0


class TestVarianceComposeN:
    def test_single_step_is_identity(self):
        assert variance_compose_n(1.37, 1) == 1.37

    @pytest.mark.parametrize("n", [True, False, 0, -1, 2.0])
    def test_rejects_bad_step_counts(self, n):
        # bool is an int subclass, but True is no step count of 1
        with pytest.raises(ValueError, match="step count") as exc:
            variance_compose_n(3.0, n)
        assert repr(n) in str(exc.value)

    def test_identity_and_absorbing(self):
        assert variance_compose_n(0.0, 5) == 0.0
        assert variance_compose_n(2.0, 2) == 2.0
        # two antipodally concentrated errors cancel, a third restores
        assert variance_compose_n(4.0, 2) == 0.0
        assert variance_compose_n(4.0, 3) == 4.0

    def test_sigma_parametrization(self):
        # n steps of a normal error at sigma compose to sigma^n
        for s in (0.0, 0.3, 0.9, 0.99):
            for n in (2, 3, 7):
                assert variance_compose_n(2 * (1 - s), n) == pytest.approx(
                    2 * (1 - s ** n), abs=1e-12)

    def test_matches_repeated_composition(self):
        for v in (0.1, 0.9, 2.0, 3.7):
            acc = v
            for n in range(2, 7):
                acc = compose_pair(acc, v)
                assert variance_compose_n(v, n) == pytest.approx(
                    acc, abs=1e-12)

    @given(st.floats(0.0, 4.0), st.integers(1, 10))
    def test_in_range(self, v, n):
        assert -1e-12 <= variance_compose_n(v, n) <= 4.0 + 1e-12

    def test_saturates_at_two(self):
        for n in (1, 3, 10):
            assert variance_compose_n(2.0, n) == pytest.approx(2.0, abs=1e-15)

    def test_monotone_in_steps_below_two(self):
        for v in (0.2, 1.0, 1.9):
            vals = [variance_compose_n(v, n) for n in range(1, 30)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_array_matches_scalar(self):
        v = np.linspace(0.0, 4.0, 41)
        for n in (1, 2, 5):
            got = variance_compose_n(v, n)
            assert got.shape == v.shape
            assert got.tolist() == [variance_compose_n(x, n) for x in v]

    def test_negative_base_above_two(self):
        # for v > 2 the base 1 - v/2 is negative; the sign is put back
        # by hand, so check every step count against libm's pow
        v = np.linspace(2.0, 4.0, 2001)
        for n in range(1, 65):
            got = variance_compose_n(v, n)
            assert got.tolist() == [variance_compose_n(x, n) for x in v]
            assert variance_compose_n(4.0, n) == (4.0 if n % 2 else 0.0)
            want = [2 - 2 * math.pow(1 - x / 2, n) for x in v]
            # one ulp of [2, 4), 2^-51 ~ 4.4e-16
            assert np.max(np.abs(got - want)) <= np.spacing(2.0)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            variance_compose_n(1.0, 0)
        with pytest.raises(ValueError):
            variance_compose_n(1.0, 2.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            variance_compose_n(-0.1, 2)
        with pytest.raises(ValueError):
            variance_compose_n(4.2, 2)
        with pytest.raises(ValueError):
            variance_compose_n(np.array([1.0, 4.2]), 2)


class TestDescriptor:
    def test_kind_specific_fields(self):
        assert IsotropicDensity.normal(0.3, 4).descriptor() == {
            "kind": "normal", "d": 4, "sigma": 0.3}
        assert IsotropicDensity.uniform_cap(1.0, 2).descriptor() == {
            "kind": "uniform_cap", "d": 2, "theta_max": 1.0}
