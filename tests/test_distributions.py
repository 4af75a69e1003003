"""Density, marginal and variance-algebra checks.

Closed forms are pinned against independent quadrature of the raw
integrands; the variance algebra is checked against its sigma
parametrization and against literal repeated composition.
"""

import math

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
    variance_compose,
    variance_compose_n,
    variance_of,
    variance_split,
)
from isoqec.mathcore import (
    LOG_2PI,
    adaptive_quadrature,
    double_factorial_log,
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
        with pytest.raises(ValueError):
            CodeParams(3.0, 1)


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

    def test_table_validation(self):
        theta = np.linspace(0, 3, 10)
        with pytest.raises(ValueError):
            IsotropicDensity.from_table(theta, -np.ones(10), 2)
        with pytest.raises(ValueError):
            IsotropicDensity.from_table(theta, np.zeros(10), 2)
        with pytest.raises(ValueError):
            IsotropicDensity.from_table(theta[::-1], np.ones(10), 2)
        with pytest.raises(ValueError):
            IsotropicDensity.from_table([0.5], [1.0], 2)

    def test_table_normalization_reported(self):
        theta = np.linspace(0, math.pi, 300)
        density = IsotropicDensity.from_table(theta, 7.0 * np.ones(300), 2)
        # constant raw table: divisor is 7 * (mass of the constant-1 table)
        base = IsotropicDensity.from_table(theta, np.ones(300), 2)
        assert density.normalization == pytest.approx(
            7.0 * base.normalization, rel=1e-12)
        # normalized densities coincide
        grid = np.linspace(0.1, 3.0, 7)
        assert np.allclose(density.log_density(grid), base.log_density(grid),
                           atol=1e-12)

    def test_zero_density_outside_table_range(self):
        density = IsotropicDensity.from_table([0.5, 1.5], [1.0, 1.0], 2)
        assert density.log_density(0.2) == -math.inf
        assert density.log_density(2.0) == -math.inf
        assert math.isfinite(density.log_density(1.0))


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

    def test_table_route_matches_linear_space_quadrature(self):
        theta = np.linspace(0.0, math.pi, 400)
        density = IsotropicDensity.from_table(theta, np.exp(-3.0 * theta), 4)
        lo, hi = density.support
        ref = adaptive_quadrature(
            lambda t: math.exp(density.log_density(t)) * math.sin(t) ** 8,
            lo, hi, 1e-11)
        assert self.bar(density) == pytest.approx(ref, rel=1e-9)

    def test_tabulated_normal_agrees_with_closed_form(self):
        # same density through the NORMAL and POLAR_TABLE code paths
        d, s = 4, 0.5
        theta = np.linspace(0.0, math.pi, 4001)
        f = np.exp(normal_density_eval(s, d, theta))
        table = IsotropicDensity.from_table(theta, f, d)
        want = moment_sin2(IsotropicDensity.normal(s, d))
        assert moment_sin2(table) == pytest.approx(want, rel=1e-5)


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


class TestVarianceCompose:
    def test_identity_and_absorbing(self):
        assert variance_compose(0.0, 1.3) == 1.3
        assert variance_compose(1.3, 0.0) == 1.3
        assert variance_compose(2.0, 2.0) == 2.0
        # two antipodally concentrated errors cancel
        assert variance_compose(4.0, 4.0) == 0.0

    def test_sigma_parametrization(self):
        for s1 in (0.0, 0.3, 0.9):
            for s2 in (0.1, 0.5, 0.99):
                got = variance_compose(2 * (1 - s1), 2 * (1 - s2))
                assert got == pytest.approx(2 * (1 - s1 * s2), abs=1e-12)

    @given(st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    def test_commutative_and_in_range(self, v1, v2):
        a = variance_compose(v1, v2)
        assert a == variance_compose(v2, v1)
        assert -1e-12 <= a <= 4.0 + 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            variance_compose(-0.1, 1.0)
        with pytest.raises(ValueError):
            variance_compose(1.0, 4.2)


class TestVarianceComposeN:
    def test_single_step_is_identity(self):
        assert variance_compose_n(1.37, 1) == 1.37

    def test_matches_repeated_composition(self):
        for v in (0.1, 0.9, 2.0, 3.7):
            acc = v
            for n in range(2, 7):
                acc = variance_compose(acc, v)
                assert variance_compose_n(v, n) == pytest.approx(
                    acc, abs=1e-12)

    def test_saturates_at_two(self):
        for n in (1, 3, 10):
            assert variance_compose_n(2.0, n) == pytest.approx(2.0, abs=1e-15)

    def test_monotone_in_steps_below_two(self):
        for v in (0.2, 1.0, 1.9):
            vals = [variance_compose_n(v, n) for n in range(1, 30)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            variance_compose_n(1.0, 0)
        with pytest.raises(ValueError):
            variance_compose_n(1.0, 2.5)


class TestVarianceSplit:
    def test_single_step_is_identity(self):
        assert variance_split(0.77, 1) == 0.77

    def test_sigma_parametrization(self):
        # v_c = 2(1 - sigma_c) splits into 2(1 - sigma_c^(1/n))
        for s in (0.1, 0.9):
            for n in (2, 5):
                assert variance_split(2 * (1 - s), n) == pytest.approx(
                    2 * (1 - s ** (1 / n)), rel=1e-14)

    @settings(max_examples=200)
    @given(st.floats(0.0, 2.0), st.integers(1, 10))
    def test_round_trip(self, v_c, n):
        assert variance_compose_n(variance_split(v_c, n), n) == pytest.approx(
            v_c, abs=1e-10)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            variance_split(2.1, 2)
        with pytest.raises(ValueError):
            variance_split(-0.1, 3)
        with pytest.raises(ValueError):
            variance_split(1.0, 0)


class TestDescriptor:
    def test_kind_specific_fields(self):
        assert IsotropicDensity.normal(0.3, 4).descriptor() == {
            "kind": "normal", "d": 4, "sigma": 0.3}
        cap = IsotropicDensity.uniform_cap(1.0, 2).descriptor()
        assert cap["theta_max"] == 1.0
        table = IsotropicDensity.from_table(
            [0.0, 1.0, 2.0], [1.0, 2.0, 1.0], 2).descriptor()
        assert table["kind"] == "polar_table" and table["nodes"] == 3
