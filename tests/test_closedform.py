"""Closed-form fidelity and bound checks.

The main cross-route identity: for any isotropic density the fidelities
must equal the paper's form 1 - 4 (2 pi)^(d-1)/(2d-1)!! w int f sin^(2d)
with the matching weight w, where the integral comes from linear-space
quadrature of the density itself rather than from its polar marginal.
Frozen literals pin the published example cells.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoqec.closedform import (
    BoundVariant,
    bound_corrected_upper,
    bound_psi0_lower,
    fidelity_corrected,
    fidelity_psi,
    fidelity_psi_normal,
    full_report,
    lemma_g,
)
from isoqec.distributions import (
    CodeParams,
    IsotropicDensity,
    condition_18,
    variance_of,
)
from isoqec.mathcore import adaptive_quadrature, sphere_surface

from suite import make_suite

P51 = CodeParams(5, 1)
P54 = CodeParams(5, 4)
P42 = CodeParams(4, 2)
P31 = CodeParams(3, 1)
# the unencoded error of the (5, 1) cell at sigma_c = 0.9: n = 5 steps
UNCODED_51 = IsotropicDensity.normal(0.9 ** (1 / 5), 2)
ALL_CODES = [P51, P54, P42, P31]


def sin2_expectation(density):
    # |S^(2d-2)| int f sin^(2d), with no polar-marginal table involved
    d = density.d
    lo, hi = density.support
    bar = adaptive_quadrature(
        lambda t: math.exp(density.log_density(t)) * math.sin(t) ** (2 * d),
        lo, hi, 1e-11, limit=4000)
    return sphere_surface(2 * d - 2) * bar


class TestFidelityPsi:
    def test_frozen_normal_value(self):
        density = IsotropicDensity.normal(0.9, 32)
        assert fidelity_psi(density) == pytest.approx(
            0.8159375, abs=1e-12)

    def test_agrees_with_normal_closed_form(self):
        for d in (1, 2, 8, 32):
            for s in (0.0, 0.3, 0.9, 0.99):
                got = fidelity_psi(IsotropicDensity.normal(s, d))
                assert got == pytest.approx(fidelity_psi_normal(s, d),
                                            abs=1e-12)

    def test_uniform_gives_one_over_d(self):
        for d in (1, 2, 4, 32):
            assert fidelity_psi(IsotropicDensity.uniform(d)) == pytest.approx(
                1.0 / d, abs=1e-12)

    def test_moment_identity_all_kinds(self):
        # dual route: marginal moment vs quadrature of f sin^(2d)
        d = 4
        for label, density in make_suite(d):
            want = 1.0 - (2 * d - 2) / (2 * d - 1) * sin2_expectation(density)
            assert fidelity_psi(density) == pytest.approx(
                want, abs=1e-9), label

    def test_trivial_dimension_is_exact(self):
        assert fidelity_psi(IsotropicDensity.uniform(1)) == 1.0


class TestFidelityPsiNormal:
    def test_endpoints(self):
        assert fidelity_psi_normal(0.0, 32) == pytest.approx(1 / 32, rel=1e-15)
        assert fidelity_psi_normal(1.0, 32) == 1.0

    def test_limit_toward_one(self):
        assert fidelity_psi_normal(1.0 - 1e-9, 32) > 1.0 - 1e-6

    def test_monotone_in_sigma(self):
        vals = [fidelity_psi_normal(s / 100, 16) for s in range(101)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_array_matches_scalar(self):
        sigma = np.linspace(0.0, 1.0, 11)
        got = fidelity_psi_normal(sigma, 16)
        assert got.shape == sigma.shape
        assert got.tolist() == [fidelity_psi_normal(s, 16) for s in sigma]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fidelity_psi_normal(1.1, 4)
        with pytest.raises(ValueError):
            fidelity_psi_normal(0.5, 0)
        with pytest.raises(ValueError):
            fidelity_psi_normal(np.array([0.5, 1.1]), 4)


class TestFidelityPsi0:
    """The unencoded fidelity: fidelity_psi on the logical sphere."""

    def test_frozen_split_value(self):
        # sigma_u = 0.9^(1/5) on the logical sphere d' = 2
        sigma_u = 0.9 ** (1.0 / 5.0)
        density = IsotropicDensity.normal(sigma_u, 2)
        assert fidelity_psi(density) == pytest.approx(
            0.9793657577570913544, abs=1e-12)
        assert fidelity_psi(density) == pytest.approx(
            (1.0 + 0.9 ** 0.4) / 2.0, abs=1e-14)

    def test_uniform_logical_sphere(self):
        assert fidelity_psi(IsotropicDensity.uniform(2)) == pytest.approx(
            0.5, abs=1e-12)


class TestFidelityCorrected:
    def test_frozen_values(self):
        n09 = IsotropicDensity.normal(0.9, 32)
        assert fidelity_corrected(n09, P51) == pytest.approx(0.905, abs=1e-12)
        assert fidelity_corrected(n09, P54) == pytest.approx(
            (1 + 15 * 0.81) / 16, abs=1e-12)

    def test_agrees_with_logical_normal_form(self):
        # corrected fidelity collapses to (1 + (d'-1) s^2)/d' for normals
        for params in ALL_CODES:
            for s in (0.0, 0.3, 0.9, 0.99):
                got = fidelity_corrected(
                    IsotropicDensity.normal(s, params.d), params)
                assert got == pytest.approx(
                    fidelity_psi_normal(s, params.d_prime), abs=1e-12)

    def test_moment_identity_all_kinds(self):
        # dual route: marginal moment vs quadrature of f sin^(2d)
        params = P31
        d = params.d
        for label, density in make_suite(d):
            want = 1.0 - (2 * (d - params.d_dprime) / (2 * d - 1)
                          * sin2_expectation(density))
            assert fidelity_corrected(density, params) == pytest.approx(
                want, abs=1e-9), label

    def test_correction_helps_all_kinds(self):
        for params in (P51, P42):
            for label, density in make_suite(params.d):
                raw = fidelity_psi(density)
                corrected = fidelity_corrected(density, params)
                assert corrected > raw - 1e-12, label

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_corrected(IsotropicDensity.uniform(8), P51)


class TestBoundPsi0Lower:
    def test_endpoints(self):
        assert bound_psi0_lower(0.0, 2) == 1.0
        assert bound_psi0_lower(4.0, 2) == 1.0  # spread term vanishes at 4
        assert bound_psi0_lower(2.0, 2) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_bound_holds_across_suite(self):
        for d_prime in (2, 4, 16):
            for label, density in make_suite(d_prime):
                v_u = variance_of(density)
                lb = bound_psi0_lower(v_u, d_prime)
                assert fidelity_psi(density) >= lb - 1e-9, (
                    label, d_prime)

    def test_gap_to_normal_fidelity_is_exact_sixth(self):
        # at d' = 2 the deficit weights are 1/2 vs 2/3, so the gap is
        # exactly (v - v^2/4)/6 and vanishes with the variance
        d_prime = 2
        for s in (0.9, 0.99, 0.999):
            v = 2 * (1 - s)
            gap = fidelity_psi_normal(s, d_prime) - bound_psi0_lower(v, d_prime)
            assert gap == pytest.approx((v - v * v / 4) / 6, abs=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bound_psi0_lower(-0.1, 2)
        with pytest.raises(ValueError):
            bound_psi0_lower(4.1, 2)


class TestBoundCorrectedUpper:
    def test_frozen_proof_value(self):
        # (5,1) at v_c = 0.2: 1 - 16 * 0.2 / 63
        assert bound_corrected_upper(0.2, P51) == pytest.approx(
            0.9492063492063492, abs=1e-15)

    def test_printed_variant_differs(self):
        got = bound_corrected_upper(0.2, P51, BoundVariant.PRINTED)
        assert got == pytest.approx(-0.06666666666666665, abs=1e-15)

    def test_proof_bound_holds_when_condition_does(self):
        for params in ALL_CODES:
            for label, density in make_suite(params.d):
                if not condition_18(density).holds:
                    continue
                v_c = variance_of(density)
                ub = bound_corrected_upper(v_c, params)
                assert fidelity_corrected(density, params) <= ub + 1e-9, (
                    label, params)

    def test_printed_bound_violated_at_counterexample(self):
        # the published denominator fails already for (5,1), sigma = 0.9
        density = IsotropicDensity.normal(0.9, 32)
        v_c = variance_of(density)
        printed = bound_corrected_upper(v_c, P51, BoundVariant.PRINTED)
        proof = bound_corrected_upper(v_c, P51, BoundVariant.PROOF)
        got = fidelity_corrected(density, P51)
        assert got > printed  # 0.905 > -0.0667
        assert got <= proof + 1e-12  # 0.905 <= 0.9492

    def test_zero_variance_gives_one(self):
        for variant in BoundVariant:
            assert bound_corrected_upper(0.0, P51, variant) == 1.0


class TestLemmaG:
    def test_exact_zeros(self):
        for n in range(2, 20):
            assert lemma_g(n, 0.0) == 0.0
        # even step counts return to zero at the antipodal variance
        assert lemma_g(4, 4.0) == 0.0
        assert lemma_g(6, 4.0) == 0.0
        assert lemma_g(3, 4.0) == 4.0

    def test_known_interior_value(self):
        assert lemma_g(2, 2.0) == 1.0

    def test_nonnegative_on_sample_grid(self):
        for n in (2, 3, 7, 64):
            for i in range(401):
                x = 4.0 * i / 400
                assert lemma_g(n, x) >= -1e-12

    def test_array_matches_scalar(self):
        x = np.linspace(0.0, 4.0, 41)
        for n in (2, 3, 64):
            got = lemma_g(n, x)
            assert got.shape == x.shape
            assert got.tolist() == [lemma_g(n, v) for v in x]

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            lemma_g(2, np.array([0.0, 4.5]))
        with pytest.raises(ValueError):
            lemma_g(1, 1.0)
        with pytest.raises(ValueError):
            lemma_g(2, 4.5)
        with pytest.raises(ValueError):
            lemma_g(2, -0.1)


class TestFullReport:
    def test_frozen_cell(self):
        report = full_report(IsotropicDensity.normal(0.9, 32), P51,
                             UNCODED_51)
        assert report.f2_psi == pytest.approx(0.8159375, abs=1e-12)
        assert report.f2_phi_tilde == pytest.approx(0.905, abs=1e-12)
        assert report.f2_psi0 == pytest.approx(0.9793657577570914, abs=1e-12)
        assert report.ub_phi_tilde_proof == pytest.approx(
            1 - 16 * 0.2 / 63, abs=1e-12)
        assert report.lb_psi0 < report.f2_psi0
        assert report.cond18

    def test_ordering_chain(self):
        report = full_report(IsotropicDensity.normal(0.9, 32), P51,
                             UNCODED_51)
        assert report.f2_psi0 >= report.f2_phi_tilde >= report.f2_psi

    def test_uniform_cell_endpoints(self):
        # sigma = 0: psi at 1/d, corrected and unencoded both at 1/d'
        report = full_report(IsotropicDensity.uniform(32), P54,
                             IsotropicDensity.uniform(16))
        assert report.f2_psi == pytest.approx(1 / 32, abs=1e-12)
        assert report.f2_phi_tilde == pytest.approx(1 / 16, abs=1e-12)
        assert report.f2_psi0 == pytest.approx(1 / 16, abs=1e-12)

    def test_explicit_uncoded_density(self):
        cap = IsotropicDensity.uniform_cap(math.pi / 4, 32)
        cap_u = IsotropicDensity.uniform_cap(0.35, 2)
        report = full_report(cap, P51, uncoded=cap_u)
        assert 0.0 < report.f2_psi < report.f2_phi_tilde <= 1.0

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            full_report(IsotropicDensity.uniform(8), P51, UNCODED_51)
        with pytest.raises(ValueError):
            full_report(IsotropicDensity.normal(0.5, 32), P51,
                        uncoded=IsotropicDensity.uniform(4))


class TestReadmeLibraryExample:
    def test_prints_documented_values(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Library\n\n```python\n(.*?)```", readme,
                          re.S).group(1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        assert out.getvalue() == "0.8159375 0.905 0.9793657577570913\n"
        assert "# " + out.getvalue() in block


@st.composite
def _code(draw):
    n = draw(st.integers(2, 60))
    return CodeParams(n, draw(st.integers(1, n - 1)))


class TestFullReportAcrossCodeSizes:
    @settings(max_examples=300, deadline=None)
    @given(_code(), st.floats(0.0, 0.999))
    def test_normal_report_matches_closed_forms(self, params, sigma):
        sigma_u = sigma ** (1.0 / params.n)
        report = full_report(IsotropicDensity.normal(sigma, params.d), params,
                             IsotropicDensity.normal(sigma_u, params.d_prime))
        d, d_prime = params.d, params.d_prime

        def normal(s, k):
            return (1.0 + (k - 1) * s * s) / k

        assert abs(report.f2_psi - normal(sigma, d)) <= 1e-14
        assert abs(report.f2_phi_tilde - normal(sigma, d_prime)) <= 1e-14
        assert abs(report.f2_psi0
                   - normal(sigma_u, d_prime)) <= 1e-14
        want_ub = 1.0 - (d - params.d_dprime) * 2.0 * (1.0 - sigma) \
            / (2 * d - 1)
        assert abs(report.ub_phi_tilde_proof - want_ub) <= 1e-12
        # sigma >= 1/(2d-1), in the form free of the division's rounding
        assert report.cond18 == ((2 * d - 1) * sigma >= 1.0)


class TestOrderingTheorems:
    def test_unencoded_beats_corrected_on_sigma_grid(self):
        # sigma_u = sigma_c^(1/n) >= sigma_c lifts the logical fidelity
        for params in ALL_CODES:
            for i in range(100):
                s = i / 100
                f_corr = fidelity_psi_normal(s, params.d_prime)
                f_unenc = fidelity_psi_normal(s ** (1 / params.n),
                                              params.d_prime)
                assert f_unenc >= f_corr - 1e-15
                if 0.0 < s:
                    assert f_unenc > f_corr

    def test_corrected_beats_raw_strictly_below_one(self):
        for params in ALL_CODES:
            for s in (0.0, 0.5, 0.95):
                density = IsotropicDensity.normal(s, params.d)
                assert (fidelity_corrected(density, params)
                        > fidelity_psi(density))
