"""Syndrome measurement and corrected-fidelity estimators against
closed forms and hand-built states.
"""

import numpy as np
import pytest

from isoqec.closedform import fidelity_corrected, fidelity_psi
from isoqec.codesim import (
    BlockCode,
    _sampled_values,
    corrected_fidelity_mc,
    raw_fidelity_mc,
    syndrome_sampled_fidelity_mc,
)
from isoqec.distributions import CodeParams, IsotropicDensity
from isoqec.sampler import RngStreams, sample_states

SEED = 20260819


def streams(*key):
    base = RngStreams(SEED)
    for k in key:
        base = base.split(k)
    return base


def basis_state(d, k):
    """Real basis vector k of S^(2d-1) as a one-row (1, 2d) array."""
    coords = np.zeros((1, 2 * d))
    coords[0, k] = 1.0
    return coords


def block_masses(x, code):
    """Syndrome probabilities: squared mass of each block, per row."""
    r = code.block_matrix(x)
    return np.einsum("...jk,...jk->...j", r, r)


class TestBlockLayout:
    def test_dimensions(self):
        code = BlockCode(CodeParams(5, 1))
        assert code.n_blocks == 16 and code.block_width == 4
        code = BlockCode(CodeParams(5, 4))
        assert code.n_blocks == 2 and code.block_width == 32

    def test_block_matrix_shape(self):
        code = BlockCode(CodeParams(3, 1))
        x = sample_states(IsotropicDensity.uniform(8), 5, streams(0).chunk(0))
        assert code.block_matrix(x).shape == (5, 4, 4)

    def test_block_matrix_rejects_wrong_width(self):
        code = BlockCode(CodeParams(3, 1))
        with pytest.raises(ValueError):
            code.block_matrix(np.zeros(10))


class TestSyndromeProbabilities:
    def test_reference_state_concentrates_on_first_block(self):
        code = BlockCode(CodeParams(5, 1))
        p = block_masses(basis_state(32, 0), code)[0]
        assert p[0] == 1.0 and not p[1:].any()

    def test_sums_to_one(self):
        code = BlockCode(CodeParams(4, 2))
        x = sample_states(IsotropicDensity.normal(0.6, 16), 64,
                          streams(1).chunk(0))
        p = block_masses(x, code)
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert (p >= 0).all()

    def test_uniform_block_masses(self):
        # uniform direction puts mass block_width / (2 d) on each block
        code = BlockCode(CodeParams(5, 1))
        x = sample_states(IsotropicDensity.uniform(32), 50000,
                          streams(2).chunk(0))
        p = block_masses(x, code)
        se = p.std(ddof=1) / np.sqrt(p.shape[0])
        assert np.max(np.abs(p.mean(axis=0) - 1 / 16)) < 3 * se


class TestMeasureAndCorrect:
    """The per-sample recovery behind syndrome_sampled_fidelity_mc."""

    def test_reference_state_passes_through(self):
        code = BlockCode(CodeParams(5, 1))
        values = _sampled_values(basis_state(32, 0), code,
                                 streams(3).chunk(0))
        assert values.tolist() == [1.0]

    def test_error_within_block_survives_correction(self):
        # second complex amplitude of block 0: syndrome 0, zero overlap
        code = BlockCode(CodeParams(5, 1))
        values = _sampled_values(basis_state(32, 2), code,
                                 streams(4).chunk(0))
        assert values.tolist() == [0.0]

    def test_error_across_blocks_is_corrected(self):
        # first amplitude of block 1: syndrome 1, recovery restores logical 0
        code = BlockCode(CodeParams(5, 1))
        values = _sampled_values(basis_state(32, 4), code,
                                 streams(5).chunk(0))
        assert values.tolist() == [1.0]

    def test_output_is_unit_norm(self):
        # the recovered logical state is renormalized: fidelity in [0, 1]
        code = BlockCode(CodeParams(4, 2))
        x = sample_states(IsotropicDensity.normal(0.3, 16), 32,
                          streams(6).chunk(0))
        values = _sampled_values(x, code, streams(7).chunk(0))
        assert values.shape == (32,)
        assert np.all((values >= 0.0) & (values <= 1.0 + 1e-12))

    def test_syndrome_frequencies_match_probabilities(self):
        # block j yields a_j / p_j, a_j its squared first amplitude; the two
        # blocks' ratios differ, so each value names the syndrome drawn
        code = BlockCode(CodeParams(2, 1))
        state = np.array([0.6, 0.0, 0.3, 0.0, 0.1, 0.2, 0.0, 0.0])
        state[6] = np.sqrt(1.0 - np.sum(state ** 2))
        rows = np.tile(state, (20000, 1))
        values = _sampled_values(rows, code, streams(9).chunk(0))
        r = code.block_matrix(state)
        p = block_masses(state, code)
        ratio = (r[:, 0] ** 2 + r[:, 1] ** 2) / p
        freq = np.mean(np.abs(values[:, None] - ratio[None, :]) < 1e-12,
                       axis=0)
        assert freq.sum() == 1.0
        se = np.sqrt(p * (1 - p) / values.size)
        assert np.max(np.abs(freq - p)) < 4 * se.max()


class TestRawFidelityMc:
    def test_matches_closed_form(self):
        density = IsotropicDensity.normal(0.9, 32)
        (est,) = raw_fidelity_mc((density,), 200000, streams(10))
        assert abs(est.value - 0.8159375) < 3 * est.std_error

    def test_uniform_value(self):
        density = IsotropicDensity.uniform(8)
        (est,) = raw_fidelity_mc((density,), 100000, streams(11))
        assert abs(est.value - 0.125) < 3 * est.std_error

    def test_single_amplitude_space_keeps_all_mass(self):
        # at d = 1 both real coordinates are kept: fidelity is exactly 1
        for sigma in (0.0, 0.5, 0.9):
            (est,) = raw_fidelity_mc((IsotropicDensity.normal(sigma, 1),),
                                     50000, streams(24))
            assert abs(est.value - 1.0) <= 1e-15
            assert est.std_error == 0.0


class TestCorrectedFidelityMc:
    def test_block_sum_matches_closed_form(self):
        density = IsotropicDensity.normal(0.9, 32)
        code = BlockCode(CodeParams(5, 1))
        (est,) = corrected_fidelity_mc((density,), code, 200000, streams(13))
        assert abs(est.value - 0.905) < 3 * est.std_error

    def test_uniform_narrow_code(self):
        # d' = 2: corrected mass is d'' first-pairs out of 2 d coordinates
        density = IsotropicDensity.uniform(32)
        code = BlockCode(CodeParams(5, 1))
        (est,) = corrected_fidelity_mc((density,), code, 100000, streams(14))
        assert abs(est.value - 0.5) < 3 * est.std_error

    def test_uniform_wide_code(self):
        density = IsotropicDensity.uniform(32)
        code = BlockCode(CodeParams(5, 4))
        (est,) = corrected_fidelity_mc((density,), code, 100000, streams(15))
        assert abs(est.value - 1 / 16) < 3 * est.std_error

    def test_estimators_agree(self):
        density = IsotropicDensity.normal(0.6, 16)
        code = BlockCode(CodeParams(4, 2))
        (a,) = corrected_fidelity_mc((density,), code, 100000, streams(16))
        (b,) = syndrome_sampled_fidelity_mc((density,), code, 100000,
                                            streams(17))
        combined = np.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 3 * combined
        want = fidelity_corrected(density, CodeParams(4, 2))
        assert abs(a.value - want) < 3 * a.std_error
        assert abs(b.value - want) < 3 * b.std_error

    def test_sampled_estimator_has_larger_spread(self):
        # averaging over syndromes analytically must not raise variance
        density = IsotropicDensity.normal(0.5, 16)
        code = BlockCode(CodeParams(4, 1))
        (a,) = corrected_fidelity_mc((density,), code, 50000, streams(18))
        (b,) = syndrome_sampled_fidelity_mc((density,), code, 50000,
                                            streams(18))
        assert a.std_error < b.std_error

    def test_worker_invariance(self):
        density = IsotropicDensity.normal(0.4, 8)
        code = BlockCode(CodeParams(3, 1))
        (a,) = corrected_fidelity_mc((density,), code, 40000, streams(19),
                                     workers=1)
        (b,) = corrected_fidelity_mc((density,), code, 40000, streams(19),
                                     workers=3)
        assert a == b

    def test_rejects_dimension_mismatch(self):
        for estimate in (corrected_fidelity_mc, syndrome_sampled_fidelity_mc):
            with pytest.raises(ValueError, match="d=8, expected 32"):
                estimate((IsotropicDensity.uniform(8),),
                         BlockCode(CodeParams(5, 1)), 1000, streams(20))


class TestDensitySequences:
    SIGMAS = (0.0, 0.4, 0.9)

    @pytest.mark.parametrize("estimate", [
        lambda ds, st: raw_fidelity_mc(ds, 30000, st),
        lambda ds, st: corrected_fidelity_mc(
            ds, BlockCode(CodeParams(3, 1)), 30000, st, workers=2),
        lambda ds, st: syndrome_sampled_fidelity_mc(
            ds, BlockCode(CodeParams(3, 1)), 30000, st),
    ], ids=["raw", "block_sum", "syndrome_sampled"])
    def test_each_estimate_equals_a_one_density_call(self, estimate):
        densities = [IsotropicDensity.normal(s, 8) for s in self.SIGMAS]
        shared = estimate(densities, streams(25))
        assert len(shared) == len(densities)
        for est, density in zip(shared, densities):
            assert estimate((density,), streams(25)) == (est,)

    def test_rejects_an_empty_sequence(self):
        with pytest.raises(ValueError, match="at least one density"):
            raw_fidelity_mc((), 1000, streams(26))
        for estimate in (corrected_fidelity_mc, syndrome_sampled_fidelity_mc):
            with pytest.raises(ValueError, match="at least one density"):
                estimate((), BlockCode(CodeParams(3, 1)), 1000, streams(26))

    def test_rejects_one_mismatched_density(self):
        densities = (IsotropicDensity.normal(0.5, 8),
                     IsotropicDensity.normal(0.5, 16))
        with pytest.raises(ValueError, match="fidelity_sampler needs "
                           "densities that share d, got d=8 and d=16"):
            raw_fidelity_mc(densities, 1000, streams(27))


class TestOrderingBySampling:
    def test_correction_beats_raw_and_loses_to_uncoded(self):
        # one error at sigma_c on the big space vs n accumulated steps
        # at sigma_u on the small space
        sigma_c = 0.9
        params = CodeParams(5, 1)
        sigma_u = sigma_c ** (1 / 5)
        big = IsotropicDensity.normal(sigma_c, params.d)
        small = IsotropicDensity.normal(sigma_u, params.d_prime)
        (raw,) = raw_fidelity_mc((big,), 100000, streams(21))
        (corrected,) = corrected_fidelity_mc((big,), BlockCode(params),
                                             100000, streams(22))
        (uncoded,) = raw_fidelity_mc((small,), 100000, streams(23))
        assert corrected.value - raw.value > -3 * np.hypot(
            corrected.std_error, raw.std_error)
        assert uncoded.value - corrected.value > -3 * np.hypot(
            uncoded.std_error, corrected.std_error)
        # and each sits on its closed form
        assert abs(raw.value - fidelity_psi(big)) \
            < 3 * raw.std_error
        assert abs(corrected.value - fidelity_corrected(big, params)) \
            < 3 * corrected.std_error
        assert abs(uncoded.value - fidelity_psi(small)) \
            < 3 * uncoded.std_error
