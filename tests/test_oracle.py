"""Syndrome measurement in tests/oracle.py, and the raw and corrected
fidelity samplers, against closed forms and hand-built states.
"""

import numpy as np
import pytest

from isoqec.closedform import fidelity_corrected, fidelity_psi
from isoqec.distributions import CodeParams, IsotropicDensity
from isoqec.sampler import (
    RngStreams,
    Scratch,
    fidelity_sampler,
    mc_means,
    raw_sampler,
    sample_states,
)

from oracle import block_matrix, sampled_values, syndrome_sampled_fidelity_mc

SEED = 20260819


def streams(*key):
    base = RngStreams(SEED)
    for k in key:
        base = base.split(k)
    return base


def raw(d, sigmas):
    """The raw fidelity's sampler: the mass on e0 and one coordinate."""
    return raw_sampler([(d, sigmas)], Scratch())


def corrected(params, sigmas):
    """The corrected fidelity's sampler, averaged over syndromes in closed
    form: the mass on each block's first amplitude, e0 and 2 d'' - 1
    coordinates."""
    return fidelity_sampler(params.d, 2 * params.d_dprime - 1, sigmas,
                            Scratch())


def basis_state(d, k):
    """Real basis vector k of S^(2d-1) as a one-row (1, 2d) array."""
    coords = np.zeros((1, 2 * d))
    coords[0, k] = 1.0
    return coords


def block_masses(x, params):
    """Syndrome probabilities: squared mass of each block, per row."""
    r = block_matrix(x, params)
    return np.einsum("...jk,...jk->...j", r, r)


class TestBlockLayout:
    def test_dimensions(self):
        # d'' blocks of 2 d' real coordinates each
        assert block_matrix(np.zeros(64), CodeParams(5, 1)).shape == (16, 4)
        assert block_matrix(np.zeros(64), CodeParams(5, 4)).shape == (2, 32)

    def test_block_matrix_shape(self):
        params = CodeParams(3, 1)
        x = sample_states(IsotropicDensity.uniform(8), 5, streams(0).chunk(0))
        assert block_matrix(x, params).shape == (5, 4, 4)

    def test_block_matrix_rejects_wrong_width(self):
        params = CodeParams(3, 1)
        with pytest.raises(ValueError):
            block_matrix(np.zeros(10), params)


class TestSyndromeProbabilities:
    def test_reference_state_concentrates_on_first_block(self):
        params = CodeParams(5, 1)
        p = block_masses(basis_state(32, 0), params)[0]
        assert p[0] == 1.0 and not p[1:].any()

    def test_sums_to_one(self):
        params = CodeParams(4, 2)
        x = sample_states(IsotropicDensity.normal(0.6, 16), 64,
                          streams(1).chunk(0))
        p = block_masses(x, params)
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert (p >= 0).all()

    def test_uniform_block_masses(self):
        # uniform direction puts mass block_width / (2 d) on each block
        params = CodeParams(5, 1)
        x = sample_states(IsotropicDensity.uniform(32), 50000,
                          streams(2).chunk(0))
        p = block_masses(x, params)
        se = p.std(ddof=1) / np.sqrt(p.shape[0])
        assert np.max(np.abs(p.mean(axis=0) - 1 / 16)) < 3 * se


class TestMeasureAndCorrect:
    """The per-sample recovery behind syndrome_sampled_fidelity_mc."""

    def test_reference_state_passes_through(self):
        params = CodeParams(5, 1)
        values = sampled_values(basis_state(32, 0), params,
                                 streams(3).chunk(0))
        assert values.tolist() == [1.0]

    def test_error_within_block_survives_correction(self):
        # second complex amplitude of block 0: syndrome 0, zero overlap
        params = CodeParams(5, 1)
        values = sampled_values(basis_state(32, 2), params,
                                 streams(4).chunk(0))
        assert values.tolist() == [0.0]

    def test_error_across_blocks_is_corrected(self):
        # first amplitude of block 1: syndrome 1, recovery restores logical 0
        params = CodeParams(5, 1)
        values = sampled_values(basis_state(32, 4), params,
                                 streams(5).chunk(0))
        assert values.tolist() == [1.0]

    def test_output_is_unit_norm(self):
        # the recovered logical state is renormalized: fidelity in [0, 1]
        params = CodeParams(4, 2)
        x = sample_states(IsotropicDensity.normal(0.3, 16), 32,
                          streams(6).chunk(0))
        values = sampled_values(x, params, streams(7).chunk(0))
        assert values.shape == (32,)
        assert np.all((values >= 0.0) & (values <= 1.0 + 1e-12))

    def test_syndrome_frequencies_match_probabilities(self):
        # block j yields a_j / p_j, a_j its squared first amplitude; the two
        # blocks' ratios differ, so each value names the syndrome drawn
        params = CodeParams(2, 1)
        state = np.array([0.6, 0.0, 0.3, 0.0, 0.1, 0.2, 0.0, 0.0])
        state[6] = np.sqrt(1.0 - np.sum(state ** 2))
        rows = np.tile(state, (20000, 1))
        values = sampled_values(rows, params, streams(9).chunk(0))
        r = block_matrix(state, params)
        p = block_masses(state, params)
        ratio = (r[:, 0] ** 2 + r[:, 1] ** 2) / p
        freq = np.mean(np.abs(values[:, None] - ratio[None, :]) < 1e-12,
                       axis=0)
        assert freq.sum() == 1.0
        se = np.sqrt(p * (1 - p) / values.size)
        assert np.max(np.abs(freq - p)) < 4 * se.max()


class TestRawFidelity:
    def test_matches_closed_form(self):
        [((est,), _)] = mc_means([(raw(32, (0.9,)), streams(10))], 200000)
        assert abs(est.value - 0.8159375) < 3 * est.std_error

    def test_uniform_value(self):
        # the uniform density is the sigma = 0 normal one
        [((est,), _)] = mc_means([(raw(8, (0.0,)), streams(11))], 100000)
        assert abs(est.value - 0.125) < 3 * est.std_error


class TestCorrectedFidelity:
    def test_block_sum_matches_closed_form(self):
        params = CodeParams(5, 1)
        [((est,), _)] = mc_means([(corrected(params, (0.9,)), streams(13))],
                                 200000)
        assert abs(est.value - 0.905) < 3 * est.std_error

    def test_uniform_narrow_code(self):
        # d' = 2: corrected mass is d'' first-pairs out of 2 d coordinates
        params = CodeParams(5, 1)
        [((est,), _)] = mc_means([(corrected(params, (0.0,)), streams(14))],
                                 100000)
        assert abs(est.value - 0.5) < 3 * est.std_error

    def test_uniform_wide_code(self):
        params = CodeParams(5, 4)
        [((est,), _)] = mc_means([(corrected(params, (0.0,)), streams(15))],
                                 100000)
        assert abs(est.value - 1 / 16) < 3 * est.std_error

    def test_estimators_agree(self):
        density = IsotropicDensity.normal(0.6, 16)
        params = CodeParams(4, 2)
        [((a,), _)] = mc_means([(corrected(params, (0.6,)), streams(16))],
                               100000)
        (b,) = syndrome_sampled_fidelity_mc(params, (0.6,), 100000,
                                            streams(17))
        combined = np.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 3 * combined
        want = fidelity_corrected(density, params)
        assert abs(a.value - want) < 3 * a.std_error
        assert abs(b.value - want) < 3 * b.std_error

    def test_sampled_estimator_has_larger_spread(self):
        # averaging over syndromes analytically must not raise variance
        params = CodeParams(4, 1)
        [((a,), _)] = mc_means([(corrected(params, (0.5,)), streams(18))],
                               50000)
        (b,) = syndrome_sampled_fidelity_mc(params, (0.5,), 50000,
                                            streams(18))
        assert a.std_error < b.std_error

    def test_worker_invariance(self):
        job = (corrected(CodeParams(3, 1), (0.4,)), streams(19))
        [(a, _)] = mc_means([job], 40000, workers=1)
        [(b, _)] = mc_means([job], 40000, workers=3)
        assert a == b


class TestDensitySequences:
    SIGMAS = (0.0, 0.4, 0.9)

    @pytest.mark.parametrize("estimate", [
        lambda sigmas, st: mc_means([(raw(8, sigmas), st)], 30000)[0][0],
        lambda sigmas, st: mc_means(
            [(corrected(CodeParams(3, 1), sigmas), st)], 30000,
            workers=2)[0][0],
        lambda sigmas, st: syndrome_sampled_fidelity_mc(
            CodeParams(3, 1), sigmas, 30000, st),
    ], ids=["raw", "block_sum", "syndrome_sampled"])
    def test_each_estimate_equals_a_one_density_call(self, estimate):
        shared = estimate(self.SIGMAS, streams(25))
        assert len(shared) == len(self.SIGMAS)
        for est, sigma in zip(shared, self.SIGMAS):
            assert estimate((sigma,), streams(25)) == (est,)

    def test_an_empty_sequence_gives_no_estimate(self):
        for value_fn in (raw(8, ()), corrected(CodeParams(3, 1), ())):
            [(estimates, _)] = mc_means([(value_fn, streams(26))], 1000)
            assert estimates == ()
        assert syndrome_sampled_fidelity_mc(
            CodeParams(3, 1), (), 1000, streams(26)) == ()


class TestOrderingBySampling:
    def test_correction_beats_raw_and_loses_to_uncoded(self):
        # one error at sigma_c on the big space vs n accumulated steps
        # at sigma_u on the small space
        sigma_c = 0.9
        params = CodeParams(5, 1)
        sigma_u = sigma_c ** (1 / 5)
        big = IsotropicDensity.normal(sigma_c, params.d)
        small = IsotropicDensity.normal(sigma_u, params.d_prime)
        # the three estimates of a sweep cell, as one mc_means call
        [((psi,), _), ((phi_tilde,), _), ((uncoded,), _)] = mc_means([
            (raw(params.d, (sigma_c,)), streams(21)),
            (corrected(params, (sigma_c,)), streams(22)),
            (raw(params.d_prime, (sigma_u,)), streams(23))], 100000)
        assert phi_tilde.value - psi.value > -3 * np.hypot(
            phi_tilde.std_error, psi.std_error)
        assert uncoded.value - phi_tilde.value > -3 * np.hypot(
            uncoded.std_error, phi_tilde.std_error)
        # and each sits on its closed form
        assert abs(psi.value - fidelity_psi(big)) \
            < 3 * psi.std_error
        assert abs(phi_tilde.value - fidelity_corrected(big, params)) \
            < 3 * phi_tilde.std_error
        assert abs(uncoded.value - fidelity_psi(small)) \
            < 3 * uncoded.std_error
