"""Sampling checks: distributional agreement, transport exactness,
stream determinism.  Statistical assertions run on fixed seeds at 3
standard errors unless the quantity is exact.
"""

import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import stats

from isoqec import sampler as sampler_module
from isoqec.distributions import (
    CodeParams,
    IsotropicDensity,
    marginal_polar,
    moment_sin2,
    variance_compose_n,
    variance_of,
)
from isoqec.closedform import fidelity_psi_normal
from isoqec.experiments import DEFAULT_CODES, _law_keys
from isoqec.sampler import (
    DEFAULT_CHUNK_SIZE,
    RngStreams,
    Scratch,
    SIGMA_BLOCK,
    fidelity_sampler,
    mc_means,
    raw_sampler,
    sample_states,
    sample_theta0,
    sample_uniform_direction,
)

from oracle import block_matrix
from suite import compose_errors, mean_se, reference_states

SEED = 20260819
# more sigmas than sampler.SIGMA_BLOCK: two full blocks and a ragged one
ELEVEN_SIGMAS = (0.0, 0.05, 0.2, 0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 0.95, 0.999)


def streams(*key):
    return RngStreams(SEED, key)


def law_sampler(d, kept, sigmas):
    """The sampler of the law (d, kept): raw_sampler's with the one law d
    at kept = 1, fidelity_sampler's otherwise."""
    if kept == 1:
        return raw_sampler([(d, sigmas)])
    return fidelity_sampler(d, kept, sigmas)


def rows_of(value_fn, rng, n, scratch=None):
    """A value_fn's rows for one chunk on scratch, a fresh Scratch by
    default, each block copied as it is yielded, before the next block
    overwrites it."""
    blocks = value_fn(rng, n, Scratch() if scratch is None else scratch)
    return np.concatenate([block.copy() for block in blocks])


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so shared buffers would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def chord_statistics(d, kept, n, rng):
    """The samplers' (P, a, key) by their docstrings, out of place."""
    if kept == 1:
        p = -np.expm1(rng.standard_exponential(n) / (1 - d))
        a = direction_cosine(rng.random(n)) * np.sqrt(p)
    else:
        z0 = rng.standard_normal(n)
        k = 2.0 * rng.standard_gamma(kept / 2, n)
        r = 2.0 * rng.standard_gamma((2 * d - 1 - kept) / 2, n)
        norm = r + (z0 * z0 + k)
        p = (z0 * z0 + k) / norm
        a = np.abs(z0) / np.sqrt(norm)
    return p, a, chord_key(a, rng.random(n))


def direction_cosine(v):
    """cos(pi V / 2) as the raw kernel takes it: (1 - t)(1 + t) / (1 + t^2)
    with t = tan(pi V / 4)."""
    t = np.tan(v * (np.pi / 4))
    return (1.0 - t) * (1.0 + t) / (1.0 + t * t)


def chord_key(a, u):
    """The end choice's key V'|V'| / ((1 - V'^2) a^2), V' = 2U - 1."""
    v = 2.0 * u - 1.0
    return v * np.abs(v) / np.maximum((1.0 - v * v) * (a * a),
                                      np.finfo(float).tiny)


def chord_values(sigmas, p, a, key):
    """The docstring's value identity, one row per sigma."""
    coef_a = (1.0 - 2.0 * (a * a)) * (1.0 - p)
    coef_b = 2.0 * ((1.0 - p) * a)
    rows = []
    for sigma in sigmas:
        s2 = sigma * sigma
        k = np.sqrt(a * a * (s2 * s2) + s2 * (1.0 - s2))
        rows.append((coef_a * s2 + p)
                    + np.copysign(k * coef_b, s2 / (1.0 - s2) - key))
    return np.array(rows)


def out_of_place_fidelities(sigmas, d, kept, n, rng):
    """The samplers' docstring expressions, evaluated out of place."""
    return chord_values(sigmas, *chord_statistics(d, kept, n, rng))


def chord_form_values(sigma, z0, k, r, u):
    """The kept chord end's value from its coordinates, the identity's
    reference: (sigma + c Z0)^2 + c^2 K with c = T / N for the end T."""
    h = np.sqrt(z0 * z0 + (1.0 - sigma * sigma) * (k + r))
    c = ((np.copysign(h, h + sigma * z0 - 2.0 * h * u) - sigma * z0)
         / (z0 * z0 + (k + r)))
    return (sigma + c * z0) ** 2 + c * c * k


class StubGenerator:
    """Hands out given variates, in order, and records each method drawn.

    Any method it does not have (a normal or a gamma) raises
    AttributeError, so a draw of one fails the caller.
    """

    def __init__(self, exponential, uniforms):
        self.exponential = exponential
        self.uniforms = list(uniforms)
        self.calls = []

    def standard_exponential(self, out):
        self.calls.append("standard_exponential")
        out[:] = self.exponential
        return out

    def random(self, out):
        self.calls.append("random")
        out[:] = self.uniforms.pop(0)
        return out


def whole_chunk_reduction(value_fn, n_samples, streams, chunk_size):
    """mc_means' values and errors for one job, each chunk centred whole
    out of place; value_fn(rng, count) returns the chunk's whole array."""
    count, total, mean, m2 = 0, 0.0, 0.0, 0.0
    for i in range(-(-n_samples // chunk_size)):
        size = min(chunk_size, n_samples - i * chunk_size)
        values = np.atleast_2d(value_fn(streams.chunk(i), size))
        sums = values.sum(axis=1)
        chunk_m2 = np.square(values - (sums / size)[:, None]).sum(axis=1)
        delta = sums / size - mean
        merged = count + size
        mean = mean + delta * (size / merged)
        m2 = m2 + chunk_m2 + delta * delta * (count * size / merged)
        total = total + sums
        count = merged
    return (total / n_samples,
            np.sqrt(m2 / max(n_samples - 1, 1) / n_samples))


class TestRngStreams:
    def test_same_key_same_stream(self):
        a = streams(3).chunk(7).random(5)
        b = streams(3).chunk(7).random(5)
        assert np.array_equal(a, b)

    def test_distinct_chunks_differ(self):
        a = streams(3).chunk(0).random(5)
        b = streams(3).chunk(1).random(5)
        assert not np.array_equal(a, b)

    def test_split_namespaces_do_not_collide(self):
        a = streams(0, 1).chunk(0).random(5)
        b = streams(1).chunk(0).random(5)
        assert not np.array_equal(a, b)

    def test_chunk_is_sfc64_backed(self):
        rng = streams(3).chunk(7)
        assert isinstance(rng, np.random.Generator)
        assert isinstance(rng.bit_generator, np.random.SFC64)

    def test_stream_words_are_pinned(self):
        # a change of generator or key order changes every MC column;
        # these words make it fail here first
        words = RngStreams(7).split(1).split(2).chunk(3).bit_generator \
            .random_raw(3)
        assert [int(w) for w in words] == [
            6202180545184944473, 16799613261499411397, 1377816837567057303]


class TestSampleTheta0:
    def test_matches_marginal_distribution(self):
        # KS statistic against the tabulated CDF at 1e5 draws
        cases = [
            IsotropicDensity.uniform(4),
            IsotropicDensity.normal(0.9, 32),
            IsotropicDensity.uniform_cap(math.pi / 4, 8),
        ]
        for i, density in enumerate(cases):
            marginal = marginal_polar(density)
            draws = sample_theta0(marginal, streams(10, i).chunk(0), 100000)
            ks = stats.kstest(
                draws, lambda t: np.interp(t, marginal.theta, marginal.cdf)
            ).statistic
            assert ks < 0.01, density.kind

    def test_mean_cos_matches_sigma(self):
        density = IsotropicDensity.normal(0.9, 32)
        draws = sample_theta0(density.marginal, streams(11).chunk(0), 100000)
        se = np.std(np.cos(draws), ddof=1) / math.sqrt(draws.size)
        assert abs(np.cos(draws).mean() - 0.9) < 3 * se

    def test_scalar_draw(self):
        value = sample_theta0(IsotropicDensity.uniform(2).marginal,
                              streams(12).chunk(0))
        assert isinstance(value, float)
        assert 0.0 <= value <= math.pi


class TestSampleUniformDirection:
    def test_unit_norms(self):
        x = sample_uniform_direction(62, streams(20).chunk(0), 1000)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)

    def test_coordinate_moments(self):
        # each coordinate: mean 0, second moment 1/(dim+1)
        dim = 62
        x = sample_uniform_direction(dim, streams(21).chunk(0), 100000)
        se_mean = x.std(ddof=1) / math.sqrt(x.shape[0])
        assert np.max(np.abs(x.mean(axis=0))) < 4 * se_mean
        m2 = (x ** 2).mean(axis=0)
        se_m2 = (x ** 2).std(ddof=1) / math.sqrt(x.shape[0])
        assert np.max(np.abs(m2 - 1 / (dim + 1))) < 4 * se_m2

    def test_circle_angles_uniform(self):
        x = sample_uniform_direction(1, streams(22).chunk(0), 50000)
        angles = np.arctan2(x[:, 1], x[:, 0])
        counts, _ = np.histogram(angles, bins=16,
                                 range=(-math.pi, math.pi))
        p = stats.chisquare(counts).pvalue
        assert p > 1e-3

    def test_zero_dim_sphere(self):
        x = sample_uniform_direction(0, streams(23).chunk(0), 100)
        assert set(np.unique(x)) <= {-1.0, 1.0}

    def test_rejects_negative_dim(self):
        with pytest.raises(ValueError):
            sample_uniform_direction(-1, streams(24).chunk(0))


class TestSampleStates:
    def test_unit_norm_and_shape(self):
        density = IsotropicDensity.normal(0.5, 8)
        x = sample_states(density, 500, streams(30).chunk(0))
        assert x.shape == (500, 16)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)

    def test_variance_against_closed_form(self):
        density = IsotropicDensity.normal(0.5, 8)
        x = sample_states(density, 100000, streams(32).chunk(0))
        value, se = mean_se(2.0 - 2.0 * x[:, 0])
        assert abs(value - 1.0) < 3 * se

    def test_fidelity_against_closed_form(self):
        density = IsotropicDensity.normal(0.9, 32)
        x = sample_states(density, 200000, streams(33).chunk(0))
        value, se = mean_se(x[:, 0] ** 2 + x[:, 1] ** 2)
        assert abs(value - 0.8159375) < 3 * se

    def test_conditional_direction_is_isotropic(self):
        # given theta0, the remaining coordinates are a uniform direction:
        # means vanish and pairwise correlations vanish
        density = IsotropicDensity.normal(0.7, 4)
        x = sample_states(density, 50000, streams(34).chunk(0))
        u = x[:, 1:] / np.linalg.norm(x[:, 1:], axis=1, keepdims=True)
        se = u.std(ddof=1) / math.sqrt(u.shape[0])
        assert np.max(np.abs(u.mean(axis=0))) < 4 * se
        corr = np.corrcoef(u.T)
        off = corr[~np.eye(7, dtype=bool)]
        assert np.max(np.abs(off)) < 4 / math.sqrt(u.shape[0])


# (density, code) pairs: kept = 1 and kept = 2 d'' - 1 are the two masses
# the raw and block-sum estimators read
FIDELITY_CASES = {
    "d8": (IsotropicDensity.normal(0.6, 8), CodeParams(3, 1)),
    "d64": (IsotropicDensity.normal(0.9, 64), CodeParams(6, 2)),
}


class TestFidelitySampler:
    @pytest.mark.parametrize("case", FIDELITY_CASES)
    def test_matches_full_state_sampler(self, case):
        # two-sample KS against the squared masses read off full states
        density, params = FIDELITY_CASES[case]
        n = 40000
        tag = list(FIDELITY_CASES).index(case)
        x = sample_states(density, n, streams(35, tag).chunk(0))
        r = block_matrix(x, params)
        full = {1: x[:, 0] ** 2 + x[:, 1] ** 2,
                2 * params.d_dprime - 1:
                    (r[:, :, 0] ** 2 + r[:, :, 1] ** 2).sum(axis=1)}
        for kept, want in full.items():
            (got,) = rows_of(law_sampler(density.d, kept, (density.sigma,)),
                             streams(36, tag, kept).chunk(0), n)
            p = stats.ks_2samp(got, want).pvalue
            assert p > 1e-3, (case, kept, p)

    def test_mean_matches_sin2_moment(self):
        # E[value] = 1 - E[sin^2] (1 - kept / (2d - 1)): the kept share of
        # the mass off e0 is Beta(kept/2, rest/2), independent of theta
        d = 8
        for case, sigma in enumerate((0.0, 0.6, 0.95)):
            density = IsotropicDensity.normal(sigma, d)
            for kept in (1, 7, d, 2 * d - 2):
                (values,) = rows_of(law_sampler(d, kept, (sigma,)),
                                    streams(37, case, kept).chunk(0), 100000)
                want = 1.0 - moment_sin2(density) * (1 - kept / (2 * d - 1))
                se = values.std(ddof=1) / math.sqrt(values.size)
                assert abs(values.mean() - want) < 3 * se, (sigma, kept)

    @pytest.mark.parametrize("n", [12, 15, 18, 24, 40, 60])
    def test_exact_at_large_codes(self, n):
        # a polar table over [0, pi] misses the width ~1/sqrt(2d) peak of
        # g here: 15 SE off at n = 18, sigma = 0 with 1M samples.  The
        # reference is the normal closed form, since 1 - E[sin^2] (...)
        # cancels: at n = 60, sigma = 0, kept = 1 it reads 0.0, not 2^-60
        d = 2 ** n
        n_samples = 1_000_000 if n == 18 else 100_000
        cases = [(i, sigma, kept)
                 for i, sigma in enumerate((0.0, 0.5, 0.9))
                 for kept in (1, 2 ** (n - 1) - 1)]
        results = mc_means(
            [(law_sampler(d, kept, (sigma,)),
              streams(39, n, i, kept % 1000)) for i, sigma, kept in cases],
            n_samples)
        for ((est,), _), (_, sigma, kept) in zip(results, cases):
            want = (kept + 1 + (2 * d - 1 - kept) * sigma ** 2) / (2 * d)
            assert est.std_error > 0.0
            assert abs(est.value - want) < 5 * est.std_error, (sigma, kept)

    @pytest.mark.parametrize("d", [8, 2 ** 20])
    def test_shared_rows_equal_one_density_calls(self, d):
        # one draw serves every sigma: row j is the one-sigma call at
        # sigma_j on the same generator, bit for bit
        sigmas = (0.0, 0.05, 0.3, 0.6, 0.9, 0.999)
        for kept in (1, 2 * d - 2):
            shared = rows_of(law_sampler(d, kept, sigmas),
                             streams(51, kept).chunk(0), 3000)
            assert shared.shape == (len(sigmas), 3000)
            for row, sigma in zip(shared, sigmas):
                (alone,) = rows_of(law_sampler(d, kept, (sigma,)),
                                   streams(51, kept).chunk(0), 3000)
                assert np.array_equal(row, alone), (sigma, kept)

    @pytest.mark.parametrize("kept", [1, 5])
    def test_matches_the_out_of_place_expressions(self, kept):
        # the in-place draws and per-sigma loop round exactly like the
        # docstring's expressions on the same variates
        d, n = 8, 2000
        sigmas = (0.0, 0.6, 0.95)
        got = rows_of(law_sampler(d, kept, sigmas),
                      streams(54, kept).chunk(0), n)
        want = out_of_place_fidelities(sigmas, d, kept, n,
                                       streams(54, kept).chunk(0))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kept", [1, 5])
    def test_value_identity_matches_the_chord_form(self, kept):
        # the same (Z0, K, R, U) through (sigma + c Z0)^2 + c^2 K and
        # through the identity in (P, a, key), with U -> 1 - U (V' -> -V')
        # where Z0 < 0: the flip that lets the sampler drop Z0's sign.
        # Both sides sum terms of size at most 4 after a few roundings
        # each, so they agree to 64 eps absolute; a = 0 (Z0 = 0) with
        # V' = -1, 0 and 1/2 included
        d, n = 8, 20000
        rng = streams(58, kept).chunk(0)
        z0 = rng.standard_normal(n)
        k = (np.square(rng.standard_normal(n)) if kept == 1
             else 2.0 * rng.standard_gamma(kept / 2, n))
        r = 2.0 * rng.standard_gamma((2 * d - 1 - kept) / 2, n)
        u = rng.random(n)
        z0[:3] = 0.0
        u[:3] = (0.0, 0.5, 0.75)
        norm = z0 * z0 + k + r
        a = np.abs(z0) / np.sqrt(norm)
        p = (z0 * z0 + k) / norm
        sigmas = (0.0, 0.3, 0.9, 0.999)
        got = chord_values(sigmas, p, a,
                           chord_key(a, np.where(z0 < 0, 1.0 - u, u)))
        for row, sigma in zip(got, sigmas):
            want = chord_form_values(sigma, z0, k, r, u)
            assert np.max(np.abs(row - want)) <= 64 * np.finfo(float).eps, \
                sigma

    @pytest.mark.parametrize("d", [2, 8, 2 ** 20])
    def test_raw_law_mass_and_angle(self, d):
        # P ~ Beta(1, d - 1) and a^2 / P, the cos^2 of a uniform angle,
        # ~ Beta(1/2, 1/2); the sampler's sigma = 0 row is P itself
        n = 20000
        tag = (2, 8, 2 ** 20).index(d)
        p, a, _ = chord_statistics(d, 1, n, streams(59, tag).chunk(0))
        (row,) = rows_of(raw_sampler([(d, (0.0,))]),
                         streams(59, tag).chunk(0), n)
        assert np.array_equal(row, p)
        assert stats.kstest(p, stats.beta(1, d - 1).cdf).pvalue > 1e-3
        assert stats.kstest(a * a / p, stats.beta(0.5, 0.5).cdf).pvalue \
            > 1e-3

    def test_direction_cosine_is_within_a_few_eps_of_cos(self):
        # the raw kernel's cos(pi V / 2), taken through tan(pi V / 4), on
        # random V and where the cosine is 1, 1/sqrt(2) and near 0
        one = math.nextafter(1.0, 0.0)
        v = np.concatenate([streams(63).chunk(0).random(200000), [
            0.0, 2.0 ** -53, 0.5, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -20, one]])
        got = direction_cosine(v)
        assert np.max(np.abs(got - np.cos(v * (np.pi / 2)))) \
            <= 4 * np.finfo(float).eps
        assert got.min() > 0.0 and got.max() <= 1.0

    @pytest.mark.parametrize("d", [2, 8, 2 ** 20])
    def test_boundary_variates_stay_in_the_unit_interval(self, d):
        # E = 0 gives P = 0 and a = 0, U = 0 gives V' = -1, and V near 1
        # gives a near 0: every value finite, no warning, no normal or
        # gamma drawn (the stub has neither)
        one = math.nextafter(1.0, 0.0)
        grid = np.array(list(itertools.product(
            (0.0, 5e-324, 1e-300, 1.0, 40.0, 800.0),
            (0.0, 2.0 ** -53, 0.5, one),
            (0.0, 2.0 ** -53, 0.5, 0.5 + 2.0 ** -53, one)))).T
        sigmas = (0.0, 2.0 ** -30, 0.3, 0.9, 0.999, one)
        rng = StubGenerator(grid[0], grid[1:])
        with warnings.catch_warnings(), np.errstate(
                divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            values = rows_of(raw_sampler([(d, sigmas)]), rng, grid.shape[1])
        assert rng.calls == ["standard_exponential", "random", "random"]
        assert np.all(np.isfinite(values))
        assert values.min() >= -1e-15 and values.max() <= 1.0 + 1e-15

    def test_sigma_rows_share_each_pass(self, monkeypatch):
        # the kernel and mc_means' centring call numpy ufuncs by name:
        # count the calls per chunk.  Up to SIGMA_BLOCK rows cost what
        # one row costs, and one row more adds one block: the kernel's
        # nine passes and the centring's two
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                value = getattr(np, name)
                if not isinstance(value, np.ufunc):
                    return value

                def counted(*args, **kwargs):
                    calls.append(name)
                    return value(*args, **kwargs)
                return counted

        assert sampler_module.SIGMA_BLOCK == 4
        monkeypatch.setattr(sampler_module, "np", CountingNumpy())
        for kept in (1, 5):
            kernel, chunk = {}, {}
            for rows in (1, 3, 4, 5):
                value_fn = law_sampler(
                    8, kept, tuple(0.1 * (j + 1) for j in range(rows)))
                calls.clear()
                rows_of(value_fn, streams(61).chunk(0), 100)
                kernel[rows] = len(calls)
                calls.clear()
                mc_means([(value_fn, streams(61))], 100, chunk_size=100)
                chunk[rows] = len(calls)
            assert kernel[1] == kernel[3] == kernel[4], (kept, kernel)
            assert kernel[5] - kernel[4] == 9, (kept, kernel)
            assert chunk[1] == chunk[3] == chunk[4], (kept, chunk)
            assert chunk[5] - chunk[4] == 9 + 2, (kept, chunk)

    @pytest.mark.parametrize("rows", [3, 11, 64])
    @pytest.mark.parametrize("kept", [1, 5])
    def test_scratch_stays_within_its_bound(self, kept, rows):
        # the samplers' eight work arrays, a block and its temporary:
        # the sampler docstring's (8 + 2 min(rows, SIGMA_BLOCK)) n floats
        # per thread, which does not grow with rows.  The raw job of
        # rows sigmas spreads them over three laws.  The bound leaves two
        # rows spare
        n = 20000
        sigmas = tuple(0.05 + 0.9 * j / rows for j in range(rows))
        if kept == 1:
            third = rows // 3
            value_fn = raw_sampler([(4, sigmas[:third]),
                                    (2 ** 20, sigmas[third:2 * third]),
                                    (8, sigmas[2 * third:])])
        else:
            value_fn = fidelity_sampler(8, kept, sigmas)
        rng = streams(62).chunk(0)
        tracemalloc.start()
        try:
            yielded = sum(map(len, value_fn(rng, n, Scratch())))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert yielded == rows
        assert peak <= (10 + 2 * min(rows, SIGMA_BLOCK)) * n * 8

    @pytest.mark.parametrize("kept", [1, 5, 14])
    def test_reused_scratch_matches_the_out_of_place_expressions(self, kept):
        # one thread, samplers of unequal row counts on one Scratch taking
        # turns over chunks of changing count, as a worker runs them: each
        # chunk equals the out-of-place expressions on its own stream,
        # whatever the scratch held before; the 11-sigma group is two full
        # blocks and a ragged one of 3 rows
        d = 8
        groups = ((0.0, 0.6, 0.95), (0.3,), (0.5, 0.999), ELEVEN_SIGMAS)
        scratch = Scratch()
        samplers = [law_sampler(d, kept, sigmas) for sigmas in groups]
        for i, count in enumerate((700, 3, 1, 700, 699, 1000, 2)):
            for j, (sigmas, value_fn) in enumerate(zip(groups, samplers)):
                got = rows_of(value_fn, streams(56, kept, j).chunk(i), count,
                              scratch)
                want = out_of_place_fidelities(
                    sigmas, d, kept, count, streams(56, kept, j).chunk(i))
                assert np.array_equal(got, want), (count, sigmas)

    @pytest.mark.parametrize("kept", [1, 3, 6])
    def test_successive_calls_share_no_memory(self, kept):
        # a block of a sampler on a Scratch of its own stays its own: a
        # later sampler's block neither aliases nor overwrites it
        sigmas = (0.2, 0.7)
        rng = streams(57, kept).chunk(0)
        (first,) = law_sampler(4, kept, sigmas)(rng, 500, Scratch())
        before = first.copy()
        (second,) = law_sampler(4, kept, sigmas)(rng, 500, Scratch())
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, before)

    @pytest.mark.parametrize("one, many", [
        (lambda: fidelity_sampler(8, 3, (0.2,)),
         lambda: fidelity_sampler(8, 3, (0.2, 0.7))),
        (lambda: raw_sampler([(8, (0.2,))]),
         lambda: raw_sampler([(8, (0.2, 0.7)), (2, (0.5,)),
                              (2 ** 40, ELEVEN_SIGMAS)]))],
        ids=["corrected", "raw"])
    def test_shared_draw_consumes_the_stream_once(self, one, many):
        # more sigmas, and for the raw draw more laws, draw no more
        first, second = streams(52).chunk(0), streams(52).chunk(0)
        rows_of(one(), first, 500)
        rows_of(many(), second, 500)
        assert first.random() == second.random()

    @pytest.mark.parametrize("count", [DEFAULT_CHUNK_SIZE, 1000, 7])
    def test_raw_draw_rows_equal_one_law_samplers(self, count):
        # one raw draw serves d from 2 to 2^40, laws of 1 to 11 sigmas:
        # each law's rows are bit-identical to its one-law sampler's on
        # the same generator, and to the out-of-place expressions, on a
        # full chunk and ragged ones, whatever the other laws are; the
        # three variates are drawn once (the stub has no normal or gamma)
        laws = [(2, (0.5,)), (4, (0.0, 0.3, 0.999)),
                (128, (0.1, 0.2, 0.4, 0.8)), (2 ** 20, ELEVEN_SIGMAS[:5]),
                (2 ** 40, ELEVEN_SIGMAS)]
        scratch = Scratch()
        family = rows_of(raw_sampler(laws), streams(75).chunk(count), count,
                         scratch)
        assert family.shape == (24, count)
        start = 0
        for d, sigmas in laws:
            got = family[start:start + len(sigmas)]
            start += len(sigmas)
            alone = rows_of(raw_sampler([(d, sigmas)]),
                            streams(75).chunk(count), count)
            want = out_of_place_fidelities(sigmas, d, 1, count,
                                           streams(75).chunk(count))
            assert np.array_equal(got, alone), d
            assert np.array_equal(got, want), d
        rng = StubGenerator(np.linspace(0.0, 5.0, count),
                            [np.linspace(0.0, 1.0, count, endpoint=False)]
                            * 2)
        rows_of(raw_sampler(laws), rng, count, scratch)
        assert rng.calls == ["standard_exponential", "random", "random"]

    def test_raw_draw_estimates_equal_one_law_jobs(self):
        # through mc_means on a ragged last chunk and any worker count:
        # each law's estimates are those of its one-law job, bit for bit
        laws = [(4, (0.0, 0.6)), (32, ELEVEN_SIGMAS), (2 ** 40, (0.9,))]
        want = [est for law in laws for est in mc_means(
            [(raw_sampler([law]), streams(76))], 3000,
            chunk_size=1000 - 1)[0][0]]
        for workers in (1, 2, 3):
            [(got, _)] = mc_means([(raw_sampler(laws), streams(76))], 3000,
                                  chunk_size=1000 - 1, workers=workers)
            assert list(got) == want, workers

    @pytest.mark.parametrize("make, match", [
        (lambda: raw_sampler([(4, (0.5, math.nan))]),
         r"sigma must lie in \[0, 1\), got nan"),
        (lambda: raw_sampler([(4, (0.5,)), (8, (0.5, 1.0))]),
         r"sigma must lie in \[0, 1\), got 1.0"),
        (lambda: fidelity_sampler(4, 3, (-0.1,)),
         r"sigma must lie in \[0, 1\), got -0.1"),
        (lambda: fidelity_sampler(4, 0, (0.5,)),
         r"kept must lie in \[2, 6\] at d=4, got 0"),
        # the raw law is raw_sampler's
        (lambda: fidelity_sampler(4, 1, (0.5,)),
         r"kept must lie in \[2, 6\] at d=4, got 1"),
        (lambda: fidelity_sampler(4, 8, (0.5,)),
         r"kept must lie in \[2, 6\] at d=4, got 8"),
        # every coordinate kept: the value would be 1, no law a sweep
        # samples, so it is refused, not special-cased
        (lambda: fidelity_sampler(4, 7, (0.7,)),
         r"kept must lie in \[2, 6\] at d=4, got 7"),
        # a single complex amplitude: only e0 and one coordinate exist,
        # so no kept count leaves one out
        (lambda: raw_sampler([(4, (0.5,)), (1, (0.5,))]),
         r"so d >= 2; got d=1"),
    ], ids=["nan", "one", "negative", "kept-0", "kept-1", "kept-2d",
            "kept-all", "d-1"])
    def test_rejects_bad_arguments(self, make, match):
        # refused when the sampler is made, in one line
        with pytest.raises(ValueError, match=match) as err:
            make()
        assert "\n" not in str(err.value)


class TestComposeError:
    def test_identity_transport_at_reference(self):
        density = IsotropicDensity.normal(0.5, 4)
        fresh = sample_states(density, 1, streams(40).chunk(0))
        composed = compose_errors(reference_states(4, 1), density,
                                  streams(40).chunk(0))
        assert np.allclose(composed, fresh, atol=1e-12)

    def test_distance_distribution_preserved_exactly(self):
        d = 4
        base = sample_states(IsotropicDensity.normal(0.5, d), 1,
                             streams(41).chunk(0))[0]
        error = IsotropicDensity.normal(0.7, d)
        out = compose_errors(np.tile(base, (2000, 1)), error,
                             streams(42).chunk(0))
        ref = sample_states(error, 2000, streams(42).chunk(0))
        got = 2.0 - 2.0 * out @ base
        want = 2.0 - 2.0 * ref[:, 0]
        assert np.max(np.abs(np.sort(got) - np.sort(want))) < 1e-10

    def test_near_zero_spread_recovers_base(self):
        density = IsotropicDensity.uniform_cap(1e-4, 4)
        base = sample_states(IsotropicDensity.normal(0.3, 4), 1,
                             streams(43).chunk(0))
        out = compose_errors(base, density, streams(44).chunk(0))
        assert np.linalg.norm(out - base) < 1e-3

    def test_two_uniform_errors_stay_uniform(self):
        density = IsotropicDensity.uniform(4)
        rng = streams(45).chunk(0)
        n = 100000
        cur = reference_states(4, n)
        cur = compose_errors(cur, density, rng)
        cur = compose_errors(cur, density, rng)
        value, se = mean_se(2.0 - 2.0 * cur[:, 0])
        assert abs(value - 2.0) < 3 * se

    def test_composition_variance_law(self):
        d = 8
        cases = [
            (IsotropicDensity.uniform(d), 2),
            (IsotropicDensity.normal(0.5, d), 3),
            (IsotropicDensity.uniform_cap(math.pi / 4, d), 5),
        ]
        for i, (density, n_steps) in enumerate(cases):
            rng = streams(46, i).chunk(0)
            n = 20000
            cur = reference_states(d, n)
            for _ in range(n_steps):
                cur = compose_errors(cur, density, rng)
            value, se = mean_se(2.0 - 2.0 * cur[:, 0])
            want = variance_compose_n(variance_of(density), n_steps)
            assert abs(value - want) < 3 * se, density.kind

    def test_composed_fidelity_matches_split_sigma(self):
        # five steps at sigma_u = 0.9^(1/5) behave as one step at 0.9
        d = 32
        step = IsotropicDensity.normal(0.9 ** 0.2, d)
        rng = streams(47).chunk(0)
        n = 100000
        cur = reference_states(d, n)
        for _ in range(5):
            cur = compose_errors(cur, step, rng)
        value, se = mean_se(cur[:, 0] ** 2 + cur[:, 1] ** 2)
        assert abs(value - 0.8159375) < 3 * se

    def test_norm_preserved(self):
        out = compose_errors(
            sample_states(IsotropicDensity.uniform(4), 200,
                          streams(48).chunk(0)),
            IsotropicDensity.normal(0.2, 4), streams(49).chunk(0))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose_errors(reference_states(2, 1),
                           IsotropicDensity.uniform(4),
                           streams(50).chunk(0))


class TestOneJob:
    """mc_means of a single job: the reduction itself."""

    @staticmethod
    def _value_fn(density):
        def fn(rng, count, scratch):
            x = sample_states(density, count, rng)
            yield (x[:, 0] ** 2 + x[:, 1] ** 2)[None]
        return fn

    def test_matches_closed_form(self):
        density = IsotropicDensity.normal(0.9, 32)
        [((est,), _)] = mc_means([(self._value_fn(density), streams(60))],
                                 200000)
        assert abs(est.value - 0.8159375) < 3 * est.std_error

    def test_worker_count_invariance(self):
        density = IsotropicDensity.normal(0.5, 8)
        job = (self._value_fn(density), streams(61))
        [(base, _)] = mc_means([job], 50000, workers=1)
        for workers in (2, 4):
            [(again, _)] = mc_means([job], 50000, workers=workers)
            assert again == base  # bit-identical, not approximately equal

    def test_chunk_size_changes_stream(self):
        # chunking policy is part of the reproducibility key
        density = IsotropicDensity.uniform(2)
        job = (self._value_fn(density), streams(62))
        [((a,), _)] = mc_means([job], 30000, chunk_size=16384)
        [((b,), _)] = mc_means([job], 30000, chunk_size=8192)
        assert a.value != b.value

    def test_estimate_holds_only_value_and_std_error(self):
        # the sample count and seed are the caller's; the estimate does
        # not echo them
        density = IsotropicDensity.uniform(2)
        [((est,), _)] = mc_means([(self._value_fn(density), streams(64))],
                                 1000)
        assert [f.name for f in dataclasses.fields(est)] == [
            "value", "std_error"]

    def test_ragged_final_chunk(self):
        density = IsotropicDensity.uniform(2)
        [((est,), _)] = mc_means([(self._value_fn(density), streams(63))],
                                 16384 + 7)
        # the uniform law's mean mass on two of four coordinates is 1/2
        assert abs(est.value - 0.5) < 4 * est.std_error

    def test_rows_reduce_like_one_row_calls(self):
        # ragged chunks and threads: each row's estimate is bit-identical
        # to the same values reduced alone
        def rows(rng, count):
            x = rng.standard_normal(count)
            return np.stack([x, np.exp(x), 3.0 * x * x])

        for workers in (1, 3):
            [(shared, _)] = mc_means(
                [(lambda rng, count, _: [rows(rng, count)], streams(65))],
                40000, chunk_size=7000, workers=workers)
            assert len(shared) == 3
            for j, est in enumerate(shared):
                [(alone, _)] = mc_means(
                    [(lambda rng, count, _, j=j: [rows(rng, count)[j:j + 1]],
                      streams(65))], 40000, chunk_size=7000)
                assert (est,) == alone

    def test_blocks_reduce_like_the_whole_array(self):
        # a chunk's rows yielded in blocks of 1, 3 and 2 rows, each block
        # overwritten by the next, give the estimates of the whole
        # (6, count) array, bit for bit, on ragged chunks and any worker
        # count; both equal the whole chunks centred out of place
        def whole(rng, count):
            x = rng.standard_normal(count)
            return np.stack([x, np.exp(x), 3.0 * x * x, np.sin(x),
                             x ** 3, 1.0 / (1.0 + x * x)])

        def blocks(rng, count, scratch):
            values = whole(rng, count)
            buffer = np.empty((3, count))
            for start, stop in ((0, 1), (1, 4), (4, 6)):
                block = buffer[:stop - start]
                block[...] = values[start:stop]
                yield block

        want = list(zip(*whole_chunk_reduction(
            whole, 40000, streams(77), 7000)))
        for workers in (1, 3):
            [(one, _)] = mc_means([(lambda rng, count, _: [whole(rng, count)],
                                    streams(77))], 40000, chunk_size=7000,
                                  workers=workers)
            [(many, _)] = mc_means([(blocks, streams(77))], 40000,
                                   chunk_size=7000, workers=workers)
            assert many == one, workers
            assert [(e.value, e.std_error) for e in many] == want, workers

    def test_variance_of_nearly_constant_values(self):
        # a one-pass total_sq - n mean^2 cancels to SE 0.0 here; the
        # per-chunk two-pass M2 keeps it at 1e-9 / sqrt(n)
        [((est,), _)] = mc_means(
            [(lambda rng, n, _: [1 + 1e-9 * rng.standard_normal((1, n))],
              RngStreams(3))], 200_000)
        assert est.std_error == pytest.approx(1e-9 / math.sqrt(200_000),
                                              rel=0.02)
        assert abs(est.value - 1.0) < 5 * est.std_error

    def test_merged_moments_match_one_pass_over_all_values(self):
        # Chan's merge of ragged chunks reproduces the two-pass standard
        # error of the concatenated values to rounding
        seen = []

        def fn(rng, count, scratch):
            # mc_means centres the array it is handed in place
            values = rng.exponential(size=(2, count))
            seen.append(values.copy())
            yield values

        [(ests, _)] = mc_means([(fn, streams(67))], 25000, chunk_size=4096)
        every = np.concatenate(seen, axis=1)
        for est, values in zip(ests, every):
            assert est.value == pytest.approx(values.mean(), rel=1e-14)
            want = values.std(ddof=1) / math.sqrt(values.size)
            assert est.std_error == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_samples, chunk_size", [
        (10007, 1000), (7, 1), (2500, 4096), (200_000, 16384)])
    def test_matches_whole_chunk_reduction_of_out_of_place_values(
            self, n_samples, chunk_size, fast_switching):
        # reused sampler scratch and block-wise centring in place give
        # the bits of the out-of-place values centred whole, on any
        # worker count.  Eleven rows make two full blocks and a ragged one
        d, kept = 8, 5
        for sigmas in ((0.0, 0.6, 0.95), ELEVEN_SIGMAS):
            want = list(zip(*whole_chunk_reduction(
                lambda rng, count: out_of_place_fidelities(
                    sigmas, d, kept, count, rng),
                n_samples, streams(68), chunk_size)))
            for workers in (1, 2, 3):
                [(got, _)] = mc_means(
                    [(law_sampler(d, kept, sigmas), streams(68))],
                    n_samples, chunk_size, workers)
                assert [(e.value, e.std_error) for e in got] == want, \
                    (len(sigmas), workers)

    def test_rejects_a_changing_row_count(self):
        def fn(rng, count, scratch):
            yield rng.random((1 if count == 10 else 2, count))
        with pytest.raises(ValueError, match="rows"):
            mc_means([(fn, streams(66))], 25, chunk_size=10)

    def test_rejects_zero_workers(self):
        # no thread would ever take a chunk: refused, not left to hang
        density = IsotropicDensity.uniform(2)
        with pytest.raises(ValueError, match="workers"):
            mc_means([(self._value_fn(density), streams(64))], 10, workers=0)


class TestMcMeans:
    """Many estimates on one set of threads, as a sweep runs them."""

    @staticmethod
    def _jobs():
        # samplers of unequal row and kept counts, one of them past a
        # block, a raw draw of three laws, and a plain value_fn
        jobs = [(law_sampler(8, kept, sigmas), streams(70, j))
                for j, (sigmas, kept) in enumerate((
                    ((0.0, 0.6, 0.95), 1), ((0.3,), 5),
                    ((0.2, 0.5, 0.7, 0.9, 0.999), 3), (ELEVEN_SIGMAS, 1)))]
        jobs.append((raw_sampler([(2, (0.5,)), (2 ** 20, ELEVEN_SIGMAS),
                                  (8, (0.0, 0.9))]),
                     streams(70, 5)))
        jobs.append((lambda rng, count, _: [rng.exponential(size=(2, count))],
                     streams(70, 4)))
        return jobs

    def test_jobs_equal_one_job_calls(self, fast_switching):
        # a ragged last chunk; every job bit-identical to a one-job call,
        # on any worker count, with each worker's buffers serving every job
        n_samples, chunk_size = 5 * 1000 + 123, 1000
        want = []
        for job in self._jobs():
            [(estimates, _)] = mc_means([job], n_samples, chunk_size)
            want.append(estimates)
        for workers in (1, 2, 3):
            got = mc_means(self._jobs(), n_samples, chunk_size, workers)
            assert [estimates for estimates, _ in got] == want, workers
            assert all(seconds > 0.0 for _, seconds in got), workers

    def test_each_worker_runs_its_chunks_on_one_scratch_of_its_own(
            self, fast_switching):
        # each chunk of two jobs records its thread and the Scratch it was
        # handed.  A thread's first chunk waits for the other workers'
        # first, so every worker runs one.  Only weak references are
        # kept, so they show whether any Scratch outlives the call
        for workers in (1, 2, 3):
            started, seen = threading.Barrier(workers), []

            def value_fn(rng, count, scratch):
                me = threading.get_ident()
                if all(thread != me for thread, _, _ in seen):
                    started.wait(timeout=10)
                seen.append((me, id(scratch), weakref.ref(scratch)))
                yield rng.random(out=scratch.get("x", count))[None]

            mc_means([(value_fn, streams(78, job)) for job in (0, 1)],
                     40 * 100, 100, workers)
            pools = {thread: pool for thread, pool, _ in seen}
            assert len(seen) == 2 * 40, workers
            # one Scratch per thread, whatever the job, one thread per
            # Scratch, and every worker ran
            assert len({(thread, pool) for thread, pool, _ in seen}) \
                == len(pools) == len(set(pools.values())) == workers
            assert all(ref() is None for _, _, ref in seen), workers

    def test_an_error_in_a_worker_is_raised_after_every_thread_ends(self):
        baseline = threading.active_count()
        caller = threading.current_thread()
        failed = threading.Event()
        calls = []

        def value_fn(rng, count, scratch):
            calls.append(count)
            if threading.current_thread() is caller:
                # the calling thread's first chunk outlasts a worker's
                failed.wait(timeout=10)
                return [rng.random((1, count))]
            failed.set()
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            mc_means([(value_fn, streams(71)), (value_fn, streams(72))],
                     500 * 10, chunk_size=10, workers=3)
        assert failed.is_set()
        assert threading.active_count() == baseline
        # no thread went on through the 1000 chunks
        assert len(calls) < 100

    def test_the_fold_holds_a_bounded_number_of_partials(self):
        # partials are folded as they arrive, so memory does not grow
        # with the number of chunks
        def peak(n_chunks):
            tracemalloc.start()
            try:
                mc_means([(lambda rng, count, _: [rng.random((8, count))],
                           streams(73))], n_chunks * 4, chunk_size=4,
                         workers=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(64)
        assert peak(4096) <= 2 * small

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("route", ["jobs", "one_job"])
    def test_a_call_stays_within_its_bound(self, route, workers):
        # the samplers' bound per thread, (8 + 2 SIGMA_BLOCK) n floats
        # with two rows spare, holds for a whole call: over two samplers,
        # as a sweep runs them, and over one sampler alone.  The centring
        # works in the sampler's block; a block of its own would take 4
        # rows more per thread
        n = 20000
        tracemalloc.start()
        try:
            mc_means([(law_sampler(8, kept, ELEVEN_SIGMAS),
                       streams(74, kept))
                      for kept in ((1, 5) if route == "jobs" else (5,))],
                     4 * n, n, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workers * (10 + 2 * SIGMA_BLOCK) * n * 8

    def test_standard_errors_are_calibrated(self):
        # one z = (estimate - closed form) / SE per (law, seed), as a sweep
        # keys its streams: the default codes' 9 laws at sigma = 0.5, one
        # chunk each, 300 seeds.  The estimates are independent, so the z
        # follow N(0, 1) when the standard errors mean what they say, and
        # |z| > 3 is as rare as for a normal.  The law (n, k) keeps
        # 2 ** k of 2 ** n complex amplitudes, so its closed form is the
        # raw one at d = 2 ** (n - k)
        laws = sorted({key for code in DEFAULT_CODES
                       for key in _law_keys(*code)})
        cases = [(seed, n, k) for seed in range(300) for n, k in laws]
        jobs = [(law_sampler(2 ** n, 2 ** (k + 1) - 1, (0.5,)),
                 RngStreams(seed).split(n).split(k))
                for seed, n, k in cases]
        results = mc_means(jobs, DEFAULT_CHUNK_SIZE, workers=2)
        z = np.array([
            (est.value - fidelity_psi_normal(0.5, 2 ** (n - k)))
            / est.std_error for ((est,), _), (_, n, k) in zip(results, cases)])
        assert len(laws) == 9 and z.size == 2700
        assert stats.kstest(z, "norm").pvalue > 1e-3
        # KS is blind to a 10 % scale error at this size; the sample sd
        # has a standard error of about 1 / sqrt(2 * size)
        assert abs(z.std() - 1.0) < 5 / math.sqrt(2 * z.size)
        # a two-sided binomial interval at 1e-3 around 0.27 %
        low, high = stats.binom.interval(1 - 1e-3, z.size,
                                         2 * stats.norm.sf(3.0))
        assert low <= np.count_nonzero(np.abs(z) > 3.0) <= high
