"""codesim's estimators and sampler.mc_mean equal the mc_means jobs they
wrap, bit for bit.

No command calls them; bench/probes.py wraps them by name, so they stay
until the probes count mc_means jobs instead.  This is the only test
that calls them.
"""

from isoqec.codesim import corrected_fidelity_mc, raw_fidelity_mc
from isoqec.distributions import CodeParams
from isoqec.sampler import (
    RngStreams,
    fidelity_sampler,
    mc_mean,
    mc_means,
    raw_sampler,
)


def test_each_estimator_equals_its_mc_means_job():
    # two chunks, the last ragged, three sigmas, on one and two workers
    params, sigmas, n_samples = CodeParams(3, 1), (0.0, 0.4, 0.9), 30000
    streams = RngStreams(20260819).split(27)
    for workers in (1, 2):
        raw, corrected = (
            estimates for estimates, _ in mc_means(
                [(raw_sampler([(params.d, sigmas)]), streams),
                 (fidelity_sampler(params.d, 2 * params.d_dprime - 1,
                                   sigmas), streams)],
                n_samples, workers=workers))
        assert raw_fidelity_mc(params.d, sigmas, n_samples, streams,
                               workers=workers) == raw
        assert corrected_fidelity_mc(params, sigmas, n_samples, streams,
                                     workers=workers) == corrected
        assert mc_mean(raw_sampler([(params.d, sigmas)]), n_samples,
                       streams, workers=workers) == raw
        assert len(raw) == len(corrected) == len(sigmas)
