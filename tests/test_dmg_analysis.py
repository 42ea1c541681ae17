import itertools
import tracemalloc

import numpy as np
import pytest

from dstc.dmg_analysis import (
    ChannelStatSample,
    channel_stat_samples,
    empirical_outage,
    ks_two_sample,
)
from dstc.errors import ParameterError


def stat_samples_oracle(n_relays, rho, n, seed, chunk=1 << 16):
    """The sampler written out whole, one fresh array per term: the reference for the buffered one."""
    out = np.empty(n)
    for ci in range((n + chunk - 1) // chunk):
        size = min(chunk, n - ci * chunk)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, ci], dtype=np.uint64)))
        cn2 = lambda *sh: (rng.standard_normal(sh) ** 2 + rng.standard_normal(sh) ** 2) / 2.0
        g0_sq = cn2(size)
        g_sq = cn2(size, n_relays)
        f = (rng.standard_normal((size, n_relays)) + 1j * rng.standard_normal((size, n_relays))) / np.sqrt(2)
        f_sq = f.real**2 + f.imag**2
        out[ci * chunk : ci * chunk + size] = 1.0 + rho * (g0_sq + np.sum(f_sq * g_sq, axis=1))
    return out


def ks_stat_oracle(a, b):
    """Two-sample KS statistic from both empirical CDFs at the pooled points."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_one_sample_exp1(values, alpha_coeff=1.628):
    """Local oracle: one-sample KS against the unit-mean exponential CDF."""
    x = np.sort(np.asarray(values))
    n = len(x)
    cdf = 1.0 - np.exp(-x)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
    return d, d > alpha_coeff / np.sqrt(n)


class TestStatSamples:
    def test_no_relays_reduces_to_direct_term(self):
        a = channel_stat_samples(0, 3.0, 50_000, True, seed=1)
        b = channel_stat_samples(0, 3.0, 50_000, False, seed=2)
        stat, reject = ks_two_sample(a.values, b.values)
        assert not reject

    def test_zero_snr_gives_ones(self):
        s = channel_stat_samples(4, 0.0, 1000, True, seed=3)
        assert np.array_equal(s.values, np.ones(1000))

    def test_mean_matches_closed_form(self):
        # E[stat] = 1 + rho (1 + R) since every squared magnitude has unit mean
        s = channel_stat_samples(2, 10.0, 100_000, True, seed=4)
        assert np.mean(s.values) == pytest.approx(31.0, rel=0.03)

    def test_statistic_at_least_one(self):
        for partial in (True, False):
            s = channel_stat_samples(3, 7.0, 20_000, partial, seed=5)
            assert np.all(s.values >= 1.0)

    def test_chunking_invariant(self):
        # the chunked streams are keyed by seed and chunk, so one seed draws the same samples every time
        a = channel_stat_samples(2, 5.0, 30_000, True, seed=6)
        b = channel_stat_samples(2, 5.0, 30_000, True, seed=6)
        assert len(a.values) == 30_000 and np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("n", [1, 7, 8192, 8193, 65536, 65537, 200003])
    def test_buffered_draws_are_the_oracle_bitwise(self, n):
        # the row pieces (8192) and the chunks (65536) both end inside and on these sizes
        for relays, seed in itertools.product((0, 1, 2, 4, 8), (0, 11, 2**64 - 1)):
            want = stat_samples_oracle(relays, 3.7, n, seed).tobytes()
            for partial in (True, False):
                got = channel_stat_samples(relays, 3.7, n, partial, seed).values
                assert got.tobytes() == want, (relays, seed, partial)

    def test_memory_stays_near_two_chunks_of_relay_terms(self):
        channel_stat_samples(4, 10.0, 10, True, seed=0)  # keep first-call imports out of the peak
        tracemalloc.start()
        try:
            channel_stat_samples(4, 10.0, 100_000, True, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # out (0.8 MB) + two 65536 x 4 buffers (4.2 MB) + the row pieces; one array per term held 13.0 MB
        assert peak <= 7e6

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), -1.0])
    def test_rho_must_be_finite_and_nonnegative(self, rho):
        with pytest.raises(ParameterError, match="rho"):
            channel_stat_samples(2, rho, 10, True, seed=0)

    def test_sample_refuses_nan(self):
        with pytest.raises(ParameterError):
            ChannelStatSample(1.0, np.array([1.0, np.nan]))

    def test_squared_gain_is_unit_exponential(self):
        rng = np.random.default_rng(7)
        f = (rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)) / np.sqrt(2)
        d, reject = ks_one_sample_exp1(np.abs(f) ** 2)
        assert not reject

    def test_needs_positive_count(self):
        with pytest.raises(ParameterError):
            channel_stat_samples(2, 1.0, 0, True, seed=0)


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.linspace(0, 1, 1000)
        stat, reject = ks_two_sample(x, x)
        assert stat == 0.0 and not reject

    def test_distinguishes_different_rates(self):
        rng = np.random.default_rng(8)
        a = rng.exponential(1.0, 10_000)
        b = rng.exponential(0.5, 10_000)  # Exp(2) in rate terms
        stat, reject = ks_two_sample(a, b)
        assert reject and stat > 0.1

    def test_same_distribution_not_rejected(self):
        rng = np.random.default_rng(9)
        a = rng.exponential(1.0, 10_000)
        b = rng.exponential(1.0, 10_000)
        _, reject = ks_two_sample(a, b)
        assert not reject

    def test_empty_sample_rejected(self):
        with pytest.raises(ParameterError):
            ks_two_sample([], [1.0])

    def test_unknown_level_rejected(self):
        with pytest.raises(ParameterError):
            ks_two_sample([1.0], [1.0], alpha=0.2)

    def test_statistic_is_the_pooled_oracle_bitwise(self):
        rng = np.random.default_rng(14)
        for n, m in ((1, 1), (1, 9), (37, 5), (1000, 1000), (4096, 3001)):
            for decimals in (0, 1, 3, None):  # rounding makes ties within and across the samples
                a, b = rng.exponential(1.0, n), rng.exponential(1.2, m)
                if decimals is not None:
                    a, b = a.round(decimals), b.round(decimals)
                assert ks_two_sample(a, b)[0] == ks_stat_oracle(a, b)

    def test_memory_holds_no_pooled_copy(self):
        rng = np.random.default_rng(15)
        a, b = rng.exponential(1.0, 100_000), rng.exponential(1.0, 100_000)
        ks_two_sample(a[:10], b[:10])
        tracemalloc.start()
        try:
            ks_two_sample(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6  # the pooled evaluation held 9.6 MB


class TestDistributionEquality:
    def test_phase_knowledge_does_not_change_the_law(self):
        rejections = 0
        for r in (1, 2, 4, 8):
            for rho in (1.0, 10.0, 100.0):
                a = channel_stat_samples(r, rho, 20_000, True, seed=100 + r)
                b = channel_stat_samples(r, rho, 20_000, False, seed=200 + r)
                _, reject = ks_two_sample(a.values, b.values)
                rejections += int(reject)
        assert rejections <= 1

    def test_the_check_rejects_a_wrong_law_of_f(self):
        # negative control at dmg's default sizes (2 relays, 100000 samples a set): the statistic built with
        # |f|^2 ~ Exp of mean 2 is rejected against the sampler, and built the same way with mean 1 it is not.
        # KS is invariant under the map x -> 1 + rho x, so one rho speaks for all
        n, relays, rho = 100_000, 2, 10.0
        sampled = channel_stat_samples(relays, rho, n, True, seed=11).values
        rng = np.random.default_rng(12)

        def statistic(f_mean):
            g0_sq, g_sq = rng.exponential(1.0, n), rng.exponential(1.0, (n, relays))
            return 1.0 + rho * (g0_sq + np.sum(rng.exponential(f_mean, (n, relays)) * g_sq, axis=1))

        assert not ks_two_sample(sampled, statistic(1.0))[1]
        stat, reject = ks_two_sample(sampled, statistic(2.0))
        assert reject and stat > 5 * 1.628 * np.sqrt(2 / n)


class TestOutage:
    def test_zero_rate_high_snr(self):
        out = empirical_outage(2, [1000.0], rate=0.0, n=20_000, seed=10, partial_csi=True)
        assert out[0] <= 1e-3

    def test_monotone_in_snr_beyond_the_knee(self):
        # past rho^rate > 1/(1-rate) the outage threshold shrinks with rho
        out = empirical_outage(2, [100.0, 1000.0, 10_000.0], rate=0.5, n=50_000, seed=11, partial_csi=True)
        assert out[0] >= out[1] >= out[2]

    def test_both_channel_types_agree_within_ci(self):
        n = 50_000
        a = empirical_outage(2, [10.0, 100.0], rate=0.5, n=n, seed=12, partial_csi=True)
        b = empirical_outage(2, [10.0, 100.0], rate=0.5, n=n, seed=13, partial_csi=False)
        for pa_, pb_ in zip(a, b):
            se = np.sqrt(max(pa_ * (1 - pa_), 1e-9) / n) + np.sqrt(max(pb_ * (1 - pb_), 1e-9) / n)
            assert abs(pa_ - pb_) <= 4 * se + 1e-4
