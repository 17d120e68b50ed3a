import math
import tracemalloc

import numpy as np
import pytest

from beamsweep.analysis import false_alarm, miss_detection
from beamsweep.montecarlo import (
    McConfig,
    McEstimate,
    _simulate_batch,
    _statistics,
    estimate_errors,
    retry_seed,
)

Z = 1.96


def simulate(*args, **kwargs):
    """All statistics of one batch, its chunks joined."""
    return np.concatenate(list(_simulate_batch(*args, **kwargs)))


def wilson_halfwidth(p_hat, n):
    return Z / (1 + Z * Z / n) * math.sqrt(p_hat * (1 - p_hat) / n + Z * Z / (4 * n * n))


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            McConfig(trials=0, seed=1, l_sector_int=1)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=-1, l_sector_int=1)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=2 ** 64, l_sector_int=1)
        with pytest.raises(ValueError):
            McConfig(trials=10, seed=1, l_sector_int=0)

    def test_estimate_rejects_nonpositive_snr(self):
        mc = McConfig(trials=10, seed=1, l_sector_int=2)
        with pytest.raises(ValueError):
            estimate_errors(0.0, mc)
        with pytest.raises(ValueError):
            estimate_errors(-1.0, mc)


class TestStatisticDistribution:
    @pytest.mark.parametrize("l_s", [1, 16])
    def test_h0_mean(self, l_s):
        trials = 100_000
        stats = simulate(l_s, 1.0, False, seed=11, trials=trials)
        assert abs(stats.mean() - l_s) <= 3.0 * math.sqrt(l_s / trials)

    def test_h1_mean_scales_with_snr(self):
        l_s, phi, trials = 4, 2.5, 100_000
        stats = simulate(l_s, phi, True, seed=11, trials=trials)
        expected = l_s * (1.0 + phi)
        tol = 3.0 * (1.0 + phi) * math.sqrt(l_s / trials)
        assert abs(stats.mean() - expected) <= tol

    def test_h1_is_scaled_h0_on_same_stream(self):
        phi = 0.7
        uniforms = np.random.Generator(np.random.Philox(5)).random((64, 8))
        s0 = _statistics(uniforms.copy(), phi, False)  # overwrites its input
        s1 = _statistics(uniforms.copy(), phi, True)
        assert np.array_equal(s1, s0 * (1.0 + phi))

    def test_h0_variance(self):
        # A sum of l_s unit exponentials has variance l_s.
        l_s, trials = 16, 100_000
        stats = simulate(l_s, 1.0, False, seed=13, trials=trials)
        # Standard error of the sample variance: sqrt((mu4 - sigma^4) / n).
        tol = 3.0 * math.sqrt((6.0 * l_s + 2.0 * l_s * l_s) / trials)
        assert abs(stats.var() - l_s) <= tol

    def test_statistics_positive(self):
        stats = simulate(2, 1.0, False, seed=3, trials=1000)
        assert np.all(stats > 0.0)
        assert np.all(np.isfinite(stats))


class TestDeterminism:
    def test_estimates_repeat_exactly(self):
        mc = McConfig(trials=20_000, seed=123, l_sector_int=4)
        assert estimate_errors(1.0, mc) == estimate_errors(1.0, mc)

    # At l_s = 999 the default chunk holds 262 trials, so it splits too.
    @pytest.mark.parametrize("l_s", [1, 3, 5, 16, 999])
    def test_chunking_cannot_change_results(self, l_s):
        kw = dict(l_s=l_s, phi_w=0.5, under_h1=True, seed=9, trials=501)
        base = simulate(**kw)
        assert np.array_equal(base, simulate(**kw, chunk=17))
        assert np.array_equal(base, simulate(**kw, chunk=500))

    @pytest.mark.parametrize("l_s", [1, 3, 5, 16])
    def test_trial_independent_of_trial_count(self, l_s):
        batch = simulate(l_s, 0.5, True, seed=9, trials=200)
        for trial in (0, 7, 101, 199):
            alone = simulate(l_s, 0.5, True, seed=9, trials=trial + 1)
            assert alone[trial] == batch[trial]

    def test_peak_memory_bounded_at_long_dwell(self):
        # Chunks of 65,536 trials (65,536 x 320 doubles) peaked near 482 MB.
        tracemalloc.start()
        try:
            simulate(160, 1.0, False, seed=1, trials=65_536)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_estimate_memory_bounded_in_trials(self):
        # Keeping both hypotheses' full statistic arrays peaked at 64.9 MB here.
        tracemalloc.start()
        try:
            estimate_errors(1.0, McConfig(trials=4_000_000, seed=1, l_sector_int=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_peak_memory_bounded_for_a_wide_row(self):
        # A row of 2**22 samples was held whole, 33.6 MB traced.
        tracemalloc.start()
        try:
            estimate_errors(1.0, McConfig(trials=2, seed=1, l_sector_int=1 << 22))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("under_h1", [False, True])
    def test_wide_row_is_the_sum_over_its_pieces(self, under_h1):
        # Just over one chunk: a full piece and a piece of three samples.
        l_s, phi, seed, trials = (1 << 18) + 3, 0.5, 9, 3
        blocks = (l_s + 3) // 4
        key = np.array([seed, int(under_h1)], dtype=np.uint64)
        expected = []
        for trial in range(trials):
            bits = np.random.Philox(key=key)
            bits.advance(trial * blocks)
            uniforms = np.random.Generator(bits).random((1, l_s))
            expected.append(_statistics(uniforms, phi, under_h1)[0])
        stats = simulate(l_s, phi, under_h1, seed=seed, trials=trials)
        assert stats.shape == (trials,)
        np.testing.assert_allclose(stats, expected, rtol=1e-12, atol=0.0)

    def test_hypotheses_use_distinct_streams(self):
        h0 = simulate(2, 1.0, False, seed=9, trials=50)
        h1 = simulate(2, 1.0, True, seed=9, trials=50)
        assert not np.array_equal(h0 * 2.0, h1)

    def test_retry_seed_fixed_and_distinct(self):
        assert retry_seed(42) == retry_seed(42)
        assert retry_seed(42) != 42
        assert 0 <= retry_seed(2 ** 64 - 1) < 2 ** 64


class TestEstimates:
    def test_unit_cell_against_closed_form(self):
        mc = McConfig(trials=1_000_000, seed=42, l_sector_int=1)
        est = estimate_errors(1.0, mc)
        assert isinstance(est, McEstimate)
        assert abs(est.alpha_hat - 0.25) <= 3.0 * est.ci_halfwidth_alpha
        assert abs(est.beta_hat - 0.5) <= 3.0 * est.ci_halfwidth_beta
        # Half-widths at p = 0.25 and p = 0.5 with 1e6 trials.
        assert est.ci_halfwidth_alpha == pytest.approx(0.00085, rel=0.05)
        assert est.ci_halfwidth_beta == pytest.approx(0.00098, rel=0.05)

    def test_mid_cell_against_closed_form(self):
        mc = McConfig(trials=100_000, seed=7, l_sector_int=4)
        est = estimate_errors(1.0, mc)
        assert abs(est.alpha_hat - false_alarm(4.0, 1.0)) <= 3.0 * est.ci_halfwidth_alpha
        assert abs(est.beta_hat - miss_detection(4.0, 1.0)) <= 3.0 * est.ci_halfwidth_beta

    def test_degenerate_single_trial(self):
        est = estimate_errors(1.0, McConfig(trials=1, seed=5, l_sector_int=1))
        assert est.alpha_hat in (0.0, 1.0)
        assert est.beta_hat in (0.0, 1.0)

    def test_blind_detector_at_zero_snr(self):
        est = estimate_errors(1e-9, McConfig(trials=100_000, seed=21, l_sector_int=16))
        slack = 3.0 * (est.ci_halfwidth_alpha + est.ci_halfwidth_beta)
        assert abs(est.xi_hat - 1.0) <= slack

    def test_estimate_internal_consistency(self):
        est = estimate_errors(2.0, McConfig(trials=5000, seed=3, l_sector_int=2))
        assert est.xi_hat == est.alpha_hat + est.beta_hat
        assert est.trials == 5000
        assert est.ci_halfwidth_alpha == pytest.approx(
            wilson_halfwidth(est.alpha_hat, 5000), abs=1e-15
        )
        assert est.ci_halfwidth_beta == pytest.approx(
            wilson_halfwidth(est.beta_hat, 5000), abs=1e-15
        )
