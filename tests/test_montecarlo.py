import dataclasses
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import gamma, ks_2samp, kstest

from beamsweep import analysis, montecarlo
from beamsweep.analysis import false_alarm, miss_detection
from beamsweep.montecarlo import (
    McConfig,
    McEstimate,
    _chunk_draws,
    estimate_cells,
    retry_seed,
)

Z = 1.96
CHUNK = montecarlo._CHUNK_TRIALS


def simulate(l_s, phi_w, under_h1, seed, trials):
    """All statistics of one (cell, hypothesis): the dwell's chunks joined.

    Both hypotheses share the draws; under H1 they are scaled by 1 + phi_w,
    the law of the signal-present statistic.
    """
    sizes = [min(CHUNK, trials - start) for start in range(0, trials, CHUNK)]
    draws = np.concatenate([_chunk_draws(l_s, seed, c, size) for c, size in enumerate(sizes)])
    return draws * (1.0 + phi_w) if under_h1 else draws


def wilson_halfwidth(p_hat, n):
    return Z / (1 + Z * Z / n) * math.sqrt(p_hat * (1 - p_hat) / n + Z * Z / (4 * n * n))


def estimate_one(l_s, phi_w, mc):
    """The estimate of one (l_s, phi_w) cell: a one-cell ``estimate_cells`` call."""
    (estimate,) = estimate_cells([(l_s, phi_w)], mc)
    return estimate


# Traced bytes one worker's job may hold at once.
WORKER_BYTES = 240 * 2**10


def worker_memory_bound(workers):
    """Traced bytes an estimate_cells call may peak at with this many workers.

    512 KB plus ``WORKER_BYTES`` per worker, 8 MB at 32 workers. A worker
    holds one chunk of 2**14 draws (128 KB) and, while it counts an event,
    one mask (16 KB); the calling thread is one of the workers. With
    ``_usable_cpus`` patched, the bound does not depend on the machine's
    CPUs; on a 2-core VM the peaks were 0.14 to 0.15, 0.27 to 0.29 and 0.8
    to 3.9 MB at 1, 2 and 32 workers.
    """
    return 2**19 + workers * WORKER_BYTES


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            McConfig(trials=0, seed=1)
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer, got -1"):
            McConfig(trials=10, seed=-1)
        with pytest.raises(ValueError, match="seed must be a 64-bit"):
            McConfig(trials=10, seed=2 ** 64)

    @pytest.mark.parametrize("field", ["trials", "seed"])
    def test_rejects_a_field_that_is_not_an_integer(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 1.5$"):
            McConfig(**{"trials": 10, "seed": 1, field: 1.5})

    def test_numpy_integers_are_stored_as_python_ints(self):
        mc = McConfig(trials=np.int64(100), seed=np.uint64(7))
        assert (type(mc.trials), type(mc.seed)) == (int, int)
        assert mc == McConfig(trials=100, seed=7)
        (est,) = estimate_cells([(4, 1.0)], mc)
        assert [type(value) for value in dataclasses.astuple(est)] == [float] * 4

    def test_estimate_rejects_nonpositive_snr(self):
        mc = McConfig(trials=10, seed=1)
        with pytest.raises(ValueError):
            estimate_one(2, 0.0, mc)
        with pytest.raises(ValueError):
            estimate_one(2, -1.0, mc)


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

    @pytest.mark.parametrize("l_s", [1, 16, 160])
    def test_batch_is_a_sum_of_unit_exponentials(self, l_s):
        # One gamma draw per trial has the law of the sum of l_s samples'
        # energies, each -log1p(-U) from one uniform U.
        trials = 10_000
        uniforms = np.random.Generator(np.random.Philox(77)).random((trials, l_s))
        sums = -np.log1p(-uniforms).sum(axis=1)
        stats = simulate(l_s, 1.0, False, seed=77, trials=trials)
        assert ks_2samp(stats, sums).pvalue > 1e-3

    @pytest.mark.parametrize("l_s", [16, 2.5, 32 / 31])
    def test_h1_is_scaled_gamma_of_the_chunk_substreams(self, l_s):
        # Chunk c is SFC64 seeded by the c-th child of the seed's
        # SeedSequence; trials past the first chunk come from the second
        # substream. A dwell need not be whole: the draws are Gamma(l_s) at
        # its real shape.
        phi, seed, trials = 0.7, 5, CHUNK + 300
        expected = np.concatenate([
            np.random.Generator(
                np.random.SFC64(np.random.SeedSequence(seed).spawn(c + 1)[c])
            ).standard_gamma(float(l_s), n)
            for c, n in ((0, CHUNK), (1, 300))
        ])
        assert np.array_equal(simulate(l_s, phi, False, seed=seed, trials=trials), expected)
        assert np.array_equal(
            simulate(l_s, phi, True, seed=seed, trials=trials), (1.0 + phi) * expected
        )

    @pytest.mark.parametrize("seed", [5, 42, 7])
    @pytest.mark.parametrize("l_s", [1, 32 / 31, 2.5, 160])
    def test_draws_follow_the_gamma_law(self, l_s, seed):
        # Chunk 0 and the head of chunk 1 against Gamma(l_s) itself, with no
        # generator on the other side. Shapes below 1 are left out: at 1e-3
        # about half the draws underflow to 0.0, and KS fails on those ties
        # for any generator.
        stats = simulate(l_s, 1.0, False, seed=seed, trials=CHUNK + 300)
        assert kstest(stats, gamma(l_s).cdf).pvalue > 1e-3

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
        mc = McConfig(trials=20_000, seed=123)
        assert estimate_one(4, 1.0, mc) == estimate_one(4, 1.0, mc)

    # A call's last chunk is cut short at its trial count: cutting a chunk at
    # 17 or 500 draws keeps them, whichever chunk it is.
    @pytest.mark.parametrize("l_s", [1, 3, 5, 16, 999])
    def test_chunking_cannot_change_results(self, l_s):
        for chunk in (0, 1, 7):
            full = _chunk_draws(l_s, 9, chunk)
            assert full.shape == (CHUNK,)
            for size in (17, 500):
                assert np.array_equal(_chunk_draws(l_s, 9, chunk, size), full[:size])

    @pytest.mark.parametrize("l_s", [1, 3, 5, 16])
    def test_trial_independent_of_trial_count(self, l_s):
        # Across the first chunk boundary too: trials 2**14 - 1, 2**14 and
        # 2**14 + 1 are the last of chunk 0 and the first two of chunk 1.
        batch = simulate(l_s, 0.5, True, seed=9, trials=CHUNK + 200)
        for trial in (0, 7, 101, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 199):
            alone = simulate(l_s, 0.5, True, seed=9, trials=trial + 1)
            assert np.array_equal(alone, batch[: trial + 1])

    def test_peak_memory_bounded_at_long_dwell(self):
        # Chunks of 65,536 trials (65,536 x 320 doubles) peaked near 482 MB.
        tracemalloc.start()
        try:
            simulate(160, 1.0, False, seed=1, trials=65_536)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("workers", [1, 2, 32])
    def test_estimate_memory_bounded_in_trials(self, monkeypatch, workers):
        # Keeping both hypotheses' full statistic arrays peaked at 64.9 MB here.
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        tracemalloc.start()
        try:
            estimate_one(1, 1.0, McConfig(trials=4_000_000, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < worker_memory_bound(workers)

    def test_no_job_list_grows_with_the_trials(self, monkeypatch):
        # 10**6 chunks for each of two dwells, and the first job raises, so
        # nothing is drawn. One tuple per (dwell, chunk), built before any
        # job ran, traced 225 MB here.
        def fail(job):
            raise RuntimeError("no draws")

        monkeypatch.setattr(montecarlo, "_count_events", fail)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        mc = McConfig(trials=10**6 * CHUNK, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="no draws"):
                estimate_cells([(2, 1.0), (2.5, 1.0)], mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_peak_memory_bounded_for_a_wide_row(self):
        # A row of 2**22 samples was held whole, 33.6 MB traced.
        tracemalloc.start()
        try:
            estimate_one(1 << 22, 1.0, McConfig(trials=2, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_hypotheses_share_a_stream_and_substreams_differ(self):
        h0 = simulate(2, 1.0, False, seed=9, trials=50)
        h1 = simulate(2, 1.0, True, seed=9, trials=50)
        assert np.array_equal(h0 * 2.0, h1)
        # Adjacent chunks, and chunk 0 of adjacent seeds, share no draw: an
        # overlapping counter range would repeat a shifted run of them.
        chunk0 = _chunk_draws(2, 9, 0)
        for other in (_chunk_draws(2, 9, 1), _chunk_draws(2, 10, 0)):
            assert np.intersect1d(chunk0, other).size == 0

    def test_retry_seed_fixed_and_distinct(self):
        assert retry_seed(42) == retry_seed(42)
        assert retry_seed(42) != 42
        assert 0 <= retry_seed(2 ** 64 - 1) < 2 ** 64


class TestEstimates:
    def test_unit_cell_against_closed_form(self):
        est = estimate_one(1, 1.0, McConfig(trials=1_000_000, seed=42))
        assert isinstance(est, McEstimate)
        assert abs(est.alpha_hat - 0.25) <= 3.0 * est.ci_halfwidth_alpha
        assert abs(est.beta_hat - 0.5) <= 3.0 * est.ci_halfwidth_beta
        # Half-widths at p = 0.25 and p = 0.5 with 1e6 trials.
        assert est.ci_halfwidth_alpha == pytest.approx(0.00085, rel=0.05)
        assert est.ci_halfwidth_beta == pytest.approx(0.00098, rel=0.05)

    def test_mid_cell_against_closed_form(self):
        est = estimate_one(4, 1.0, McConfig(trials=100_000, seed=7))
        assert abs(est.alpha_hat - false_alarm(4.0, 1.0)) <= 3.0 * est.ci_halfwidth_alpha
        assert abs(est.beta_hat - miss_detection(4.0, 1.0)) <= 3.0 * est.ci_halfwidth_beta

    @pytest.mark.parametrize("l_s", [32 / 31, 2.5, 0.5])
    def test_real_dwell_against_closed_form(self, l_s):
        # fig3's optimum m = 31 has the dwell 32/31, and its m = 64 has 0.5.
        est = estimate_one(l_s, 1.0, McConfig(trials=100_000, seed=7))
        assert abs(est.alpha_hat - false_alarm(l_s, 1.0)) <= 3.0 * est.ci_halfwidth_alpha
        assert abs(est.beta_hat - miss_detection(l_s, 1.0)) <= 3.0 * est.ci_halfwidth_beta

    def test_degenerate_single_trial(self):
        est = estimate_one(1, 1.0, McConfig(trials=1, seed=5))
        assert est.alpha_hat in (0.0, 1.0)
        assert est.beta_hat in (0.0, 1.0)

    def test_blind_detector_at_zero_snr(self):
        est = estimate_one(16, 1e-9, McConfig(trials=100_000, seed=21))
        slack = 3.0 * (est.ci_halfwidth_alpha + est.ci_halfwidth_beta)
        assert abs(est.alpha_hat + est.beta_hat - 1.0) <= slack

    def test_estimate_internal_consistency(self):
        est = estimate_one(2, 2.0, McConfig(trials=5000, seed=3))
        # Python floats, not numpy scalars: the CSV writes them, and the pass
        # flag compared from them, as floats and booleans.
        assert [type(value) for value in dataclasses.astuple(est)] == [float] * 4
        assert est.ci_halfwidth_alpha == pytest.approx(
            wilson_halfwidth(est.alpha_hat, 5000), abs=1e-15
        )
        assert est.ci_halfwidth_beta == pytest.approx(
            wilson_halfwidth(est.beta_hat, 5000), abs=1e-15
        )


def job_thresholds(monkeypatch, cells):
    """The (x0, x1) that the jobs of an ``estimate_cells`` call hold for each cell.

    ``_count_events`` is patched to count nothing, so no chunk is drawn.
    """
    thresholds = {}

    def record(job):
        thresholds.update((cell, (x0, x1)) for cell, x0, x1 in job[3])
        return [(0, 0)] * len(job[3])

    monkeypatch.setattr(montecarlo, "_count_events", record)
    estimate_cells(cells, McConfig(trials=1, seed=1))
    return [thresholds[cell] for cell in range(len(cells))]


class TestThreshold:
    """A cell's thresholds are the closed forms' (x0, x1), from the same kernel."""

    PHIS = (5e-324, 1e-300, 1e-9, 0.1, 1.0, 1.5, 10.0, 1e6, 1e300, 1.7976931348623157e308)
    DWELLS = (1e-300, 32 / 31, 1, 2, 2.5, 3, 16, 160, 2**53 + 1, 2**60 + 1, 1e308)

    def test_equals_closed_form_threshold_bit_for_bit(self, monkeypatch):
        cells = [(l_s, phi) for phi in self.PHIS for l_s in self.DWELLS]
        for (l_s, phi), thresholds in zip(cells, job_thresholds(monkeypatch, cells)):
            expected = analysis._thresholds(float(l_s), np.float64(phi))[1:]
            assert thresholds == expected, (phi, l_s)

    @pytest.mark.parametrize("phi", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_snr_it_cannot_simulate(self, monkeypatch, phi):
        started = []
        monkeypatch.setattr(montecarlo, "_count_events", started.append)
        with pytest.raises(ValueError, match="phi_w must be finite and > 0"):
            estimate_cells([(4, phi)], McConfig(trials=1, seed=1))
        assert started == []


class TestOneArrayCheck:
    """A call checks and thresholds all its cells in one array call each."""

    MC = McConfig(trials=3000, seed=7)

    def test_one_check_and_one_threshold_call_per_call(self, monkeypatch):
        cells = [(1, 0.5), (4, 2.0), (1, 10.0), (2.5, 1e300)]
        expected = [estimate_one(*cell, self.MC) for cell in cells]
        calls = []
        for module, name in ((montecarlo, "_cell"), (analysis, "_thresholds")):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, name=name, original=original: (
                    calls.append(name) or original(*args)
                )
            )
        assert estimate_cells(cells, self.MC) == expected
        assert calls == ["_cell", "_thresholds"]

    def test_zero_d_array_dwell_is_its_float(self):
        assert estimate_cells([(np.array(4.0), 1.0)], self.MC) == estimate_cells(
            [(4.0, 1.0)], self.MC
        )

    def test_dwells_that_round_to_one_double_share_a_stream(self, monkeypatch):
        count_events = montecarlo._count_events
        dwells = []

        def counter(job):
            dwells.append(job[0])
            return count_events(job)

        monkeypatch.setattr(montecarlo, "_count_events", counter)
        cells = [(2**53, 1.0), (2**53 + 1, 1.0)]
        mc = McConfig(trials=100, seed=1)
        estimates = estimate_cells(cells, mc)
        assert dwells == [2.0**53]
        assert estimates == [estimate_one(2.0**53, 1.0, mc)] * 2

    def test_every_dwell_is_checked_before_any_snr(self):
        with pytest.raises(ValueError, match="^l_s must be finite and > 0, got 0.0$"):
            estimate_cells([(4, 0.0), (0, 1.0)], McConfig(trials=1, seed=1))

    def test_integer_beyond_the_float_range_is_named_before_any_stream(self, monkeypatch):
        jobs = []
        monkeypatch.setattr(montecarlo, "_count_events", jobs.append)
        with pytest.raises(ValueError) as info:
            estimate_cells([(10**400, 1.0)], McConfig(100, 1))
        assert str(info.value) == "l_s must be finite and > 0, got inf"
        assert jobs == []


class TestConcurrentStreams:
    CELLS = [(1, 0.5), (4, 2.0), (16, 1.0), (2, 10.0)]
    MC = McConfig(trials=3000, seed=7)

    def test_cells_match_one_cell_calls(self):
        assert estimate_cells(self.CELLS, self.MC) == [
            estimate_one(*cell, self.MC) for cell in self.CELLS
        ]

    def test_no_cells_start_no_pool(self):
        assert estimate_cells([], self.MC) == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_counts_do_not_depend_on_the_workers(self, monkeypatch, cpus):
        expected = [estimate_one(*cell, self.MC) for cell in self.CELLS]
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        # Frequent thread switches, so a count gathered out of order shows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert estimate_cells(self.CELLS, self.MC) == expected
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads

    def test_every_cell_checked_before_any_stream(self, monkeypatch):
        started = []
        monkeypatch.setattr(montecarlo, "_count_events", started.append)
        mc = McConfig(trials=10, seed=1)
        with pytest.raises(ValueError, match="phi_w .* got 0.0"):
            estimate_cells([(2, 1.0), (2, 0.0)], mc)
        # The closed forms' one check: no whole dwell is asked for.
        with pytest.raises(ValueError, match="^l_s must be finite and > 0, got 0.0$"):
            estimate_cells([(2, 1.0), (0, 1.0)], mc)
        assert started == []

    @pytest.mark.parametrize("l_s", [math.inf, math.nan])
    def test_non_finite_dwell_checked_before_any_stream(self, monkeypatch, l_s):
        # An unchecked inf dwell once gave alpha_hat 0 and beta_hat 1, and a
        # nan one 0 and 0.
        started = []
        monkeypatch.setattr(montecarlo, "_count_events", started.append)
        with pytest.raises(ValueError, match=f"^l_s must be finite and > 0, got {l_s}$"):
            estimate_cells([(2, 1.0), (l_s, 1.0)], McConfig(trials=10, seed=1))
        assert started == []

    def test_failing_stream_raises_and_cancels_the_rest(self, monkeypatch):
        # One worker: the first job raises, and no later one may start.
        count_events = montecarlo._count_events
        started = []

        def counter(job):
            started.append(job)
            if len(started) == 1:
                raise RuntimeError("stream failed")
            return count_events(job)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(montecarlo, "_count_events", counter)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="stream failed"):
            estimate_cells(self.CELLS, self.MC)
        assert threading.active_count() == threads
        assert [job[:2] for job in started] == [(1, 0)]  # of 4 jobs

    def test_first_failing_job_in_job_order_raises(self, monkeypatch):
        # Three workers, and the second and fourth jobs fail. The fourth
        # mostly fails first, on the worker the quick first job freed, but
        # the second, ahead of it in job order, is the one raised.
        count_events = montecarlo._count_events

        def counter(job):
            if job[0] == 2:
                time.sleep(0.05)
                raise RuntimeError("second job")
            if job[0] == 4:
                raise RuntimeError("fourth job")
            return count_events(job)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(montecarlo, "_count_events", counter)
        threads = threading.active_count()
        for _ in range(5):
            with pytest.raises(RuntimeError, match="second job"):
                estimate_cells([(1, 0.5), (2, 1.0), (3, 1.0), (4, 1.0)], self.MC)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("raiser", ["calling", "helper"])
    def test_interrupt_on_either_thread_propagates(self, monkeypatch, raiser):
        # Two workers, each holding a job: one thread's job raises
        # KeyboardInterrupt, and the other's outlasts it by 50 ms, so a helper
        # left unjoined shows. The interrupt must leave the call with the
        # helper joined; a helper's must not end only its own thread.
        count_events = montecarlo._count_events
        caller = threading.get_ident()
        holding, interrupted = threading.Event(), threading.Event()

        def counter(job):
            if (threading.get_ident() == caller) == (raiser == "calling"):
                holding.wait(timeout=10)
                interrupted.set()
                raise KeyboardInterrupt
            holding.set()
            interrupted.wait(timeout=10)
            time.sleep(0.05)
            return count_events(job)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_count_events", counter)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            estimate_cells(self.CELLS, self.MC)
        assert interrupted.is_set()
        assert threading.active_count() == threads

    def test_failed_thread_start_joins_the_started_helper(self, monkeypatch):
        # Three workers, and the second helper cannot start: the first, whose
        # job takes 50 ms, must be joined before the error leaves the call.
        count_events = montecarlo._count_events
        start = threading.Thread.start
        started = []

        def counter(job):
            time.sleep(0.05)
            return count_events(job)

        def failing_start(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(montecarlo, "_count_events", counter)
        monkeypatch.setattr(threading.Thread, "start", failing_start)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            estimate_cells(self.CELLS, self.MC)
        assert threading.active_count() == threads

    def test_usable_cpus_follow_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert montecarlo._usable_cpus() == 3

    @pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert montecarlo._usable_cpus() == expected


class TestSharedStreams:
    """Cells that share l_s are counted from one draw per hypothesis."""

    FLOAT_MAX = sys.float_info.max
    # Three chunks per dwell.
    MC = McConfig(trials=2 * CHUNK + 3000, seed=1)

    def shared_cells(self):
        return [
            # One l_s over several phi_w; at the float limit x1 is about
            # 1.6e-305, below every draw.
            *((4, phi_w) for phi_w in (0.1, 1.0, 10.0, 1e308, self.FLOAT_MAX)),
            # A duplicated cell, ahead of and behind another stream.
            (16, 1.0), (16, 1.0), (4, 1.0),
        ]

    def test_cells_match_one_cell_calls(self):
        cells = self.shared_cells()
        assert estimate_cells(cells, self.MC) == [estimate_one(*cell, self.MC) for cell in cells]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_counts_do_not_depend_on_the_workers(self, monkeypatch, cpus):
        cells = self.shared_cells()
        expected = [estimate_one(*cell, self.MC) for cell in cells]
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert estimate_cells(cells, self.MC) == expected
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads

    def test_one_job_per_dwell_and_chunk(self, monkeypatch):
        count_events = montecarlo._count_events
        jobs = []

        def counter(job):
            jobs.append(job)
            return count_events(job)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(montecarlo, "_count_events", counter)
        estimate_cells(self.shared_cells(), self.MC)
        # Distinct l_s times chunks, each (l_s, chunk) once with the call's
        # one McConfig, in the order of each dwell's first cell, then chunk.
        assert [job[:3] for job in jobs] == [
            (l_s, chunk, self.MC) for l_s in (4, 16) for chunk in range(3)
        ]
        # The cells each chunk serves, in cell order, with the closed forms'
        # (x0, x1) of each.
        cells = self.shared_cells()
        expected = [
            [(cell, *analysis._thresholds(float(l_s), np.float64(phi_w))[1:])
             for cell, (l_s, phi_w) in enumerate(cells) if l_s == dwell]
            for dwell in (4, 16)
        ]
        assert [cell for cell, _, _ in expected[0]] == [0, 1, 2, 3, 4, 7]
        assert [job[3] for job in jobs] == [expected[0]] * 3 + [expected[1]] * 3

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_one_helper_thread_per_further_worker(self, monkeypatch, cpus):
        # Six jobs; the calling thread is one worker, and each further worker
        # is one helper thread that claims jobs until none is left.
        count_events = montecarlo._count_events
        caller = threading.get_ident()
        ran = []
        caller_ran = threading.Event()
        start = threading.Thread.start
        started = []

        def counter(job):
            thread = threading.get_ident()
            ran.append(thread)
            if thread == caller:
                caller_ran.set()
            else:
                # Each helper holds its first job until the caller has run
                # one, so the helpers cannot take every job.
                caller_ran.wait(timeout=10)
            return count_events(job)

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(montecarlo, "_count_events", counter)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        estimate_cells(self.shared_cells(), self.MC)
        assert len(started) == min(6, cpus) - 1
        assert caller in ran
        assert len(ran) == 6

    def test_counts_are_the_events_of_each_cells_statistics(self):
        # Two chunks; both hypotheses count from the same draws.
        l_s, seed, trials = 2, 9, 20_001
        phis = (0.2, 1.0, 3.0, self.FLOAT_MAX)
        estimates = estimate_cells([(l_s, phi_w) for phi_w in phis], McConfig(trials, seed))
        draws = simulate(l_s, 1.0, False, seed=seed, trials=trials)
        for phi_w, est in zip(phis, estimates):
            _, x0, x1 = analysis._thresholds(float(l_s), np.float64(phi_w))
            assert est.alpha_hat == np.count_nonzero(draws > x0) / trials
            assert est.beta_hat == np.count_nonzero(draws <= x1) / trials
            # The H1 statistic against x0, as misses were once counted, gives
            # the same count on these draws.
            with np.errstate(over="ignore"):
                scaled = draws * (1.0 + phi_w)
            assert np.count_nonzero(scaled <= x0) == np.count_nonzero(draws <= x1)
        assert estimates[-1].beta_hat == 0.0  # x1 is below every draw

    @pytest.mark.parametrize("workers", [1, 2, 32])
    def test_peak_memory_bounded_with_shared_streams(self, monkeypatch, workers):
        # 9 cells over 3 dwells, 62 chunks per dwell: within the bound of
        # test_estimate_memory_bounded_in_trials.
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        cells = [(l_s, phi_w) for l_s in (1, 4, 16) for phi_w in (0.1, 1.0, 10.0)]
        tracemalloc.start()
        try:
            estimate_cells(cells, McConfig(trials=1_000_000, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < worker_memory_bound(workers)

    @pytest.mark.parametrize("phi_w", [0.3, 1.0, 2.5, 7.0, 123.0])
    def test_events_at_the_thresholds_are_the_closed_forms(self, monkeypatch, phi_w):
        # Draws within a few ulps of x1, and at x0 and its neighbours: a miss
        # is a draw at or below x1 and a false alarm a draw above x0, exactly.
        # The H1 statistic (1 + phi_w) * draw against x0 can round such a
        # draw to the other side.
        _, x0, x1 = analysis._thresholds(4.0, np.float64(phi_w))
        draws = np.array(
            [x1 * (1.0 + k * 2.0**-52) for k in range(-6, 7)]
            + [np.nextafter(x0, 0.0), x0, np.nextafter(x0, np.inf)]
        )
        monkeypatch.setattr(montecarlo, "_chunk_draws", lambda l_s, seed, chunk, size: draws)
        (est,) = estimate_cells([(4, phi_w)], McConfig(trials=draws.size, seed=1))
        assert est.beta_hat == np.count_nonzero(draws <= x1) / draws.size
        assert est.alpha_hat == np.count_nonzero(draws > x0) / draws.size

    def test_one_job_holds_a_chunk_and_a_mask(self):
        # One full chunk (128 KB) and one 16 KB mask at a time, however many
        # cells the chunk serves; a scaled copy of the chunk per cell made it
        # 273 KB, above a worker's share of worker_memory_bound.
        members = [
            (cell, *analysis._thresholds(4.0, np.float64(phi_w))[1:])
            for cell, phi_w in enumerate((0.1, 1.0, 10.0))
        ]
        job = (4, 0, McConfig(trials=CHUNK, seed=1), members)
        tracemalloc.start()
        try:
            montecarlo._count_events(job)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= WORKER_BYTES
