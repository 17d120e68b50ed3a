import math
import sys
import threading
import time

import numpy as np
import pytest

from beamsweep import analysis, montecarlo
from beamsweep.core import (
    ScenarioConfig,
    as_floats,
    dbm_to_watt,
    make_sweep_plan,
    path_loss,
    run_jobs,
)

# Frozen from a high-precision evaluation of (c / (4 pi f_c))^2 / d^2 at
# f_c = 2.4 GHz, d = 100 m.
RHO_2G4_100M = 9.894646840072048e-09


def h0_factor(phi: float) -> float:
    """The H0 threshold at l_s = 1, from the closed forms' threshold kernel."""
    return analysis._thresholds(1.0, np.float64(phi))[1]


def h1_factor(phi: float) -> float:
    return analysis._thresholds(1.0, np.float64(phi))[2]


def array_gain(cfg: ScenarioConfig, m: int) -> float:
    """The steered array's gain 2 m / theta_t, computed apart from the package."""
    return 2.0 * m / cfg.theta_t


def default_config(**kwargs) -> ScenarioConfig:
    base = dict(
        pa_watt=dbm_to_watt(10.0),
        noise_watt=dbm_to_watt(-50.0),
        theta_t=math.pi / 3.0,
        n_antennas=128,
        l_total=32,
        d_aw=100.0,
    )
    base.update(kwargs)
    return ScenarioConfig(**base)


class TestConversions:
    def test_dbm_to_watt(self):
        assert dbm_to_watt(30.0) == 1.0
        assert dbm_to_watt(0.0) == 0.001
        assert dbm_to_watt(-50.0) == 1e-8

    def test_dbm_to_watt_overflow_is_a_value_error(self):
        with pytest.raises(ValueError) as info:
            dbm_to_watt(1e308)
        assert str(info.value) == "1e+308 dBm overflows a float in watts"
        assert dbm_to_watt(-1e308) == 0.0


class TestAsFloats:
    def test_integers_beyond_the_float_range_are_inf_of_their_sign(self):
        assert type(as_floats(10**400)) is np.float64 and as_floats(10**400) == math.inf
        assert as_floats(-(10**400)) == -math.inf
        cells = [(10**400, 1.0), (-(10**400), 2**53 + 1)]
        assert as_floats(cells).tolist() == [[math.inf, 1.0], [-math.inf, 2.0**53]]

    def test_integers_round_to_the_nearest_float_first(self):
        # 2**1024 - 2**970 lies halfway between the largest double and
        # 2**1024, and rounds to even, beyond the range; one less rounds down.
        halfway = 2**1024 - 2**970
        assert as_floats([halfway - 1, halfway]).tolist() == [sys.float_info.max, math.inf]


class TestScenarioConfig:
    def test_m_max_for_default_array(self):
        # floor(128 * (pi/3) / 2) = floor(67.02) = 67
        assert default_config().m_max == 67

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pa_watt", 0.0),
            ("pa_watt", -1.0),
            ("noise_watt", 0.0),
            ("theta_t", 0.0),
            ("theta_t", 3.0),
            ("theta_t", -0.5),
            ("n_antennas", 0),
            ("l_total", 0),
            ("d_aw", 0.0),
            ("path_exp", 0.5),
            ("carrier_hz", 0.0),
            ("pa_watt", math.nan),
            ("theta_t", math.inf),
        ],
    )
    def test_invariant_violations_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            default_config(**{field: value})

    def test_theta_t_upper_edge_allowed(self):
        assert default_config(theta_t=2.0).theta_t == 2.0


class TestSweepPlan:
    def test_single_sector(self):
        cfg = default_config(theta_t=0.5, l_total=160, n_antennas=128)
        plan = make_sweep_plan(cfg, 1)
        phi_w = cfg.pa_watt * path_loss(cfg) * 4.0 / cfg.noise_watt
        assert plan == (160.0, phi_w)

    def test_four_sectors(self):
        cfg = default_config()
        l_sector, phi_w = make_sweep_plan(cfg, 4)
        assert l_sector == 8.0
        gain = phi_w * cfg.noise_watt / (cfg.pa_watt * path_loss(cfg))
        assert gain == pytest.approx(24.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("m", [0, -1, 68, 1000])
    def test_out_of_range_rejected(self, m):
        with pytest.raises(ValueError, match="feasible range"):
            make_sweep_plan(default_config(), m)

    @pytest.mark.parametrize("m", [1, 2, 7, 31, 67])
    def test_gain_width_product(self, m):
        cfg = default_config()
        l_sector, phi_w = make_sweep_plan(cfg, m)
        sector_width = cfg.theta_t / m
        gain = array_gain(cfg, m)
        assert phi_w == cfg.pa_watt * path_loss(cfg) * gain / cfg.noise_watt
        assert gain * sector_width == pytest.approx(2.0, abs=1e-15)
        assert l_sector == cfg.l_total / m


class TestLinkBudget:
    def test_unit_scenario(self):
        # pa * rho = 1 W, noise = 1 W, gain = 1: phi = 1, so the threshold is 2 ln 2.
        # carrier 3e8/(4 pi) Hz at 1 m makes the path loss exactly 1.
        cfg = ScenarioConfig(
            pa_watt=1.0,
            noise_watt=1.0,
            theta_t=2.0,
            n_antennas=1,
            l_total=1,
            d_aw=1.0,
            carrier_hz=3.0e8 / (4.0 * math.pi),
        )
        _, phi_w = make_sweep_plan(cfg, 1)
        assert array_gain(cfg, 1) == 1.0
        assert phi_w == cfg.pa_watt * path_loss(cfg) * 1.0 / cfg.noise_watt
        assert path_loss(cfg) == pytest.approx(1.0, rel=1e-14)
        assert phi_w == pytest.approx(1.0, rel=1e-14)
        assert h0_factor(phi_w) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_path_loss_value(self):
        cfg = default_config(d_aw=100.0, carrier_hz=2.4e9, path_exp=2.0)
        assert path_loss(cfg) == pytest.approx(RHO_2G4_100M, rel=1e-12)

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"d_aw": 1e-300}, "d_aw=1e-300, path_exp=2.0"),
            ({"d_aw": 1e-3, "path_exp": 200.0}, "d_aw=0.001, path_exp=200.0"),
            ({"carrier_hz": 1e-300}, "carrier_hz=1e-300"),
        ],
    )
    def test_path_loss_overflow_is_a_value_error(self, overrides, named):
        with pytest.raises(ValueError, match="path loss overflows") as info:
            path_loss(default_config(**overrides))
        assert named in str(info.value)

    def test_sweep_plan_over_an_array_of_sector_counts(self):
        cfg = default_config()
        ms = np.arange(1, cfg.m_max + 1)
        l_sectors, phis = make_sweep_plan(cfg, ms)
        for m, l_sector, phi_w in zip(ms.tolist(), l_sectors.tolist(), phis.tolist()):
            one = make_sweep_plan(cfg, m)
            assert type(one[0]) is float
            assert type(one[1]) is float
            assert one == (l_sector, phi_w)

    @pytest.mark.parametrize("l_total", [160, 2**53, 2**53 + 1, 10**20])
    def test_dwell_is_the_correctly_rounded_quotient(self, l_total):
        # numpy divides up to 2**53, where both operands are exact doubles;
        # above it, rounding l_total first would move some quotients.
        cfg = default_config(l_total=l_total)
        ms = np.arange(1, cfg.m_max + 1)
        assert make_sweep_plan(cfg, ms)[0].tolist() == [l_total / m for m in ms.tolist()]
        assert [make_sweep_plan(cfg, m)[0] for m in ms.tolist()] == [
            l_total / m for m in ms.tolist()
        ]

    @pytest.mark.parametrize("bad", [0, 10**30, -(10**30)])
    def test_sweep_plan_names_first_infeasible_count(self, bad):
        cfg = default_config()
        with pytest.raises(ValueError) as info:
            make_sweep_plan(cfg, [1, bad, cfg.m_max + 1])
        assert str(info.value) == f"sector count m={bad} outside the feasible range [1, 67]"

    @pytest.mark.parametrize("m", [67, np.arange(1, 68)], ids=["scalar", "array"])
    def test_overflowing_snr_raises_its_check_not_a_warning(self, m):
        # Outside np.errstate, with the suite's warnings as errors: an
        # overflow warning ahead of the check would be what the call raises.
        cfg = default_config(pa_watt=1e308, noise_watt=1e-20)
        with pytest.raises(ValueError) as info:
            make_sweep_plan(cfg, m)
        assert str(info.value) == "phi_w must be finite and >= 0, got inf"

    def test_vanishing_power_keeps_threshold_finite(self):
        cfg = default_config(pa_watt=1e-300)
        _, phi_w = make_sweep_plan(cfg, 4)
        assert phi_w > 0.0
        # The threshold noise * gain * h0 tends to noise * gain as phi -> 0.
        assert h0_factor(phi_w) == pytest.approx(1.0, rel=1e-9)

    def test_phi_monotone_in_sectors_noise_distance(self):
        cfg = default_config()
        phis = [make_sweep_plan(cfg, m)[1] for m in range(1, 11)]
        assert all(b > a for a, b in zip(phis, phis[1:]))

        for noisy, quiet in [(1e-7, 1e-8), (1e-8, 1e-9)]:
            phi_noisy = _phi(default_config(noise_watt=noisy))
            phi_quiet = _phi(default_config(noise_watt=quiet))
            assert phi_noisy < phi_quiet

        for near, far in [(50.0, 100.0), (100.0, 400.0)]:
            assert _phi(default_config(d_aw=far)) < _phi(default_config(d_aw=near))

    @pytest.mark.parametrize("m", [1, 4, 31, 67])
    def test_normalized_threshold_identities(self, m):
        cfg = default_config()
        l_s, phi_w = make_sweep_plan(cfg, m)
        gain, rho = array_gain(cfg, m), path_loss(cfg)
        # The raw threshold ln(1+phi) (noise/(pa*rho) + gain) * noise.
        eta = math.log1p(phi_w) * (
            cfg.noise_watt / (cfg.pa_watt * rho) + gain
        ) * cfg.noise_watt
        lhs_h0 = eta * l_s / (gain * cfg.noise_watt)
        assert lhs_h0 == pytest.approx(l_s * h0_factor(phi_w), rel=1e-12)
        h1_scale = gain * (gain * cfg.pa_watt * rho + cfg.noise_watt)
        lhs_h1 = eta * l_s / h1_scale
        assert lhs_h1 == pytest.approx(l_s * h1_factor(phi_w), rel=1e-12)


class TestThresholdFactors:
    """The one threshold kernel, ``analysis._thresholds``, at l_s = 1 and phi > 0."""

    def test_zero_snr_limits(self):
        # At the smallest positive phi both factors are 1 to the last bit.
        assert (h0_factor(5e-324), h1_factor(5e-324)) == (1.0, 1.0)
        assert h0_factor(1e-300) == pytest.approx(1.0, abs=1e-15)
        assert h1_factor(1e-300) == pytest.approx(1.0, abs=1e-15)

    def test_unit_snr(self):
        assert h0_factor(1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
        assert h1_factor(1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_ordering(self):
        # The no-signal factor exceeds the signal-present factor by (1+phi).
        for phi in (1e-6, 0.1, 1.0, 100.0):
            assert h0_factor(phi) == pytest.approx((1.0 + phi) * h1_factor(phi), rel=1e-12)

    def test_rejects_negative(self):
        # The kernel takes checked inputs; the entry points that reach it check phi.
        with pytest.raises(ValueError):
            montecarlo.estimate_cells([(4, -0.1)], montecarlo.McConfig(trials=1, seed=1))
        with pytest.raises(ValueError):
            analysis.false_alarm(4.0, -0.1)
        with pytest.raises(ValueError):
            analysis.miss_detection(4.0, -0.1)



class TestRunJobs:
    """The one job runner: every job once, the first failure in job order, no stray thread."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_every_job_runs_once_on_its_workers_state(self, workers):
        states = [[] for _ in range(workers)]
        threads = threading.active_count()
        # Frequent thread switches, so a job claimed twice or lost shows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_jobs(2000, lambda ran, job: ran.append(job), states)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(job for ran in states for job in ran) == list(range(2000))
        # Each worker claims jobs in index order.
        assert all(ran == sorted(ran) for ran in states)
        assert threading.active_count() == threads

    def test_no_jobs_run_no_work(self):
        calls = []
        run_jobs(0, lambda state, job: calls.append(job), [])
        run_jobs(0, lambda state, job: calls.append(job), [None, None])
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_helper_thread_per_further_state(self, monkeypatch, workers):
        # Each helper holds its first job until the calling thread has run
        # one, so the calling thread is always one of the workers.
        caller, caller_ran = threading.get_ident(), threading.Event()
        ran, started = [], []
        start = threading.Thread.start

        def work(state, job):
            ran.append(threading.get_ident())
            if ran[-1] == caller:
                caller_ran.set()
            else:
                caller_ran.wait(timeout=10)

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        run_jobs(6, work, [None] * workers)
        assert len(started) == workers - 1
        assert caller in ran
        assert len(ran) == 6

    def test_no_job_starts_after_a_failure(self):
        ran = []

        def work(state, job):
            ran.append(job)
            if job == 2:
                raise RuntimeError("third job")

        with pytest.raises(RuntimeError, match="third job"):
            run_jobs(10, work, [None])
        assert ran == [0, 1, 2]

    @pytest.mark.parametrize("first_in_time", [1, 3])
    def test_first_failure_in_job_order_raises(self, first_in_time):
        # Three workers, and jobs 1 and 3 fail while both run, one 50 ms
        # after the other. Whichever fails first in time, job 1's error is
        # the one raised.
        running = {1: threading.Event(), 3: threading.Event()}
        failed = threading.Event()

        def work(state, job):
            if job not in running:
                return
            running[job].set()
            if job == first_in_time:
                running[4 - job].wait(timeout=10)
                failed.set()
            else:
                failed.wait(timeout=10)
                time.sleep(0.05)
            raise RuntimeError(f"job {job}")

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="job 1"):
            run_jobs(4, work, [None] * 3)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("raiser", ["calling", "helper"])
    def test_interrupt_on_either_thread_propagates(self, raiser):
        # Two workers, each holding a job: one thread's job raises
        # KeyboardInterrupt, and the other's outlasts it by 50 ms, so a helper
        # left unjoined shows.
        caller = threading.get_ident()
        holding, interrupted = threading.Event(), threading.Event()

        def work(state, job):
            if (threading.get_ident() == caller) == (raiser == "calling"):
                holding.wait(timeout=10)
                interrupted.set()
                raise KeyboardInterrupt
            holding.set()
            interrupted.wait(timeout=10)
            time.sleep(0.05)

        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_jobs(4, work, [None, None])
        assert interrupted.is_set()
        assert threading.active_count() == threads

    def test_failed_thread_start_joins_the_started_helper(self, monkeypatch):
        # Three workers, and the second helper cannot start: the first, whose
        # job outlasts the failed start by 50 ms, is joined before the error
        # leaves the call, and neither it nor the calling thread starts
        # another job.
        start = threading.Thread.start
        holding, refused = threading.Event(), threading.Event()
        started, ran = [], []

        def work(state, job):
            ran.append(job)
            holding.set()
            refused.wait(timeout=10)
            time.sleep(0.05)

        def failing_start(thread):
            if started:
                holding.wait(timeout=10)
                refused.set()
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run_jobs(6, work, [None] * 3)
        assert threading.active_count() == threads
        assert ran == [0]

def _phi(cfg: ScenarioConfig) -> float:
    return make_sweep_plan(cfg, 1)[1]
