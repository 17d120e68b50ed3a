import math

import numpy as np
import pytest

from beamsweep.core import (
    LinkBudget,
    ScenarioConfig,
    SweepPlan,
    dbm_to_watt,
    h0_threshold_factor,
    h1_threshold_factor,
    make_link_budget,
    make_sweep_plan,
    path_loss,
)

# Frozen from a high-precision evaluation of (c / (4 pi f_c))^2 / d^2 at
# f_c = 2.4 GHz, d = 100 m.
RHO_2G4_100M = 9.894646840072048e-09


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
        assert plan == SweepPlan(m_sectors=1, l_sector=160.0, array_gain=4.0)

    def test_four_sectors(self):
        plan = make_sweep_plan(default_config(), 4)
        assert plan.l_sector == 8.0
        assert plan.array_gain == pytest.approx(24.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("m", [0, -1, 68, 1000])
    def test_out_of_range_rejected(self, m):
        with pytest.raises(ValueError, match="feasible range"):
            make_sweep_plan(default_config(), m)

    @pytest.mark.parametrize("m", [1, 2, 7, 31, 67])
    def test_gain_width_product(self, m):
        plan = make_sweep_plan(default_config(), m)
        sector_width = default_config().theta_t / m
        assert plan.array_gain * sector_width == pytest.approx(2.0, abs=1e-15)
        assert plan.l_sector == default_config().l_total / m


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
        plan = make_sweep_plan(cfg, 1)
        assert plan.array_gain == 1.0
        budget = make_link_budget(cfg, plan)
        assert budget.rho_aw == pytest.approx(1.0, rel=1e-14)
        assert budget.phi_w == pytest.approx(1.0, rel=1e-14)
        assert h0_threshold_factor(budget.phi_w) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

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
        plan = make_sweep_plan(cfg, ms)
        for m, l_sector, gain in zip(ms.tolist(), plan.l_sector.tolist(), plan.array_gain.tolist()):
            one = make_sweep_plan(cfg, m)
            assert type(one.l_sector) is float and type(one.m_sectors) is int
            assert (one.l_sector, one.array_gain) == (l_sector, gain)

    @pytest.mark.parametrize("bad", [0, 10**30, -(10**30)])
    def test_sweep_plan_names_first_infeasible_count(self, bad):
        cfg = default_config()
        with pytest.raises(ValueError) as info:
            make_sweep_plan(cfg, [1, bad, cfg.m_max + 1])
        assert str(info.value) == f"sector count m={bad} outside the feasible range [1, 67]"

    def test_vanishing_power_keeps_threshold_finite(self):
        cfg = default_config(pa_watt=1e-300)
        plan = make_sweep_plan(cfg, 4)
        budget = make_link_budget(cfg, plan)
        assert budget.phi_w > 0.0
        # The threshold noise * gain * h0 tends to noise * gain as phi -> 0.
        assert h0_threshold_factor(budget.phi_w) == pytest.approx(1.0, rel=1e-9)
        assert isinstance(budget, LinkBudget)

    def test_phi_monotone_in_sectors_noise_distance(self):
        cfg = default_config()
        phis = [
            make_link_budget(cfg, make_sweep_plan(cfg, m)).phi_w for m in range(1, 11)
        ]
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
        plan = make_sweep_plan(cfg, m)
        budget = make_link_budget(cfg, plan)
        l_s = plan.l_sector
        # The raw threshold ln(1+phi) (noise/(pa*rho) + gain) * noise.
        eta = math.log1p(budget.phi_w) * (
            cfg.noise_watt / (cfg.pa_watt * budget.rho_aw) + plan.array_gain
        ) * cfg.noise_watt
        lhs_h0 = eta * l_s / (plan.array_gain * cfg.noise_watt)
        assert lhs_h0 == pytest.approx(
            l_s * h0_threshold_factor(budget.phi_w), rel=1e-12
        )
        h1_scale = plan.array_gain * (
            plan.array_gain * cfg.pa_watt * budget.rho_aw + cfg.noise_watt
        )
        lhs_h1 = eta * l_s / h1_scale
        assert lhs_h1 == pytest.approx(
            l_s * h1_threshold_factor(budget.phi_w), rel=1e-12
        )


class TestThresholdFactors:
    def test_zero_snr_limits(self):
        assert h0_threshold_factor(0.0) == 1.0
        assert h1_threshold_factor(0.0) == 1.0
        assert h0_threshold_factor(1e-300) == pytest.approx(1.0, abs=1e-15)
        assert h1_threshold_factor(1e-300) == pytest.approx(1.0, abs=1e-15)

    def test_unit_snr(self):
        assert h0_threshold_factor(1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
        assert h1_threshold_factor(1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_ordering(self):
        # The no-signal factor exceeds the signal-present factor by (1+phi).
        for phi in (1e-6, 0.1, 1.0, 100.0):
            assert h0_threshold_factor(phi) == pytest.approx(
                (1.0 + phi) * h1_threshold_factor(phi), rel=1e-12
            )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            h0_threshold_factor(-0.1)
        with pytest.raises(ValueError):
            h1_threshold_factor(-0.1)


def _phi(cfg: ScenarioConfig) -> float:
    return make_link_budget(cfg, make_sweep_plan(cfg, 1)).phi_w
