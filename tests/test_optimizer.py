import math

import pytest

from beamsweep.analysis import analyze_scenario, total_error
from beamsweep.core import ScenarioConfig
from beamsweep.optimizer import SweepCurve, sweep_sectors
from beamsweep.presets import fig2_config, fig3_config

# Optimum of the small-budget preset, pinned by a pre-build evaluation with
# an independent incomplete-gamma implementation.
FIG3_M_STAR = 31
FIG3_XI_STAR = 0.574300820272903


@pytest.fixture(scope="module")
def curve() -> SweepCurve:
    return sweep_sectors(fig3_config())


class TestSmallBudgetCurve:

    def test_covers_every_sector_count(self, curve):
        assert len(curve.entries) == 67
        assert [e.m for e in curve.entries] == list(range(1, 68))

    def test_interior_optimum(self, curve):
        assert curve.m_star == FIG3_M_STAR
        assert 1 < curve.m_star < 67
        assert curve.xi_star == pytest.approx(FIG3_XI_STAR, abs=1e-9)

    def test_two_phase_shape(self, curve):
        xs = [e.xi for e in curve.entries]
        k = curve.m_star - 1
        assert all(b < a for a, b in zip(xs[: k + 1], xs[1 : k + 1]))
        assert all(b > a for a, b in zip(xs[k:], xs[k + 1 :]))

    def test_minimum_is_consistent(self, curve):
        assert curve.xi_star == min(e.xi for e in curve.entries)
        best = curve.entries[curve.m_star - 1]
        assert best.xi == curve.xi_star
        # Re-evaluating the closed form at the optimum reproduces it exactly.
        assert total_error(best.l_sector, best.phi_w) == curve.xi_star

    def test_entries_internally_consistent(self, curve):
        cfg = fig3_config()
        for entry in curve.entries:
            assert entry.xi == entry.alpha + entry.beta
            assert entry.l_sector == cfg.l_total / entry.m
            assert entry.pinsker_lb <= entry.xi + 1e-12

    def test_entries_are_analyze_scenario_records(self, curve):
        cfg = fig3_config()
        assert all(entry == analyze_scenario(cfg, entry.m) for entry in curve.entries)


class TestLargeBudgetCurve:
    def test_single_sector_optimum(self):
        curve = sweep_sectors(fig2_config())
        xs = [e.xi for e in curve.entries]
        assert curve.m_star == 1
        assert all(b >= a for a, b in zip(xs, xs[1:]))


class TestEdgeCases:
    def test_single_feasible_sector(self):
        cfg = ScenarioConfig(
            pa_watt=0.01,
            noise_watt=1e-8,
            theta_t=2.0,
            n_antennas=1,
            l_total=8,
            d_aw=100.0,
        )
        curve = sweep_sectors(cfg)
        assert len(curve.entries) == 1
        assert curve.m_star == 1

    def test_empty_search_space_rejected(self):
        cfg = ScenarioConfig(
            pa_watt=0.01,
            noise_watt=1e-8,
            theta_t=0.5,
            n_antennas=1,
            l_total=8,
            d_aw=100.0,
        )
        with pytest.raises(ValueError, match="feasible"):
            sweep_sectors(cfg)

    def test_ties_break_toward_fewer_sectors(self):
        # With a vanishing transmit power the error is exactly 1 at every
        # sector count; the smallest count must win.
        cfg = ScenarioConfig(
            pa_watt=1e-300,
            noise_watt=1.0,
            theta_t=2.0,
            n_antennas=4,
            l_total=1,
            d_aw=1.0,
            carrier_hz=3.0e8 / (4.0 * math.pi),
        )
        curve = sweep_sectors(cfg)
        assert all(e.xi == 1.0 for e in curve.entries)
        assert curve.m_star == 1
        assert curve.xi_star == 1.0
