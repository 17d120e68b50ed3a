import dataclasses
import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc

from beamsweep.analysis import (
    DetectionAnalysis,
    analyze_scenario,
    false_alarm,
    kl_divergence_approx,
    kl_divergence_exact,
    miss_detection,
    pinsker_lower_bound,
    total_error,
)
from beamsweep.core import ScenarioConfig, path_loss
from beamsweep.optimizer import SweepCurve, sweep_sectors
from beamsweep.presets import PRESET_VALUES, build_scenario, fig2_config, fig3_config

# Optimum of the small-budget preset, pinned by a pre-build evaluation with
# an independent incomplete-gamma implementation.
FIG3_M_STAR = 31
FIG3_XI_STAR = 0.574300820272903


@pytest.fixture(scope="module")
def curve() -> SweepCurve:
    return sweep_sectors(fig3_config())


class TestSmallBudgetCurve:

    def test_covers_every_sector_count(self, curve):
        for field in FIELDS:
            assert getattr(curve.analysis, field).shape == (67,)
        assert curve.analysis.m.tolist() == list(range(1, 68))

    def test_interior_optimum(self, curve):
        assert curve.m_star == FIG3_M_STAR
        assert 1 < curve.m_star < 67
        assert curve.xi_star == pytest.approx(FIG3_XI_STAR, abs=1e-9)

    def test_two_phase_shape(self, curve):
        xs = curve.analysis.xi.tolist()
        k = curve.m_star - 1
        assert all(b < a for a, b in zip(xs[: k + 1], xs[1 : k + 1]))
        assert all(b > a for a, b in zip(xs[k:], xs[k + 1 :]))

    def test_minimum_is_consistent(self, curve):
        assert curve.xi_star == curve.analysis.xi.min()
        best = curve.m_star - 1
        assert curve.analysis.xi[best] == curve.xi_star
        # Re-evaluating the closed form at the optimum reproduces it exactly.
        l_s, phi = curve.analysis.l_sector[best], curve.analysis.phi_w[best]
        assert total_error(float(l_s), float(phi)) == curve.xi_star

    def test_entries_internally_consistent(self, curve):
        cfg = fig3_config()
        a = curve.analysis
        assert np.array_equal(a.xi, a.alpha + a.beta)
        assert a.l_sector.tolist() == [cfg.l_total / m for m in a.m.tolist()]
        assert np.all(a.pinsker_lb <= a.xi + 1e-12)

    def test_entries_are_analyze_scenario_records(self, curve):
        # Element m - 1 of every column is analyze_scenario at m alone.
        cfg = fig3_config()
        for m in range(1, 68):
            point = analyze_scenario(cfg, m)
            assert [getattr(point, f) for f in FIELDS] == column_row(curve.analysis, m - 1)


class TestLargeBudgetCurve:
    def test_single_sector_optimum(self):
        curve = sweep_sectors(fig2_config())
        xs = curve.analysis.xi.tolist()
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
        assert curve.analysis.m.tolist() == [1]
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
        assert curve.analysis.xi.tolist() == [1.0] * 4
        assert curve.m_star == 1
        assert curve.xi_star == 1.0


FIELDS = [field.name for field in dataclasses.fields(DetectionAnalysis)]


def column_row(analysis: DetectionAnalysis, index: int) -> list:
    """Element ``index`` of each column, as Python numbers."""
    return [getattr(analysis, field)[index].item() for field in FIELDS]


def point_by_point(cfg: ScenarioConfig, m: int) -> DetectionAnalysis:
    """The closed forms at one sector count in plain Python floats.

    The reference for the array evaluation: the same arithmetic, one point
    at a time, with math.log1p and scalar scipy calls.
    """
    l_s = cfg.l_total / m
    rho = (3.0e8 / (4.0 * math.pi * cfg.carrier_hz)) ** 2 * cfg.d_aw ** (-cfg.path_exp)
    phi = cfg.pa_watt * rho * (2.0 * m / cfg.theta_t) / cfg.noise_watt
    log_term = math.log1p(phi)
    x0 = l_s * (log_term + log_term / phi)
    x1 = l_s * (log_term / phi)
    if x0 == x1:
        alpha = 1.0 - float(gammainc(l_s, x0))
    else:
        alpha = float(gammaincc(l_s, x0))
    beta = float(gammainc(l_s, x1))
    kl = l_s * (log_term - phi / (1.0 + phi))
    signal = cfg.pa_watt * rho
    width = cfg.noise_watt * cfg.theta_t
    kl_approx = 4.0 * cfg.l_total * signal * signal * m / (width * width + 2.0 * signal * width * m)
    return DetectionAnalysis(
        m, l_s, phi, alpha, beta, alpha + beta, kl, kl_approx, 1.0 - math.sqrt(kl / 2.0)
    )


CURVE_SCENARIOS = {
    "fig2": {**PRESET_VALUES["fig2"]},
    "fig3": {**PRESET_VALUES["fig3"]},
    "repro-fig2-noise-60": {**PRESET_VALUES["fig2"], "noise_dbm": -60.0},
    "repro-fig3-l160": {**PRESET_VALUES["fig3"], "l_total": 160},
    "4096-antennas": {**PRESET_VALUES["fig3"], "n_antennas": 4096, "theta_t": 2.0, "l_total": 100000},
    "blind": {**PRESET_VALUES["fig3"], "pa_dbm": -3000.0},
}


@pytest.fixture(scope="module", params=sorted(CURVE_SCENARIOS))
def scenario_curve(request):
    cfg = build_scenario(CURVE_SCENARIOS[request.param])
    return request.param, cfg, sweep_sectors(cfg)


class TestArrayCurve:
    """The one array evaluation of a curve equals the closed forms point by point, bit for bit."""

    def test_equals_point_by_point_reference(self, scenario_curve):
        _, cfg, curve = scenario_curve
        points = [point_by_point(cfg, m) for m in range(1, cfg.m_max + 1)]
        for field in FIELDS:
            column = getattr(curve.analysis, field)
            assert column.shape == (cfg.m_max,)
            assert column.tolist() == [getattr(point, field) for point in points], field

    def test_equals_scalar_closed_forms(self, scenario_curve):
        _, cfg, curve = scenario_curve
        rho = path_loss(cfg)
        a = curve.analysis
        assert a.m.dtype.kind == "i" and a.l_sector.dtype == a.phi_w.dtype == np.float64
        for m, l_s, phi, alpha, beta, kl, kl_approx, lb in zip(
            *(getattr(a, f).tolist() for f in FIELDS if f != "xi")
        ):
            assert alpha == false_alarm(l_s, phi)
            assert beta == miss_detection(l_s, phi)
            assert kl == kl_divergence_exact(l_s, phi)
            assert kl_approx == kl_divergence_approx(cfg, m, rho)
            assert lb == pinsker_lower_bound(kl)

    def test_minimum_is_first_minimum(self, scenario_curve):
        name, _, curve = scenario_curve
        xs = curve.analysis.xi.tolist()
        assert curve.m_star == xs.index(min(xs)) + 1
        assert curve.xi_star == min(xs)
        if name == "blind":
            assert all(x == 1.0 for x in xs)
            assert curve.m_star == 1


class TestOneResultType:
    """analyze_scenario gives Python numbers for one m and arrays for many."""

    def test_point_is_python_numbers(self):
        cfg = fig3_config()
        point = analyze_scenario(cfg, 8)
        assert type(point.m) is int
        assert all(type(getattr(point, f)) is float for f in FIELDS if f != "m")
        assert type(point.pinsker_vacuous) is bool
        assert point == point_by_point(cfg, 8)

    @pytest.mark.parametrize("ms", [np.arange(1, 68), list(range(1, 68)), np.array([8])])
    def test_curve_is_arrays(self, ms):
        cfg = fig3_config()
        analysis = analyze_scenario(cfg, ms)
        for field in FIELDS:
            assert isinstance(getattr(analysis, field), np.ndarray)
            assert getattr(analysis, field).shape == np.shape(ms)
        assert analysis.pinsker_vacuous.dtype == bool
        for index, m in enumerate(np.asarray(ms).tolist()):
            point = point_by_point(cfg, m)
            assert column_row(analysis, index) == [getattr(point, f) for f in FIELDS]

    def test_curve_has_no_record_view(self, curve):
        fields = {field.name for field in dataclasses.fields(SweepCurve)}
        assert fields == {"analysis", "m_star", "xi_star"}
        assert type(curve.m_star) is int and type(curve.xi_star) is float
