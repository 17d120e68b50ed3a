import dataclasses
import math

import numpy as np
import pytest

from beamsweep import analysis, core
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
from beamsweep.core import (
    ScenarioConfig,
    h0_threshold_factor,
    h1_threshold_factor,
    make_link_budget,
    make_sweep_plan,
    path_loss,
)
from beamsweep.presets import fig3_config

from oracles import reg_lower_gamma_reference, reg_upper_gamma_reference

# Frozen from the extended-precision series reference (tests/oracles.py):
# alpha(8, 0.5) = 1 - P(8, 8 ln(1.5) * 3), beta(8, 0.5) = P(8, 16 ln(1.5)).
ALPHA_8_HALF = 0.24541867939703133
BETA_8_HALF = 0.32540666653295264
# 1 - P(4, 4), the zero-SNR limit of the false alarm at l_s = 4.
ONE_MINUS_P44 = 0.43347012036670893
# 10 * (ln 1.1 - 0.1/1.1) at extended precision.
KL_10_TENTH = 0.04401088895233951

L_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
PHI_GRID = (1e-3, 1e-2, 0.1, 1.0, 10.0)


class TestErrorProbabilities:
    def test_unit_point(self):
        assert false_alarm(1.0, 1.0) == pytest.approx(0.25, abs=1e-12)
        assert miss_detection(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert total_error(1.0, 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_frozen_point(self):
        assert false_alarm(8.0, 0.5) == pytest.approx(ALPHA_8_HALF, abs=1e-12)
        assert miss_detection(8.0, 0.5) == pytest.approx(BETA_8_HALF, abs=1e-12)

    def test_zero_snr_limit(self):
        assert false_alarm(4.0, 1e-12) == pytest.approx(ONE_MINUS_P44, abs=1e-6)
        assert miss_detection(4.0, 1e-12) == pytest.approx(1.0 - ONE_MINUS_P44, abs=1e-6)
        assert total_error(4.0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_high_snr_limit(self):
        assert total_error(1.0, 1e8) < 1e-6
        assert total_error(16.0, 1e4) < 1e-12

    @pytest.mark.parametrize("l_s", L_GRID)
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_bounds(self, l_s, phi):
        alpha = false_alarm(l_s, phi)
        beta = miss_detection(l_s, phi)
        assert 0.0 <= alpha <= 1.0
        assert 0.0 <= beta <= 1.0
        assert alpha + beta <= 1.0

    @pytest.mark.parametrize("l_s", L_GRID)
    def test_decreasing_in_snr(self, l_s):
        values = [total_error(l_s, phi) for phi in PHI_GRID]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_decreasing_in_samples(self, phi):
        values = [total_error(l_s, phi) for l_s in L_GRID]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "l_s,phi", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5), (math.nan, 1.0)]
    )
    def test_domain_errors(self, l_s, phi):
        for func in (false_alarm, miss_detection, total_error):
            with pytest.raises(ValueError):
                func(l_s, phi)


class TestFalseAlarmTail:
    """alpha is an upper tail: it must be right in relative terms when tiny.

    At (160, 10) alpha is about 7.58e-49, which 1 - P rounds to 0.
    """

    @pytest.mark.parametrize(
        "l_s,phi",
        [(l_s, phi) for l_s in L_GRID for phi in PHI_GRID]
        + [(160.0, 1.0), (160.0, 10.0), (53.333333333333336, 100.0)],
    )
    def test_relative_accuracy_against_oracle(self, l_s, phi):
        reference = reg_upper_gamma_reference(l_s, l_s * h0_threshold_factor(phi))
        assert abs(false_alarm(l_s, phi) - reference) <= 1e-12 * reference


class TestMissDetectionTail:
    """beta is a lower tail: it must be right in relative terms when tiny.

    The last point is m = 41 of a 4096-antenna array with l_total = 1e5 and
    theta_t = 2 (fig3 otherwise), where beta is about 5.7e-124.
    """

    @pytest.mark.parametrize(
        "l_s,phi",
        [(l_s, phi) for l_s in L_GRID for phi in PHI_GRID]
        + [
            (160.0, 1.0),
            (160.0, 10.0),
            (53.333333333333336, 100.0),
            (2439.0243902439024, 1.6227220817718164),
        ],
    )
    def test_relative_accuracy_against_oracle(self, l_s, phi):
        reference = reg_lower_gamma_reference(l_s, l_s * h1_threshold_factor(phi))
        assert abs(miss_detection(l_s, phi) - reference) <= 1e-10 * reference


class TestKlDivergence:
    def test_frozen_point(self):
        assert kl_divergence_exact(10.0, 0.1) == pytest.approx(KL_10_TENTH, abs=1e-15)

    def test_zero_snr(self):
        assert kl_divergence_exact(8.0, 0.0) == 0.0

    def test_linear_in_samples(self):
        for l_s, phi in [(1.0, 0.3), (5.0, 2.0), (16.0, 0.01)]:
            assert kl_divergence_exact(2.0 * l_s, phi) == 2.0 * kl_divergence_exact(
                l_s, phi
            )

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_nonnegative(self, phi):
        assert kl_divergence_exact(4.0, phi) > 0.0


class TestKlApproximation:
    def scenario(self, **kwargs) -> ScenarioConfig:
        base = dict(
            pa_watt=0.01,
            noise_watt=1e-8,
            theta_t=math.pi / 3.0,
            n_antennas=128,
            l_total=32,
            d_aw=100.0,
        )
        base.update(kwargs)
        return ScenarioConfig(**base)

    def test_matches_normalized_form(self):
        # The raw-parameter expression equals l_s * phi^2 / (1 + phi).
        cfg = self.scenario()
        rho = path_loss(cfg)
        for m in (1, 4, 16, 67):
            plan = make_sweep_plan(cfg, m)
            budget = make_link_budget(cfg, plan)
            expected = plan.l_sector * budget.phi_w ** 2 / (1.0 + budget.phi_w)
            assert kl_divergence_approx(cfg, m, rho) == pytest.approx(
                expected, rel=1e-12
            )

    def test_overshoots_exact_by_factor_two_at_low_snr(self):
        # Replacing ln(1+phi) by phi doubles the leading phi^2/2 term, so the
        # ratio to the exact divergence tends to 2 from above as phi -> 0.
        cfg = self.scenario(pa_watt=1e-5)  # phi(m=1) ~ 1.9e-5
        rho = path_loss(cfg)
        plan = make_sweep_plan(cfg, 1)
        budget = make_link_budget(cfg, plan)
        ratio = kl_divergence_approx(cfg, 1, rho) / kl_divergence_exact(
            plan.l_sector, budget.phi_w
        )
        assert ratio == pytest.approx(2.0, rel=1e-4)

    def test_relative_error_grows_with_snr(self):
        # Ratio at phi = 1e-3, frozen from extended precision: 2.000666556.
        errors = []
        for pa in (1e-4, 1e-3, 1e-2, 0.1):
            cfg = self.scenario(pa_watt=pa)
            rho = path_loss(cfg)
            plan = make_sweep_plan(cfg, 1)
            budget = make_link_budget(cfg, plan)
            exact = kl_divergence_exact(plan.l_sector, budget.phi_w)
            approx = kl_divergence_approx(cfg, 1, rho)
            errors.append(abs(approx - exact) / exact)
        assert all(b > a for a, b in zip(errors, errors[1:]))
        assert all(err > 1.0 for err in errors)

    def test_saturates_for_many_sectors(self):
        cfg = self.scenario()
        rho = path_loss(cfg)
        limit = 2.0 * cfg.l_total * cfg.pa_watt * rho / (cfg.noise_watt * cfg.theta_t)
        assert kl_divergence_approx(cfg, 10 ** 9, rho) == pytest.approx(
            limit, rel=1e-6
        )

    def test_vanishes_with_power(self):
        cfg = self.scenario(pa_watt=1e-200)
        assert kl_divergence_approx(cfg, 4, path_loss(cfg)) < 1e-100


class TestPinskerBound:
    def test_edge_values(self):
        assert pinsker_lower_bound(0.0) == 1.0
        assert pinsker_lower_bound(2.0) == 0.0

    def test_hand_value(self):
        assert pinsker_lower_bound(0.044014) == pytest.approx(
            1.0 - math.sqrt(0.022007), abs=1e-15
        )

    def test_chained_frozen_value(self):
        assert pinsker_lower_bound(KL_10_TENTH) == pytest.approx(
            0.8516576780680249, abs=1e-12
        )

    def test_negative_bound_reported_as_is(self):
        assert pinsker_lower_bound(8.0) == -1.0

    def test_rejects_negative_divergence(self):
        with pytest.raises(ValueError):
            pinsker_lower_bound(-1e-9)

    @pytest.mark.parametrize("l_s", L_GRID)
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_bounds_total_error(self, l_s, phi):
        bound = pinsker_lower_bound(kl_divergence_exact(l_s, phi))
        assert bound <= total_error(l_s, phi) + 1e-12


class TestAnalyzeScenario:
    def test_consistent_assembly(self):
        cfg = ScenarioConfig(
            pa_watt=0.01,
            noise_watt=1e-8,
            theta_t=math.pi / 3.0,
            n_antennas=128,
            l_total=32,
            d_aw=50.0,
        )
        result = analyze_scenario(cfg, 8)
        plan = make_sweep_plan(cfg, 8)
        budget = make_link_budget(cfg, plan)
        assert isinstance(result, DetectionAnalysis)
        assert result.alpha == false_alarm(plan.l_sector, budget.phi_w)
        assert result.beta == miss_detection(plan.l_sector, budget.phi_w)
        assert result.xi == result.alpha + result.beta
        assert result.kl_exact == kl_divergence_exact(plan.l_sector, budget.phi_w)
        assert result.kl_approx == kl_divergence_approx(cfg, 8, budget.rho_aw)
        assert result.pinsker_lb == pinsker_lower_bound(result.kl_exact)
        assert not result.pinsker_vacuous

    def test_vacuous_flag(self):
        vacuous = DetectionAnalysis(
            m=1,
            l_sector=4.0,
            phi_w=1.0,
            alpha=0.0,
            beta=0.0,
            xi=0.0,
            kl_exact=8.0,
            kl_approx=9.0,
            pinsker_lb=-1.0,
        )
        assert vacuous.pinsker_vacuous


class TestOneEvaluationPass:
    """One analysis computes ln(1+phi_w) once per sector count and runs each check once."""

    @pytest.mark.parametrize(
        "pa_watt, m",
        [(None, 8), (None, [8]), (None, "curve"), (1e-303, "curve")],
        ids=["point", "one-element", "curve", "blind-curve"],
    )
    def test_log1p_once_per_sector_count(self, monkeypatch, pa_watt, m):
        cfg = fig3_config()
        if pa_watt is not None:
            cfg = dataclasses.replace(cfg, pa_watt=pa_watt)
        if m == "curve":
            m = np.arange(1, cfg.m_max + 1)
        original = core.elementwise_log1p
        elements = []

        def counting(x):
            elements.append(np.size(x))
            return original(x)

        monkeypatch.setattr(analysis, "elementwise_log1p", counting)
        monkeypatch.setattr(core, "elementwise_log1p", counting)
        analyze_scenario(cfg, m)
        assert sum(elements) == np.size(m)

    @pytest.mark.parametrize("m", [8, "curve"])
    def test_each_check_runs_once(self, monkeypatch, m):
        cfg = fig3_config()
        if m == "curve":
            m = np.arange(1, cfg.m_max + 1)
        original = core.require
        messages = []

        def recording(ok, message, *values, **kwargs):
            messages.append(message)
            original(ok, message, *values, **kwargs)

        monkeypatch.setattr(analysis, "require", recording)
        monkeypatch.setattr(core, "require", recording)
        analyze_scenario(cfg, m)
        assert messages and len(messages) == len(set(messages)), messages


class TestArrayInputs:
    """Each closed form takes floats or arrays; floats give Python floats back."""

    L_S = np.array([1.0, 4.0, 16.0, 160.0, 4.0])
    PHI = np.array([0.1, 1.0, 10.0, 1e-3, 1e-300])

    @pytest.mark.parametrize(
        "func",
        [false_alarm, miss_detection, total_error, kl_divergence_exact],
        ids=lambda f: f.__name__,
    )
    def test_array_equals_elementwise_floats(self, func):
        values = func(self.L_S, self.PHI)
        assert isinstance(values, np.ndarray) and values.shape == self.L_S.shape
        for l_s, phi, value in zip(self.L_S.tolist(), self.PHI.tolist(), values.tolist()):
            scalar = func(l_s, phi)
            assert type(scalar) is float
            assert scalar == value

    def test_single_value_functions(self):
        phis = self.PHI.tolist()
        for func in (h0_threshold_factor, h1_threshold_factor, pinsker_lower_bound):
            assert func(self.PHI).tolist() == [func(phi) for phi in phis]
            assert all(type(func(phi)) is float for phi in phis)

    def test_divergence_approx_over_sector_counts(self):
        cfg = ScenarioConfig(
            pa_watt=0.01, noise_watt=1e-8, theta_t=1.0, n_antennas=64, l_total=32, d_aw=50.0
        )
        rho = path_loss(cfg)
        ms = np.arange(1, 33)
        assert kl_divergence_approx(cfg, ms, rho).tolist() == [
            kl_divergence_approx(cfg, m, rho) for m in ms.tolist()
        ]
        assert type(kl_divergence_approx(cfg, 3, rho)) is float

    @pytest.mark.parametrize(
        "func, args, message",
        [
            (false_alarm, ([1.0, 2.0, 3.0], [1.0, 0.0, -1.0]), "phi_w must be finite and > 0, got 0.0"),
            (miss_detection, ([1.0, math.inf, 0.0], 1.0), "l_s must be finite and > 0, got inf"),
            (kl_divergence_exact, (2.0, [0.0, math.nan, -1.0]), "phi_w must be finite and >= 0, got nan"),
            (pinsker_lower_bound, ([1.0, -1e-9, -2.0],), "kl must be finite and >= 0, got -1e-09"),
            (h0_threshold_factor, ([1.0, 2.0, math.inf],), "phi_w must be finite and >= 0, got inf"),
        ],
        ids=["false_alarm", "miss_detection", "kl_divergence_exact", "pinsker", "h0_threshold"],
    )
    def test_first_invalid_element_named(self, func, args, message):
        with pytest.raises(ValueError) as info:
            func(*(np.asarray(a) for a in args))
        assert str(info.value) == message
