import dataclasses
import math

import numpy as np
import pytest
from mpmath import mp
from scipy.special import gammaincc

from beamsweep import analysis, core
from beamsweep.analysis import (
    DetectionAnalysis,
    analyze_scenario,
    false_alarm,
    kl_divergence_approx,
    kl_divergence_exact,
    miss_detection,
    pinsker_lower_bound,
    reg_lower_gamma,
    total_error,
)
from beamsweep.core import ScenarioConfig, make_sweep_plan, path_loss
from beamsweep.presets import fig3_config

from oracles import (
    closed_forms_reference,
    reg_lower_gamma_reference,
    reg_upper_gamma_reference,
)

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
        threshold = l_s * math.log1p(phi) * (1.0 + 1.0 / phi)
        reference = reg_upper_gamma_reference(l_s, threshold)
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
        threshold = l_s * math.log1p(phi) / phi
        reference = reg_lower_gamma_reference(l_s, threshold)
        assert abs(miss_detection(l_s, phi) - reference) <= 1e-10 * reference


class TestTinyDwell:
    """Dwells far below one sample, where beta lies within an ulp or so of 1.

    There scipy's gammainc errs by up to about 100 ulps, and returns
    1.0000000000000238 at (1e-300, 3); beta is 1 - Q, correctly rounded.
    """

    @pytest.mark.parametrize("l_s", [1e-300, 1e-30, 1e-17])
    @pytest.mark.parametrize("phi", [0.3, 3.0, 30.0])
    def test_beta_is_correctly_rounded_and_at_most_one(self, l_s, phi):
        alpha, beta = false_alarm(l_s, phi), miss_detection(l_s, phi)
        assert 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0
        assert total_error(l_s, phi) <= 1.0
        threshold = l_s * (math.log1p(phi) / phi)
        assert beta == float(reg_lower_gamma_reference(l_s, threshold))

    @pytest.mark.parametrize("l_s, phi", [(5e-324, 1e308), (1e-100, 1e300), (1e-200, 1e200)])
    def test_underflowing_h1_threshold_keeps_beta(self, l_s, phi):
        # The H1 threshold rounds to 0 here (about 3.5e-629 at the first
        # point), where P(l_s, 0) = 0 would be wrong: beta is within an ulp of 1.
        assert l_s * (math.log1p(phi) / phi) == 0.0
        with mp.workdps(50):
            threshold = mp.mpf(l_s) * mp.log1p(phi) / phi
        reference = float(reg_lower_gamma_reference(l_s, threshold))
        assert reference == 1.0
        assert miss_detection(l_s, phi) == reference
        assert miss_detection(np.array([l_s, 1.0]), phi).tolist()[0] == reference

    def test_overflowing_threshold_gives_no_false_alarm(self):
        # The H0 threshold of l_s = 1e308 overflows to inf; the suite turns
        # numpy's overflow warning into an error.
        assert false_alarm(1e308, 10.0) == 0.0


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

    def test_overflowing_divergence_is_inf_without_a_warning(self):
        # l_s times the per-sample term exceeds the float range; the suite
        # turns numpy's overflow warning into an error.
        assert kl_divergence_exact(3e305, 1e300) == math.inf
        assert kl_divergence_exact(np.array([3e305, 1.0]), 1e300).tolist()[0] == math.inf

    def test_relative_accuracy_at_low_snr(self):
        # ln(1+phi) - phi/(1+phi) cancels: it was 0.18 off at phi = 1e-15.
        phis = np.logspace(-15.0, -3.0, 25)
        with mp.workdps(50):
            exact = [mp.log1p(phi) - mp.mpf(phi) / (1 + mp.mpf(phi)) for phi in phis.tolist()]
            for kl in (kl_divergence_exact(1.0, phis), [kl_divergence_exact(1.0, p) for p in phis]):
                errors = [abs((got - want) / want) for got, want in zip(kl, exact)]
                assert max(errors) < 1e-14


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
        for m in (1, 4, 16, 67):
            l_sector, phi_w = make_sweep_plan(cfg, m)
            expected = l_sector * phi_w ** 2 / (1.0 + phi_w)
            assert kl_divergence_approx(cfg, m) == pytest.approx(expected, rel=1e-12)

    def test_overshoots_exact_by_factor_two_at_low_snr(self):
        # Replacing ln(1+phi) by phi doubles the leading phi^2/2 term, so the
        # ratio to the exact divergence tends to 2 from above as phi -> 0.
        cfg = self.scenario(pa_watt=1e-5)  # phi(m=1) ~ 1.9e-5
        ratio = kl_divergence_approx(cfg, 1) / kl_divergence_exact(*make_sweep_plan(cfg, 1))
        assert ratio == pytest.approx(2.0, rel=1e-4)

    def test_relative_error_grows_with_snr(self):
        # Ratio at phi = 1e-3, frozen from extended precision: 2.000666556.
        errors = []
        for pa in (1e-4, 1e-3, 1e-2, 0.1):
            cfg = self.scenario(pa_watt=pa)
            exact = kl_divergence_exact(*make_sweep_plan(cfg, 1))
            approx = kl_divergence_approx(cfg, 1)
            errors.append(abs(approx - exact) / exact)
        assert all(b > a for a, b in zip(errors, errors[1:]))
        assert all(err > 1.0 for err in errors)

    def test_saturates_for_many_sectors(self):
        cfg = self.scenario()
        rho = path_loss(cfg)
        limit = 2.0 * cfg.l_total * cfg.pa_watt * rho / (cfg.noise_watt * cfg.theta_t)
        assert kl_divergence_approx(cfg, 10 ** 9) == pytest.approx(
            limit, rel=1e-6
        )

    def test_vanishes_with_power(self):
        cfg = self.scenario(pa_watt=1e-200)
        assert kl_divergence_approx(cfg, 4) < 1e-100

    def test_underflowing_path_loss_is_a_value_error(self):
        # At d_aw = 1e300 the path loss underflows to 0.0 rather than overflowing.
        cfg = dataclasses.replace(fig3_config(), d_aw=1e300)
        with pytest.raises(ValueError) as info:
            kl_divergence_approx(cfg, 1)
        assert str(info.value) == "rho_aw must be finite and > 0, got 0.0"


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
        assert isinstance(result, DetectionAnalysis)
        assert (result.m, result.l_sector, result.phi_w) == (8, *plan)
        assert result.alpha == false_alarm(*plan)
        assert result.beta == miss_detection(*plan)
        assert result.xi == result.alpha + result.beta
        assert result.kl_exact == kl_divergence_exact(*plan)
        assert result.kl_approx == kl_divergence_approx(cfg, 8)
        assert result.pinsker_lb == pinsker_lower_bound(result.kl_exact)
        assert not result.pinsker_vacuous

    def test_overflowing_divergence_gives_a_vacuous_bound(self):
        # kl overflows at m = 1, where alpha and beta are 0; the public
        # pinsker_lower_bound still rejects that kl as an input.
        cfg = dataclasses.replace(fig3_config(), pa_watt=1e297, l_total=3 * 10**305)
        result = analyze_scenario(cfg, 1)
        assert (result.alpha, result.beta) == (0.0, 0.0)
        assert (result.kl_exact, result.pinsker_lb) == (math.inf, -math.inf)
        assert result.pinsker_vacuous
        with pytest.raises(ValueError, match="^kl must be finite and >= 0, got inf$"):
            pinsker_lower_bound(result.kl_exact)

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


def plan_at_overflowing_power(m):
    """``make_sweep_plan`` where pa * rho is about 1e307 and the gain is m.

    phi_w overflows to inf from m = 18 on; as in ``analyze_scenario``, the
    overflow gives inf without a warning and the check rejects it.
    """
    cfg = ScenarioConfig(
        pa_watt=1e307,
        noise_watt=1.0,
        theta_t=2.0,
        n_antennas=64,
        l_total=64,
        d_aw=1.0,
        carrier_hz=3.0e8 / (4.0 * math.pi),
    )
    with np.errstate(over="ignore"):
        return make_sweep_plan(cfg, m)


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
        assert pinsker_lower_bound(self.PHI).tolist() == [pinsker_lower_bound(p) for p in phis]
        assert all(type(pinsker_lower_bound(phi)) is float for phi in phis)

    def test_divergence_approx_over_sector_counts(self):
        cfg = ScenarioConfig(
            pa_watt=0.01, noise_watt=1e-8, theta_t=1.0, n_antennas=64, l_total=32, d_aw=50.0
        )
        ms = np.arange(1, 33)
        assert kl_divergence_approx(cfg, ms).tolist() == [
            kl_divergence_approx(cfg, m) for m in ms.tolist()
        ]
        assert type(kl_divergence_approx(cfg, 3)) is float

    @pytest.mark.parametrize(
        "func, args, message",
        [
            (false_alarm, ([1.0, 2.0, 3.0], [1.0, 0.0, -1.0]), "phi_w must be finite and > 0, got 0.0"),
            (miss_detection, ([1.0, math.inf, 0.0], 1.0), "l_s must be finite and > 0, got inf"),
            (kl_divergence_exact, (2.0, [0.0, math.nan, -1.0]), "phi_w must be finite and >= 0, got nan"),
            (pinsker_lower_bound, ([1.0, -1e-9, -2.0],), "kl must be finite and >= 0, got -1e-09"),
            (plan_at_overflowing_power, ([1, 2, 17, 18, 30],), "phi_w must be finite and >= 0, got inf"),
        ],
        ids=["false_alarm", "miss_detection", "kl_divergence_exact", "pinsker", "sweep_plan"],
    )
    def test_first_invalid_element_named(self, func, args, message):
        with pytest.raises(ValueError) as info:
            func(*(np.asarray(a) for a in args))
        assert str(info.value) == message


class TestSpecialCases:
    """Each special case of the closed forms is one masked correction of scipy's values.

    One array holds a point of each case beside ordinary points: a shape
    below 1e-3, a blind point (x0 == x1), an underflowing H1 threshold and
    two divergences below phi_w = 0.03.
    """

    L_S = np.array([1e-4, 4.0, 5e-324, 8.0, 1.0, 160.0, 1e-100, 2.5])
    PHI = np.array([3.0, 1e-17, 1e308, 1e-2, 1.0, 10.0, 1e300, 0.3])

    def test_the_array_holds_each_case(self):
        _, x0, x1 = analysis._thresholds(self.L_S, self.PHI)
        assert np.count_nonzero(self.L_S < 1e-3) == 3
        assert (x0 == x1).tolist() == [False, True] + [False] * 6
        assert (x1 == 0.0).tolist() == [False, False, True] + [False] * 3 + [True, False]
        assert np.count_nonzero(self.PHI < 0.03) == 2

    @pytest.mark.parametrize(
        "func",
        [reg_lower_gamma, false_alarm, miss_detection, kl_divergence_exact],
        ids=lambda f: f.__name__,
    )
    def test_array_equals_the_scalar_closed_forms(self, func):
        values = func(self.L_S, self.PHI)
        assert values.shape == self.L_S.shape
        for l_s, phi, value in zip(self.L_S.tolist(), self.PHI.tolist(), values.tolist()):
            assert func(l_s, phi) == value

    def test_upper_gamma_runs_only_at_the_small_shapes(self, monkeypatch):
        shapes = np.array([1e-4, 1.0, 5e-4, 16.0, 1e-300])
        expected = reg_lower_gamma(shapes, 2.0)
        seen = []

        def recording(a, x):
            seen.append(np.asarray(a).tolist())
            return gammaincc(a, x)

        monkeypatch.setattr(analysis, "gammaincc", recording)
        assert reg_lower_gamma(shapes, 2.0).tolist() == expected.tolist()
        assert seen == [[1e-4, 5e-4, 1e-300]]
        seen.clear()
        reg_lower_gamma(shapes[[1, 3]], 2.0)
        assert seen == []

    def test_patched_returns_the_value_where_nothing_is_masked(self):
        value = np.array([1.0, 2.0])
        assert analysis._patched(value, value < 0.0, None) is value
        patched = analysis._patched(value, value > 1.5, lambda v: -v, value)
        assert patched.tolist() == [1.0, -2.0] and value.tolist() == [1.0, 2.0]
        scalar = analysis._patched(np.float64(3.0), np.True_, lambda v: v + 1.0, 3.0)
        assert type(scalar) is np.float64 and scalar == 4.0


class TestIntegersBeyondTheFloatRange:
    """An integer beyond the float range is inf of its sign, which each check names."""

    @pytest.mark.parametrize(
        "func, args, message",
        [
            (reg_lower_gamma, (10**400, 1.0), "reg_lower_gamma requires finite a > 0, got a=inf"),
            (false_alarm, (-(10**400), 1.0), "l_s must be finite and > 0, got -inf"),
            (kl_divergence_exact, (2.0, 10**400), "phi_w must be finite and >= 0, got inf"),
            (miss_detection, ([1, 2, 10**400], 1.0), "l_s must be finite and > 0, got inf"),
        ],
        ids=["reg_lower_gamma", "false_alarm", "kl_divergence_exact", "miss_detection-list"],
    )
    def test_check_names_inf(self, func, args, message):
        with pytest.raises(ValueError) as info:
            func(*args)
        assert str(info.value) == message


class TestAccuracyGate:
    """alpha, beta, xi and kl_exact against mpmath over the (l_s, phi_w) plane.

    l_s = 10**k for k from -4 to 6 and phi_w = 10**j for j from -12 to 12,
    in relative terms under the suite's 1e-10 bound, on reference values of
    at least 1e-280. The reference (``oracles.closed_forms_reference``) takes
    mpmath's own regularized ``gammainc`` at 40 digits. The points outside
    the bound follow scipy's version; CI pins the one they were recorded
    under. Shapes above 1e6 need a reference that mpmath's ``gammainc``
    cannot give there.
    """

    BOUND = 1e-10
    # scipy's gammainc leaves its uniform asymptotic series at a = 1e6,
    # about 5 standard deviations below the mean.
    OUTSIDE = {("beta", 1e6, 1e-2), ("xi", 1e6, 1e-2)}

    @pytest.fixture(scope="class")
    def relative_errors(self):
        """{(quantity, l_s, phi_w): relative error} for each reference >= 1e-280."""
        errors = {}
        for l_s in (10.0**k for k in range(-4, 7)):
            for phi in (10.0**j for j in range(-12, 13)):
                alpha, beta, kl = closed_forms_reference(l_s, phi)
                a, b = false_alarm(l_s, phi), miss_detection(l_s, phi)
                pairs = {
                    "alpha": (a, alpha),
                    "beta": (b, beta),
                    "xi": (a + b, alpha + beta),
                    "kl": (kl_divergence_exact(l_s, phi), kl),
                }
                with mp.workdps(40):
                    for name, (value, reference) in pairs.items():
                        if reference >= mp.mpf("1e-280"):
                            relative = abs(mp.mpf(value) - reference) / reference
                            errors[name, l_s, phi] = float(relative)
        return errors

    def test_within_the_bound_but_at_the_pinned_points(self, relative_errors):
        # 1,100 comparisons, of which 177 have references below 1e-280.
        assert len(relative_errors) == 923
        outside = {
            point: error
            for point, error in relative_errors.items()
            if error > self.BOUND and point not in self.OUTSIDE
        }
        assert outside == {}

    def test_points_outside_the_bound_are_the_pinned_ones(self, relative_errors):
        outside = {point for point, error in relative_errors.items() if error > self.BOUND}
        assert outside == self.OUTSIDE
