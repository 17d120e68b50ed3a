"""Acceptance gate: one test per shipped criterion, each printing a
pass/fail line (run with ``pytest -v tests/test_acceptance.py -s``).

Tolerances are fixed here, not calibrated; the Monte Carlo criteria use the
stated three-half-width rule with one reseeded retry per cell.
"""

import math

import numpy as np
import pytest

from beamsweep import reg_lower_gamma
from beamsweep.analysis import (
    false_alarm,
    kl_divergence_approx,
    kl_divergence_exact,
    miss_detection,
    total_error,
)
from beamsweep.cli import main
from beamsweep.core import ScenarioConfig, make_sweep_plan, path_loss
from beamsweep.montecarlo import McConfig, estimate_cells, retry_seed
from beamsweep.optimizer import sweep_sectors
from beamsweep.presets import fig2_config, fig3_config

from oracles import reg_lower_gamma_reference


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_01_analytic_point():
    alpha = false_alarm(1.0, 1.0)
    beta = miss_detection(1.0, 1.0)
    xi = total_error(1.0, 1.0)
    ok = (
        abs(alpha - 0.25) <= 1e-12
        and abs(beta - 0.5) <= 1e-12
        and abs(xi - 0.75) <= 1e-12
    )
    _report(1, ok, f"xi(l_s=1, phi=1) = {xi!r} (alpha={alpha!r}, beta={beta!r})")
    assert ok


def test_criterion_02_zero_snr_limit():
    values = {l_s: total_error(float(l_s), 1e-9) for l_s in (1, 16, 160)}
    ok = all(abs(v - 1.0) <= 1e-6 for v in values.values())
    _report(2, ok, f"xi(l_s, phi=1e-9) = {values}")
    assert ok


def test_criterion_03_special_function_accuracy():
    worst = 0.0
    worst_at = None
    for a in (0.5, 1.0, 2.0, 5.0, 8.0, 32.0, 160.0):
        for x in (0.01, 0.5, 1.0, 5.0, 10.0, 100.0, 500.0):
            err = abs(reg_lower_gamma(a, x) - float(reg_lower_gamma_reference(a, x)))
            if err > worst:
                worst, worst_at = err, (a, x)
    ok = worst <= 1e-10
    _report(3, ok, f"worst |P - reference| = {worst:.3e} at (a, x) = {worst_at}")
    assert ok


def test_criterion_04_oracle_equivalence():
    trials = 100_000
    seed = 42
    failures = []
    for l_s in (1, 4, 16):
        for phi in (0.1, 1.0, 10.0):
            alpha = false_alarm(float(l_s), phi)
            beta = miss_detection(float(l_s), phi)

            def cell_ok(est):
                return (
                    abs(est.alpha_hat - alpha) <= 3.0 * est.ci_halfwidth_alpha
                    and abs(est.beta_hat - beta) <= 3.0 * est.ci_halfwidth_beta
                )

            est = estimate_cells([(l_s, phi)], McConfig(trials=trials, seed=seed))[0]
            ok = cell_ok(est)
            if not ok:
                est = estimate_cells([(l_s, phi)], McConfig(trials=trials, seed=retry_seed(seed)))[0]
                ok = cell_ok(est)
            if not ok:
                failures.append((l_s, phi))
    ok = not failures
    _report(4, ok, f"9 cells x {trials} trials, failures after retry: {failures}")
    assert ok


def test_criterion_05_pinsker_dominance():
    worst_gap = -math.inf
    count = 0
    for cfg in (fig2_config(), fig3_config()):
        curve = sweep_sectors(cfg).analysis
        worst_gap = max(worst_gap, float(np.max(curve.pinsker_lb - curve.xi)))
        count += curve.xi.size
    ok = worst_gap <= 1e-12
    _report(5, ok, f"max(pinsker_lb - xi) = {worst_gap:.3e} over {count} sweep entries")
    assert ok


def _scenario_with_phi(phi: float) -> ScenarioConfig:
    """Scenario whose single-sector SNR equals ``phi``."""
    base = dict(
        noise_watt=1e-8,
        theta_t=math.pi / 3.0,
        n_antennas=128,
        l_total=32,
        d_aw=100.0,
    )
    rho = path_loss(ScenarioConfig(pa_watt=1.0, **base))
    gain = 2.0 / base["theta_t"]
    return ScenarioConfig(pa_watt=phi * base["noise_watt"] / (rho * gain), **base)


def test_criterion_06a_kl_approximation_error_growth():
    errors = []
    for phi in (0.01, 0.05, 0.2, 1.0):
        cfg = _scenario_with_phi(phi)
        exact = kl_divergence_exact(*make_sweep_plan(cfg, 1))
        approx = kl_divergence_approx(cfg, 1)
        errors.append(abs(approx - exact) / exact)
    ok = all(b > a for a, b in zip(errors, errors[1:]))
    _report(6, ok, f"approximation error over phi grid {errors} grows monotonically")
    assert ok


def test_criterion_06b_kl_approximation_small_snr_accuracy():
    checked = 0
    violations = []
    for cfg in (fig2_config(), fig3_config()):
        curve = sweep_sectors(cfg).analysis
        for m, phi_w, kl_exact in zip(
            curve.m.tolist(), curve.phi_w.tolist(), curve.kl_exact.tolist()
        ):
            if phi_w <= 0.05:
                checked += 1
                rel = abs(kl_divergence_approx(cfg, m) - kl_exact) / kl_exact
                if rel > 0.05:
                    violations.append((m, phi_w, rel))
    ok = not violations
    if checked == 0:
        detail = (
            "vacuous: no preset sweep entry has phi_w <= 0.05 "
            "(smallest is the fig3 m=1 entry at phi_w ~ 0.0756)"
        )
    else:
        detail = f"{checked} entries with phi_w <= 0.05, violations: {violations}"
    _report(6, ok, detail)
    assert ok


def test_criterion_07_trend_regimes():
    small = sweep_sectors(fig3_config())
    xs = small.analysis.xi.tolist()
    k = small.m_star - 1
    small_ok = (
        1 < small.m_star < 67
        and all(b < a for a, b in zip(xs[: k + 1], xs[1 : k + 1]))
        and all(b > a for a, b in zip(xs[k:], xs[k + 1 :]))
    )

    large = sweep_sectors(fig2_config())
    xl = large.analysis.xi.tolist()
    large_ok = large.m_star == 1 and all(b >= a for a, b in zip(xl, xl[1:]))

    ok = small_ok and large_ok
    _report(
        7,
        ok,
        f"small budget: interior m_star={small.m_star} with two-phase shape "
        f"({small_ok}); large budget: m_star={large.m_star}, non-decreasing "
        f"({large_ok})",
    )
    assert ok


def test_criterion_08_monotonicity_suite():
    l_grid = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    phi_grid = (1e-3, 1e-2, 0.1, 1.0, 10.0)
    snr_ok = all(
        total_error(l_s, b) < total_error(l_s, a)
        for l_s in l_grid
        for a, b in zip(phi_grid, phi_grid[1:])
    )
    samples_ok = all(
        total_error(b, phi) < total_error(a, phi)
        for phi in phi_grid
        for a, b in zip(l_grid, l_grid[1:])
    )
    # More total symbols at a fixed sector count always raises the divergence.
    m = 4
    phi = 0.3
    kls = [kl_divergence_exact(l_total / m, phi) for l_total in (32, 64, 160)]
    budget_ok = all(b > a for a, b in zip(kls, kls[1:]))
    ok = snr_ok and samples_ok and budget_ok
    _report(
        8,
        ok,
        f"xi decreasing in phi ({snr_ok}) and in l_s ({samples_ok}); "
        f"KL increasing in total symbols ({budget_ok})",
    )
    assert ok


def test_criterion_09_validate_determinism(tmp_path):
    args = ["validate", "--seed", "42", "--trials", "100000"]
    out_a = tmp_path / "run_a.csv"
    out_b = tmp_path / "run_b.csv"
    code_a = main(args + ["--out", str(out_a)])
    code_b = main(args + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _report(
        9,
        ok,
        f"validate exit codes ({code_a}, {code_b}), byte-identical CSV: {identical}",
    )
    assert ok
