"""Closed-form detection performance of the per-sector energy test.

The optimal detector compares the beamformed energy statistic against a
fixed threshold; under either hypothesis the statistic is a scaled
chi-squared variable with 2*l_sector degrees of freedom, so both error
probabilities reduce to regularized incomplete gamma evaluations in the
normalized coordinates (l_sector, phi_w). Those come from scipy's
``gammainc``/``gammaincc`` (DiDonato & Morris, ACM TOMS 12 (1986) 377), and a
non-finite result raises ConvergenceError.

Every closed form takes floats or numpy arrays: a float input returns a
Python float, an array input an array, and an invalid element raises the
error a call on that element alone would raise. ``analyze_scenario``
evaluates one sector count, or a whole error curve as one array pass over
its sector counts; either way the result is one ``DetectionAnalysis``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .core import (
    FloatOrArray,
    ScenarioConfig,
    elementwise_log1p,
    h0_threshold_factor,
    h1_threshold_factor,
    make_link_budget,
    make_sweep_plan,
    require,
    scalar_or_array,
)


class ConvergenceError(RuntimeError):
    """A special-function evaluation returned a non-finite value."""


@dataclass(frozen=True)
class DetectionAnalysis:
    """Closed-form error probabilities and divergence bounds at sector count ``m``.

    ``m`` of a scenario fixes the normalized coordinates ``l_sector`` and
    ``phi_w`` that every other field depends on. For one sector count every
    field is a Python number; for an array of them every field is an array
    over them, one column of the error curve.
    """

    m: int | np.ndarray
    l_sector: FloatOrArray
    phi_w: FloatOrArray
    alpha: FloatOrArray
    beta: FloatOrArray
    xi: FloatOrArray
    kl_exact: FloatOrArray
    kl_approx: FloatOrArray
    pinsker_lb: FloatOrArray

    @property
    def pinsker_vacuous(self) -> bool | np.ndarray:
        """True when the lower bound is negative and therefore uninformative."""
        return self.pinsker_lb < 0.0


def reg_lower_gamma(a: FloatOrArray, x: FloatOrArray) -> FloatOrArray:
    """Regularized lower incomplete gamma function P(a, x) in [0, 1].

    P(a, x) is the CDF at x of a unit-scale gamma distribution with shape a,
    evaluated by ``scipy.special.gammainc``.

    Raises:
        ValueError: if a <= 0, x < 0, or either input is not finite.
        ConvergenceError: if the evaluation is not finite.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    require(np.isfinite(a) & (a > 0.0), "reg_lower_gamma requires finite a > 0, got a={}", a)
    require(np.isfinite(x) & (x >= 0.0), "reg_lower_gamma requires finite x >= 0, got x={}", x)
    p = np.asarray(gammainc(a, x), dtype=float)
    require(np.isfinite(p), "gammainc returned {} at a={}, x={}", p, a, x, error=ConvergenceError)
    return scalar_or_array(p)


def _point(l_s: FloatOrArray, phi_w: FloatOrArray) -> tuple[np.ndarray, np.ndarray]:
    l_s = np.asarray(l_s, dtype=float)
    phi_w = np.asarray(phi_w, dtype=float)
    require(np.isfinite(l_s) & (l_s > 0.0), "l_s must be finite and > 0, got {}", l_s)
    require(np.isfinite(phi_w) & (phi_w > 0.0), "phi_w must be finite and > 0, got {}", phi_w)
    return l_s, phi_w


def false_alarm(l_s: FloatOrArray, phi_w: FloatOrArray) -> FloatOrArray:
    """Probability of declaring a transmission when only noise is present.

    Equals Q(l_s, l_s ln(1+phi)(1+1/phi)), the regularized upper incomplete
    gamma function, evaluated directly so tiny values keep their relative
    accuracy instead of cancelling in 1 - P.
    """
    l_s, phi_w = _point(l_s, phi_w)
    x = np.asarray(l_s * h0_threshold_factor(phi_w))
    # SNR below double resolution: both tests share one threshold and one
    # law, so alpha = 1 - beta exactly and xi = 1 marks the blind detector.
    blind = x == l_s * h1_threshold_factor(phi_w)
    alpha = np.array(gammaincc(l_s, x), dtype=float)
    if blind.any():
        # Checked first: blind points have the smallest SNR, so along a curve
        # they come before any point gammaincc could fail at.
        alpha[blind] = 1.0 - reg_lower_gamma(np.broadcast_to(l_s, x.shape)[blind], x[blind])
    require(
        blind | np.isfinite(alpha),
        "gammaincc returned {} at l_s={}, phi_w={}",
        alpha,
        l_s,
        phi_w,
        error=ConvergenceError,
    )
    return scalar_or_array(alpha)


def miss_detection(l_s: FloatOrArray, phi_w: FloatOrArray) -> FloatOrArray:
    """Probability of declaring silence while the source transmits.

    Equals P(l_s, l_s ln(1+phi)/phi), a lower tail, so tiny values keep
    their relative accuracy.
    """
    l_s, phi_w = _point(l_s, phi_w)
    return reg_lower_gamma(l_s, l_s * h1_threshold_factor(phi_w))


def total_error(l_s: FloatOrArray, phi_w: FloatOrArray) -> FloatOrArray:
    """Detection error probability xi = alpha + beta.

    xi = 1 marks a blind detector; the optimal test keeps xi in (0, 1] for
    any positive SNR.
    """
    return false_alarm(l_s, phi_w) + miss_detection(l_s, phi_w)


def kl_divergence_exact(l_s: FloatOrArray, phi_w: FloatOrArray) -> FloatOrArray:
    """KL divergence (nats) from the noise-only to the signal-present law.

    Per observed sample the divergence is ln(1+phi) - phi/(1+phi); the l_s
    samples in a sector are independent, so the total is linear in l_s.
    """
    l_s = np.asarray(l_s, dtype=float)
    phi_w = np.asarray(phi_w, dtype=float)
    require(np.isfinite(l_s) & (l_s > 0.0), "l_s must be finite and > 0, got {}", l_s)
    require(np.isfinite(phi_w) & (phi_w >= 0.0), "phi_w must be finite and >= 0, got {}", phi_w)
    return scalar_or_array(l_s * (elementwise_log1p(phi_w) - phi_w / (1.0 + phi_w)))


def kl_divergence_approx(
    cfg: ScenarioConfig, m: int | np.ndarray, rho_aw: float
) -> FloatOrArray:
    """Small-SNR closed form of the divergence in the raw scenario parameters.

    4 L_t (P_a rho)^2 M / ((sigma^2 theta_t)^2 + 2 P_a rho sigma^2 theta_t M),
    obtained by replacing ln(1+phi) with phi. Note the replacement doubles
    the leading phi^2/2 term, so this overshoots the exact divergence by a
    factor approaching 2 at low SNR; see the tests for the measured ratio.
    """
    m = np.asarray(m)
    require(m >= 1, "sector count m must be >= 1, got {}", m)
    if not (math.isfinite(rho_aw) and rho_aw > 0.0):
        raise ValueError(f"rho_aw must be finite and > 0, got {rho_aw}")
    signal = cfg.pa_watt * rho_aw
    noise_width = cfg.noise_watt * cfg.theta_t
    return scalar_or_array(
        4.0 * cfg.l_total * signal * signal * m
        / (noise_width * noise_width + 2.0 * signal * noise_width * m)
    )


def pinsker_lower_bound(kl: FloatOrArray) -> FloatOrArray:
    """Information-theoretic floor on the detection error: 1 - sqrt(kl/2).

    May be negative, in which case the bound is vacuous; it is reported
    as-is and flagged by DetectionAnalysis.pinsker_vacuous.
    """
    kl = np.asarray(kl, dtype=float)
    require(np.isfinite(kl) & (kl >= 0.0), "kl must be finite and >= 0, got {}", kl)
    return scalar_or_array(1.0 - np.sqrt(kl / 2.0))


def analyze_scenario(
    cfg: ScenarioConfig, m: int | Sequence[int] | np.ndarray
) -> DetectionAnalysis:
    """The closed-form analysis of a scenario at sector count ``m``.

    A single ``m`` gives Python numbers; a sequence or array of them gives
    one array per field, evaluated in one pass. Each check names the first
    sector count that fails it, and the checks run in the order one point
    runs them; along a curve, where phi_w grows with m, that is the error a
    point-by-point evaluation would raise first.
    """
    # Overflow gives inf and nan as Python floats would, without warnings;
    # the checks reject them where they matter.
    with np.errstate(all="ignore"):
        plan = make_sweep_plan(cfg, m)
        budget = make_link_budget(cfg, plan)
        alpha = false_alarm(plan.l_sector, budget.phi_w)
        beta = miss_detection(plan.l_sector, budget.phi_w)
        kl = kl_divergence_exact(plan.l_sector, budget.phi_w)
        return DetectionAnalysis(
            plan.m_sectors, plan.l_sector, budget.phi_w, alpha, beta, alpha + beta, kl,
            kl_divergence_approx(cfg, plan.m_sectors, budget.rho_aw), pinsker_lower_bound(kl),
        )
