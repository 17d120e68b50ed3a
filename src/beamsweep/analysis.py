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
its sector counts; either way the result is one ``DetectionAnalysis``. It
checks its inputs once, at the entry, computes ln(1+phi_w) and the two test
thresholds once, and hands them to the private kernels that the public
closed forms also run after their own checks, so a field of the analysis
equals the public closed form at that point bit for bit.
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
    _threshold_factors,
    as_floats,
    elementwise_log1p,
    fields_equal,
    finite_nonnegative,
    finite_positive,
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

    __eq__ = fields_equal

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
    a = as_floats(a)
    x = as_floats(x)
    require(finite_positive(a), "reg_lower_gamma requires finite a > 0, got a={}", a)
    require(finite_nonnegative(x), "reg_lower_gamma requires finite x >= 0, got x={}", x)
    return scalar_or_array(_lower_gamma(a, x))


def _lower_gamma(a: FloatOrArray, x: FloatOrArray) -> FloatOrArray:
    """P(a, x) at checked inputs; a non-finite result raises ConvergenceError."""
    p = as_floats(gammainc(a, x))
    require(np.isfinite(p), "gammainc returned {} at a={}, x={}", p, a, x, error=ConvergenceError)
    return p


def _point(l_s: FloatOrArray, phi_w: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """``l_s`` and ``phi_w`` as floats, checked finite and > 0."""
    l_s = as_floats(l_s)
    phi_w = as_floats(phi_w)
    require(finite_positive(l_s), "l_s must be finite and > 0, got {}", l_s)
    require(finite_positive(phi_w), "phi_w must be finite and > 0, got {}", phi_w)
    return l_s, phi_w


def _thresholds(
    l_s: FloatOrArray, phi_w: FloatOrArray
) -> tuple[FloatOrArray, FloatOrArray, FloatOrArray]:
    """ln(1+phi_w) and the H0 and H1 test thresholds of a checked point."""
    log_term = elementwise_log1p(phi_w)
    h0, h1 = _threshold_factors(log_term, phi_w)
    return log_term, l_s * h0, l_s * h1


def _false_alarm(
    l_s: FloatOrArray, phi_w: FloatOrArray, x0: FloatOrArray, x1: FloatOrArray
) -> FloatOrArray:
    """Q(l_s, x0) at a checked point with H0 threshold x0 and H1 threshold x1."""
    # SNR below double resolution: both tests share one threshold and one
    # law, so alpha = 1 - beta exactly and xi = 1 marks the blind detector.
    blind = x0 == x1
    alpha = as_floats(gammaincc(l_s, x0))
    if np.count_nonzero(blind):
        # Checked first: blind points have the smallest SNR, so along a curve
        # they come before any point gammaincc could fail at.
        alpha = np.array(alpha)
        alpha[blind] = 1.0 - reg_lower_gamma(np.broadcast_to(l_s, x0.shape)[blind], x0[blind])
        alpha = alpha[()]
    require(
        blind | np.isfinite(alpha),
        "gammaincc returned {} at l_s={}, phi_w={}",
        alpha,
        l_s,
        phi_w,
        error=ConvergenceError,
    )
    return alpha


def _kl_exact(
    l_s: FloatOrArray, phi_w: FloatOrArray, log_term: FloatOrArray
) -> FloatOrArray:
    return l_s * (log_term - phi_w / (1.0 + phi_w))


def false_alarm(l_s: FloatOrArray, phi_w: FloatOrArray) -> FloatOrArray:
    """Probability of declaring a transmission when only noise is present.

    Equals Q(l_s, l_s ln(1+phi)(1+1/phi)), the regularized upper incomplete
    gamma function, evaluated directly so tiny values keep their relative
    accuracy instead of cancelling in 1 - P.
    """
    l_s, phi_w = _point(l_s, phi_w)
    _, x0, x1 = _thresholds(l_s, phi_w)
    return scalar_or_array(_false_alarm(l_s, phi_w, x0, x1))


def miss_detection(l_s: FloatOrArray, phi_w: FloatOrArray) -> FloatOrArray:
    """Probability of declaring silence while the source transmits.

    Equals P(l_s, l_s ln(1+phi)/phi), a lower tail, so tiny values keep
    their relative accuracy.
    """
    l_s, phi_w = _point(l_s, phi_w)
    _, _, x1 = _thresholds(l_s, phi_w)
    return scalar_or_array(_lower_gamma(l_s, x1))


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
    l_s = as_floats(l_s)
    phi_w = as_floats(phi_w)
    require(finite_positive(l_s), "l_s must be finite and > 0, got {}", l_s)
    require(finite_nonnegative(phi_w), "phi_w must be finite and >= 0, got {}", phi_w)
    return scalar_or_array(_kl_exact(l_s, phi_w, elementwise_log1p(phi_w)))


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
    return scalar_or_array(_kl_approx(cfg, as_floats(m), rho_aw))


def _kl_approx(cfg: ScenarioConfig, m: FloatOrArray, rho_aw: float) -> FloatOrArray:
    """The small-SNR divergence at checked sector counts ``m``, as floats."""
    signal = cfg.pa_watt * rho_aw
    noise_width = cfg.noise_watt * cfg.theta_t
    return (
        4.0 * cfg.l_total * signal * signal * m
        / (noise_width * noise_width + 2.0 * signal * noise_width * m)
    )


def pinsker_lower_bound(kl: FloatOrArray) -> FloatOrArray:
    """Information-theoretic floor on the detection error: 1 - sqrt(kl/2).

    May be negative, in which case the bound is vacuous; it is reported
    as-is and flagged by DetectionAnalysis.pinsker_vacuous.
    """
    kl = as_floats(kl)
    require(finite_nonnegative(kl), "kl must be finite and >= 0, got {}", kl)
    return scalar_or_array(1.0 - np.sqrt(kl / 2.0))


def analyze_scenario(
    cfg: ScenarioConfig, m: int | Sequence[int] | np.ndarray
) -> DetectionAnalysis:
    """The closed-form analysis of a scenario at sector count ``m``.

    A single ``m`` gives Python numbers; a sequence or array of them gives
    one array per field, evaluated in one pass. The inputs are checked once,
    here, and ln(1+phi_w) and the two thresholds are computed once and shared
    by every field. Each check names the first sector count that fails it,
    and the checks run in the order the public closed forms would run them;
    along a curve, where phi_w grows with m, that is the error a
    point-by-point evaluation would raise first.
    """
    # Overflow gives inf and nan as Python floats would, without warnings;
    # the checks reject them where they matter.
    with np.errstate(all="ignore"):
        plan = make_sweep_plan(cfg, m)
        budget = make_link_budget(cfg, plan)
        l_s, phi_w = _point(plan.l_sector, budget.phi_w)
        log_term, x0, x1 = _thresholds(l_s, phi_w)
        alpha = _false_alarm(l_s, phi_w, x0, x1)
        beta = _lower_gamma(l_s, x1)
        kl = _kl_exact(l_s, phi_w, log_term)
        kl_approx = _kl_approx(cfg, as_floats(plan.m_sectors), budget.rho_aw)
        return DetectionAnalysis(
            plan.m_sectors, plan.l_sector, budget.phi_w,
            *map(scalar_or_array, (alpha, beta, alpha + beta, kl, kl_approx)),
            pinsker_lower_bound(kl),
        )
