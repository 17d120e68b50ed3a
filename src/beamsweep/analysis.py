"""Closed-form detection performance of the per-sector energy test.

The optimal detector compares the beamformed energy statistic against a
fixed threshold; under either hypothesis the statistic is a scaled
chi-squared variable with 2*l_sector degrees of freedom, so both error
probabilities reduce to regularized incomplete gamma evaluations in the
normalized coordinates (l_sector, phi_w). Those come from scipy's
``gammainc``/``gammaincc`` (DiDonato & Morris, ACM TOMS 12 (1986) 377), and a
non-finite result raises ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammainc, gammaincc

from .core import (
    ScenarioConfig,
    h0_threshold_factor,
    h1_threshold_factor,
    make_link_budget,
    make_sweep_plan,
)


class ConvergenceError(RuntimeError):
    """A special-function evaluation returned a non-finite value."""


@dataclass(frozen=True)
class DetectionAnalysis:
    """Closed-form error probabilities and divergence bounds at one operating point.

    The point is sector count ``m`` of a scenario, which fixes the normalized
    coordinates ``l_sector`` and ``phi_w`` that every other field depends on.
    """

    m: int
    l_sector: float
    phi_w: float
    alpha: float
    beta: float
    xi: float
    kl_exact: float
    kl_approx: float
    pinsker_lb: float

    @property
    def pinsker_vacuous(self) -> bool:
        """True when the lower bound is negative and therefore uninformative."""
        return self.pinsker_lb < 0.0


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x) in [0, 1].

    P(a, x) is the CDF at x of a unit-scale gamma distribution with shape a,
    evaluated by ``scipy.special.gammainc``.

    Raises:
        ValueError: if a <= 0, x < 0, or either input is not finite.
        ConvergenceError: if the evaluation is not finite.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"reg_lower_gamma requires finite a > 0, got a={a}")
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"reg_lower_gamma requires finite x >= 0, got x={x}")
    p = float(gammainc(a, x))
    if not math.isfinite(p):
        raise ConvergenceError(f"gammainc returned {p} at a={a}, x={x}")
    return p


def _check_point(l_s: float, phi_w: float) -> None:
    if not (math.isfinite(l_s) and l_s > 0.0):
        raise ValueError(f"l_s must be finite and > 0, got {l_s}")
    if not (math.isfinite(phi_w) and phi_w > 0.0):
        raise ValueError(f"phi_w must be finite and > 0, got {phi_w}")


def false_alarm(l_s: float, phi_w: float) -> float:
    """Probability of declaring a transmission when only noise is present.

    Equals Q(l_s, l_s ln(1+phi)(1+1/phi)), the regularized upper incomplete
    gamma function, evaluated directly so tiny values keep their relative
    accuracy instead of cancelling in 1 - P.
    """
    _check_point(l_s, phi_w)
    x = l_s * h0_threshold_factor(phi_w)
    if x == l_s * h1_threshold_factor(phi_w):
        # SNR below double resolution: both tests share one threshold and one
        # law, so alpha = 1 - beta exactly and xi = 1 marks the blind detector.
        return 1.0 - reg_lower_gamma(l_s, x)
    alpha = float(gammaincc(l_s, x))
    if not math.isfinite(alpha):
        raise ConvergenceError(f"gammaincc returned {alpha} at l_s={l_s}, phi_w={phi_w}")
    return alpha


def miss_detection(l_s: float, phi_w: float) -> float:
    """Probability of declaring silence while the source transmits.

    Equals P(l_s, l_s ln(1+phi)/phi), a lower tail, so tiny values keep
    their relative accuracy.
    """
    _check_point(l_s, phi_w)
    return reg_lower_gamma(l_s, l_s * h1_threshold_factor(phi_w))


def total_error(l_s: float, phi_w: float) -> float:
    """Detection error probability xi = alpha + beta.

    xi = 1 marks a blind detector; the optimal test keeps xi in (0, 1] for
    any positive SNR.
    """
    return false_alarm(l_s, phi_w) + miss_detection(l_s, phi_w)


def kl_divergence_exact(l_s: float, phi_w: float) -> float:
    """KL divergence (nats) from the noise-only to the signal-present law.

    Per observed sample the divergence is ln(1+phi) - phi/(1+phi); the l_s
    samples in a sector are independent, so the total is linear in l_s.
    """
    if not (math.isfinite(l_s) and l_s > 0.0):
        raise ValueError(f"l_s must be finite and > 0, got {l_s}")
    if not (math.isfinite(phi_w) and phi_w >= 0.0):
        raise ValueError(f"phi_w must be finite and >= 0, got {phi_w}")
    if phi_w == 0.0:
        return 0.0
    return l_s * (math.log1p(phi_w) - phi_w / (1.0 + phi_w))


def kl_divergence_approx(cfg: ScenarioConfig, m: int, rho_aw: float) -> float:
    """Small-SNR closed form of the divergence in the raw scenario parameters.

    4 L_t (P_a rho)^2 M / ((sigma^2 theta_t)^2 + 2 P_a rho sigma^2 theta_t M),
    obtained by replacing ln(1+phi) with phi. Note the replacement doubles
    the leading phi^2/2 term, so this overshoots the exact divergence by a
    factor approaching 2 at low SNR; see the tests for the measured ratio.
    """
    if m < 1:
        raise ValueError(f"sector count m must be >= 1, got {m}")
    if not (math.isfinite(rho_aw) and rho_aw > 0.0):
        raise ValueError(f"rho_aw must be finite and > 0, got {rho_aw}")
    signal = cfg.pa_watt * rho_aw
    noise_width = cfg.noise_watt * cfg.theta_t
    return (
        4.0 * cfg.l_total * signal * signal * m
        / (noise_width * noise_width + 2.0 * signal * noise_width * m)
    )


def pinsker_lower_bound(kl: float) -> float:
    """Information-theoretic floor on the detection error: 1 - sqrt(kl/2).

    May be negative, in which case the bound is vacuous; it is reported
    as-is and flagged by DetectionAnalysis.pinsker_vacuous.
    """
    if not (math.isfinite(kl) and kl >= 0.0):
        raise ValueError(f"kl must be finite and >= 0, got {kl}")
    return 1.0 - math.sqrt(kl / 2.0)


def analyze_scenario(cfg: ScenarioConfig, m: int) -> DetectionAnalysis:
    """Evaluate the full closed-form analysis for a scenario at sector count m."""
    plan = make_sweep_plan(cfg, m)
    budget = make_link_budget(cfg, plan)
    alpha = false_alarm(plan.l_sector, budget.phi_w)
    beta = miss_detection(plan.l_sector, budget.phi_w)
    kl = kl_divergence_exact(plan.l_sector, budget.phi_w)
    return DetectionAnalysis(
        m=m,
        l_sector=plan.l_sector,
        phi_w=budget.phi_w,
        alpha=alpha,
        beta=beta,
        xi=alpha + beta,
        kl_exact=kl,
        kl_approx=kl_divergence_approx(cfg, m, budget.rho_aw),
        pinsker_lb=pinsker_lower_bound(kl),
    )
