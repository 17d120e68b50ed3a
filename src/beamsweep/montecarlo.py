"""Empirical validation of the closed-form error probabilities.

Simulates the energy test directly in the one-dimensional beamspace
projection: the decision statistic depends on the channel only through its
norm, so each trial needs l_sector complex Gaussian samples rather than an
antenna-sized vector, and is exact in distribution. Half the squared modulus
of a unit complex Gaussian is Exp(1), so the normalized statistic, a sum of
l_sector unit exponentials, is exactly Gamma(l_sector) under the noise-only
hypothesis and (1 + phi_w) times that with the signal present. Each trial is
therefore one ``standard_gamma`` draw (Marsaglia & Tsang, ACM TOMS 26 (2000)
363), whose cost does not grow with l_sector.

Determinism contract: each (seed, hypothesis) keys one counter-based (Philox)
stream, and trial i is draw i of that stream. numpy fills arrays from a
stream sequentially, so results are bit-identical for any chunking and a
trial does not depend on the trial count. The bytes are stable for a fixed
numpy version; numpy may change its Generator streams between versions
(NEP 19).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import h0_threshold_factor

_CI_Z = 1.96  # 95% Wilson score interval
# Trials per chunk: 512 KB of statistics, for any l_s.
_CHUNK_TRIALS = 1 << 16
# Fixed odd increment for the single reseeded retry, so retries reproduce too.
RETRY_SEED_STEP = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run parameters: trials per hypothesis, seed, integer l_sector."""

    trials: int
    seed: int
    l_sector_int: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.l_sector_int < 1:
            raise ValueError(f"l_sector_int must be >= 1, got {self.l_sector_int}")


@dataclass(frozen=True)
class McEstimate:
    """Empirical error probabilities with 95% Wilson score half-widths."""

    alpha_hat: float
    beta_hat: float
    xi_hat: float
    trials: int
    ci_halfwidth_alpha: float
    ci_halfwidth_beta: float


def retry_seed(seed: int) -> int:
    """Deterministic replacement seed used for the one permitted rerun."""
    return (seed + RETRY_SEED_STEP) % 2 ** 64


def _simulate_batch(
    l_s: int,
    phi_w: float,
    under_h1: bool,
    seed: int,
    trials: int,
    chunk: int = _CHUNK_TRIALS,
) -> Iterator[np.ndarray]:
    """Statistics for trials [0, trials), yielded ``chunk`` trials at a time.

    Trial i is draw i of the (seed, hypothesis) stream, so the concatenated
    statistics do not depend on the chunk size. Each chunk is a fresh array,
    and only one is held at a time.
    """
    key = np.array([seed, 1 if under_h1 else 0], dtype=np.uint64)
    rng = Generator(Philox(key=key))
    for start in range(0, trials, chunk):
        stats = rng.standard_gamma(float(l_s), size=min(chunk, trials - start))
        if under_h1:
            # Near the float limit of phi_w a statistic overflows to inf, which
            # still compares above any finite threshold.
            with np.errstate(over="ignore"):
                stats *= 1.0 + phi_w
        yield stats


def _wilson_halfwidth(p_hat: float, n: int) -> float:
    """Half-width of the Wilson score interval; positive even at p_hat = 0 or 1."""
    z2 = _CI_Z * _CI_Z
    spread = p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)
    return _CI_Z / (1.0 + z2 / n) * math.sqrt(spread)


def estimate_errors(phi_w: float, mc: McConfig) -> McEstimate:
    """Estimate both error probabilities by direct simulation.

    Both hypotheses are compared against the same raw threshold; in the
    normalized statistic this is l_s ln(1+phi)(1+1/phi), and the inflated
    signal-present variance is what turns it into l_s ln(1+phi)/phi relative
    to that hypothesis' own scale.
    """
    if not (math.isfinite(phi_w) and phi_w > 0.0):
        raise ValueError(
            f"phi_w must be finite and > 0 to simulate the signal-present "
            f"hypothesis, got {phi_w}"
        )
    l_s = mc.l_sector_int
    threshold = l_s * h0_threshold_factor(phi_w)
    # Only the event counts are kept, so memory stays bounded in the trials.
    false_alarms = sum(
        np.count_nonzero(stats > threshold)
        for stats in _simulate_batch(l_s, phi_w, False, mc.seed, mc.trials)
    )
    misses = sum(
        np.count_nonzero(stats <= threshold)
        for stats in _simulate_batch(l_s, phi_w, True, mc.seed, mc.trials)
    )
    alpha_hat = float(false_alarms) / mc.trials
    beta_hat = float(misses) / mc.trials
    return McEstimate(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        xi_hat=alpha_hat + beta_hat,
        trials=mc.trials,
        ci_halfwidth_alpha=_wilson_halfwidth(alpha_hat, mc.trials),
        ci_halfwidth_beta=_wilson_halfwidth(beta_hat, mc.trials),
    )
