"""Empirical validation of the closed-form error probabilities.

Simulates the energy test directly in the one-dimensional beamspace
projection: the decision statistic depends on the channel only through its
norm, so each trial needs l_sector complex Gaussian samples rather than an
antenna-sized vector, and is exact in distribution. Half the squared modulus
of a unit complex Gaussian is Exp(1), so each sample's normalized energy is
drawn directly as -log1p(-U) from one uniform U.

Determinism contract: every trial owns a fixed window of a counter-based
(Philox) stream keyed by (seed, hypothesis), and each sample consumes exactly
one uniform, so the word consumption per trial is constant. Results are
therefore bit-identical for any chunking.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.random import Generator, Philox

from .core import h0_threshold_factor

_CI_Z = 1.96  # 95% Wilson score interval
# Uniforms drawn per chunk: bounds peak memory for any l_s.
_CHUNK_ELEMENTS = 1 << 18
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


def _blocks_per_trial(l_s: int) -> int:
    # l_s uniforms per trial, rounded up to whole 4-word Philox blocks.
    return (l_s + 3) // 4


def _statistics(uniforms: np.ndarray, phi_w: float, under_h1: bool) -> np.ndarray:
    """Normalized energy statistics from one (trials, l_s) block of uniforms.

    Each sample's energy -log1p(-U) is computed in place, so ``uniforms`` is
    overwritten. Under the noise-only hypothesis each statistic is a sum of
    l_s unit exponentials (mean l_s); with the signal present the per-sample
    variance grows to 1 + phi_w, which scales the sum.
    """
    np.log1p(np.negative(uniforms, out=uniforms), out=uniforms)
    stats = -uniforms.sum(axis=1)
    if under_h1:
        # Near the float limit of phi_w a statistic overflows to inf, which
        # still compares above any finite threshold.
        with np.errstate(over="ignore"):
            stats *= 1.0 + phi_w
    return stats


def _simulate_batch(
    l_s: int,
    phi_w: float,
    under_h1: bool,
    seed: int,
    trials: int,
    chunk: int | None = None,
) -> Iterator[np.ndarray]:
    """Statistics for trials [0, trials), yielded one chunk at a time.

    ``chunk`` is the number of trials per chunk; by default a chunk holds
    about _CHUNK_ELEMENTS uniforms. A trial wider than that is a chunk of its
    own, drawn in pieces of _CHUNK_ELEMENTS uniforms, each from its own
    window of the trial's stream, and its statistic is the sum over the
    pieces. The concatenated statistics do not depend on the chunk size, and
    only one chunk or piece is held at a time.
    """
    blocks = _blocks_per_trial(l_s)
    piece = min(4 * blocks, _CHUNK_ELEMENTS)
    if chunk is None or piece < 4 * blocks:
        chunk = _CHUNK_ELEMENTS // piece
    key = np.array([seed, 1 if under_h1 else 0], dtype=np.uint64)
    buffer = np.empty((min(chunk, trials), piece))
    for start in range(0, trials, chunk):
        n = min(chunk, trials - start)
        pieces = []
        for offset in range(0, l_s, piece):
            bits = Philox(key=key)
            bits.advance(start * blocks + offset // 4)
            uniforms = Generator(bits).random(out=buffer[:n])[:, : min(piece, l_s - offset)]
            pieces.append(_statistics(uniforms, phi_w, under_h1))
        yield reduce(np.add, pieces)


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
