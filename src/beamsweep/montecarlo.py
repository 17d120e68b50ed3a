"""Empirical validation of the closed-form error probabilities.

Simulates the energy test directly in the one-dimensional beamspace
projection: the decision statistic depends on the channel only through its
norm, so each trial needs l_sector complex Gaussian samples rather than an
antenna-sized vector, and is exact in distribution. Half the squared modulus
of a unit complex Gaussian is Exp(1), so the normalized statistic, a sum of
l_sector unit exponentials, is exactly Gamma(l_sector) under the noise-only
hypothesis and (1 + phi_w) times that with the signal present. Each trial is
therefore one ``standard_gamma`` draw (Marsaglia & Tsang, ACM TOMS 26 (2000)
363), whose cost does not grow with l_sector. Both hypotheses are compared
with the closed forms' H0 threshold, from the same kernel
(``core._threshold_factors``).

Determinism contract: each (seed, hypothesis) keys one counter-based (Philox)
stream, and trial i is draw i of that stream. numpy fills arrays from a
stream sequentially, so results are bit-identical for any chunking and a
trial does not depend on the trial count. The bytes are stable for a fixed
numpy version; numpy may change its Generator streams between versions
(NEP 19).

A cell is (l_s, phi_w), the closed forms' coordinates, and one ``McConfig``
(trials, seed) serves every cell of an ``estimate_cells`` call. A stream's
draws depend on l_s and the hypothesis alone; phi_w only scales the H1
draws. So the cells of one call that share l_s are counted from one draw of
each hypothesis' stream (common random numbers), each against its own
threshold, and every cell gets the counts, and so the bytes, it gets alone.

The streams share no state (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011), so ``estimate_cells`` runs every distinct stream of a
call concurrently, one thread per usable CPU: numpy draws and compares
without holding the GIL. Each stream's event counts are gathered by its
position in the call and handed back to its cells, so the bytes do not
depend on the number of CPUs or on the order in which the threads finish.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import _threshold_factors

_CI_Z = 1.96  # 95% Wilson score interval
# Trials per chunk: 128 KB of statistics, for any l_s. A chunk is drawn once
# and counted against every cell that shares its stream; under H1 each cell
# scales it into a 128 KB temporary.
_CHUNK_TRIALS = 1 << 14
# Fixed odd increment for the single reseeded retry, so retries reproduce too.
RETRY_SEED_STEP = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run parameters shared by every cell of a call: trials per hypothesis, seed."""

    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Empirical error probabilities with 95% Wilson score half-widths."""

    alpha_hat: float
    beta_hat: float
    ci_halfwidth_alpha: float
    ci_halfwidth_beta: float


def retry_seed(seed: int) -> int:
    """Deterministic replacement seed used for the one permitted rerun."""
    return (seed + RETRY_SEED_STEP) % 2 ** 64


def _simulate_batch(
    l_s: int, under_h1: bool, mc: McConfig, chunk: int = _CHUNK_TRIALS
) -> Iterator[np.ndarray]:
    """Gamma(l_s) draws for trials [0, mc.trials), yielded ``chunk`` trials at a time.

    These are the noise-only statistics; a cell with the signal present
    scales them by 1 + phi_w. Trial i is draw i of the (seed, hypothesis)
    stream, so the concatenated draws do not depend on the chunk size. Each
    chunk is a fresh array, and only one is held at a time.
    """
    key = np.array([mc.seed, 1 if under_h1 else 0], dtype=np.uint64)
    rng = Generator(Philox(key=key))
    for start in range(0, mc.trials, chunk):
        yield rng.standard_gamma(float(l_s), size=min(chunk, mc.trials - start))


def _wilson_halfwidth(p_hat: float, n: int) -> float:
    """Half-width of the Wilson score interval; positive even at p_hat = 0 or 1."""
    z2 = _CI_Z * _CI_Z
    spread = p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)
    return _CI_Z / (1.0 + z2 / n) * math.sqrt(spread)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _threshold(l_s: int, phi_w: float) -> float:
    """The raw test threshold of a cell, shared by both hypotheses.

    In the normalized statistic this is l_s ln(1+phi)(1+1/phi); the inflated
    signal-present variance is what turns it into l_s ln(1+phi)/phi relative
    to that hypothesis' own scale. It comes from the threshold kernel the
    closed forms use, so it equals their H0 threshold bit for bit.
    """
    if l_s < 1:
        raise ValueError(f"l_s must be >= 1, got {l_s}")
    if not (math.isfinite(phi_w) and phi_w > 0.0):
        raise ValueError(
            f"phi_w must be finite and > 0 to simulate the signal-present "
            f"hypothesis, got {phi_w}"
        )
    return l_s * _threshold_factors(math.log1p(phi_w), phi_w)[0]


def _count_events(job: tuple[int, bool, McConfig, list[tuple[int, float, float]]]) -> list[int]:
    """Trials of one stream that end in a decision error, for each cell it serves.

    The job is (l_s, under_h1, mc, members), with the (slot, phi_w,
    threshold) of each cell that shares the stream. Each chunk is drawn once
    and counted against every member: a false alarm under H0 is a statistic
    above the threshold, a miss under H1 a scaled statistic at or below it.
    Only the counts are kept, so memory stays bounded in the trials. It runs
    on a pool thread, so it calls no function bound from another module of
    the package, whose wrappers (a profiler's) need not be thread-safe.
    """
    l_s, under_h1, mc, members = job
    counts = [0] * len(members)
    # Near the float limit of phi_w a scaled statistic overflows to inf, which
    # still compares above any finite threshold.
    with np.errstate(over="ignore"):
        for stats in _simulate_batch(l_s, under_h1, mc):
            for k, (_, phi_w, threshold) in enumerate(members):
                if under_h1:
                    # The chunk is shared, so each cell scales a temporary: the
                    # same product as scaling the chunk in place.
                    counts[k] += np.count_nonzero(stats * (1.0 + phi_w) <= threshold)
                else:
                    counts[k] += np.count_nonzero(stats > threshold)
    return counts


def estimate_cells(cells: Sequence[tuple[int, float]], mc: McConfig) -> list[McEstimate]:
    """Both error probabilities of each (l_s, phi_w) cell by direct simulation, in order.

    Both hypotheses of a cell are compared against the same raw threshold
    (see ``_threshold``), and every cell runs ``mc.trials`` trials of each
    hypothesis from ``mc.seed``. Every cell is checked before any stream
    starts. The cells that share l_s share their two streams, so each
    distinct (l_s, hypothesis) stream is one job, ordered by its first cell.
    The jobs run on a thread pool opened for this call, with one worker per
    usable CPU and no more workers than jobs. The first job to fail, in cell
    order, raises here as it would from a loop over the cells; the jobs not
    yet started are cancelled, and no pool thread outlives the call.
    """
    # Each stream's key, with the (slot, phi_w, threshold) of every cell it
    # serves; slot 2i holds cell i's false alarms, slot 2i + 1 its misses.
    streams: dict[tuple[int, bool], list[tuple[int, float, float]]] = {}
    for index, (l_s, phi_w) in enumerate(cells):
        threshold = _threshold(l_s, phi_w)
        for under_h1 in (False, True):
            streams.setdefault((l_s, under_h1), []).append((2 * index + under_h1, phi_w, threshold))
    if not streams:
        return []
    jobs = [(*key, mc, members) for key, members in streams.items()]
    # Imported here, so that the commands that run no Monte Carlo do not pay
    # for the thread pool module and its queue (about 0.5 ms and 0.2 MB).
    from concurrent.futures import ThreadPoolExecutor

    counts = [0] * (2 * len(cells))
    pool = ThreadPoolExecutor(max_workers=min(len(jobs), _usable_cpus()))
    try:
        # map yields the counts in job order, whichever thread finishes first.
        for (*_, members), job_counts in zip(jobs, pool.map(_count_events, jobs)):
            for (slot, _, _), count in zip(members, job_counts):
                counts[slot] = count
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    # The counts are numpy integers; the rates are Python floats.
    n = mc.trials
    rates = [float(count) / n for count in counts]
    return [
        McEstimate(alpha, beta, _wilson_halfwidth(alpha, n), _wilson_halfwidth(beta, n))
        for alpha, beta in zip(rates[0::2], rates[1::2])
    ]
