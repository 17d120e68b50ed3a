"""Empirical validation of the closed-form error probabilities.

Simulates the energy test directly in the one-dimensional beamspace
projection: the decision statistic depends on the channel only through its
norm, so each trial needs l_sector complex Gaussian samples rather than an
antenna-sized vector, and is exact in distribution. Half the squared modulus
of a unit complex Gaussian is Exp(1), so the normalized statistic, a sum of
l_sector unit exponentials, is exactly Gamma(l_sector) under the noise-only
hypothesis and (1 + phi_w) times that with the signal present. Each trial is
therefore one ``standard_gamma`` draw (Marsaglia & Tsang, ACM TOMS 26 (2000)
363), whose cost does not grow with l_sector. A sector's dwell l_total / m
need not be whole: the closed forms read it as Gamma(l_sector) at real
shape, and ``standard_gamma`` draws that law at any shape > 0, so the
simulation checks the cell the curve writes. The signal-present statistic
lies at or below the H0 threshold x0 exactly when its Gamma(l_sector) draw
lies at or below x0 / (1 + phi_w), the H1 threshold x1. So a false alarm is
a draw above x0 and a miss a draw at or below x1: the events whose
probabilities Q(l_sector, x0) and P(l_sector, x1) the closed forms give, with
x0 and x1 from ``analysis._cell``.

Determinism contract: the seed keys one stream per dwell, shared by both
hypotheses, cut into substreams of ``_CHUNK_TRIALS`` trials. Chunk c covers
trials [c * 2**14, (c + 1) * 2**14); its substream is an SFC64 generator
seeded by ``SeedSequence(seed, spawn_key=(c,))``, which is numpy's c-th
child of ``SeedSequence(seed)``: ``SeedSequence(seed).spawn(c + 1)[c]``.
Trial i is draw i mod 2**14 of chunk i // 2**14's substream. numpy fills an
array from a substream sequentially, so a trial does not depend on the trial
count, and no chunk depends on another. The chunk size and the bit generator
are part of the contract, not settings. The bytes are stable for a fixed
numpy version; numpy may change its Generator streams between versions
(NEP 19).

A cell is (l_s, phi_w), the closed forms' coordinates, and one ``McConfig``
(trials, seed) serves every cell of an ``estimate_cells`` call. Both
hypotheses count from the same draws, so a stream's draws depend on l_s
alone (common random numbers): each chunk is drawn once and every cell of
its dwell counts its false alarms and its misses from it, each against its
own thresholds. A cell gets the counts, and so the bytes, it gets alone.

Each substream is a generator of its own, built from the seed and its chunk
index alone: SeedSequence hashes each spawn key into its own SFC64 state,
numpy's documented way to seed parallel streams. Substreams that share no
state (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
2011) make every (dwell, chunk) of a call a job of its own, and any thread
can run any job. ``estimate_cells`` runs them on the package's one job
runner, ``core.run_jobs``: the calling thread plus helper threads started
for the call, one worker per usable CPU and no more workers than jobs, since
numpy draws and compares without holding the GIL. Each worker claims the
next job in index order and adds its event counts to its own integer
totals, so integer sums make the bytes the same for any number of CPUs and
any thread schedule.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .analysis import _cell
from .core import as_floats, run_jobs

_CI_Z = 1.96  # 95% Wilson score interval
# Trials per chunk, and so per substream: 128 KB of statistics, for any l_s.
_CHUNK_TRIALS = 1 << 14
# Fixed odd increment for the single reseeded retry, so retries reproduce too.
RETRY_SEED_STEP = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run parameters shared by every cell of a call: trials per hypothesis, seed."""

    trials: int
    seed: int

    def __post_init__(self) -> None:
        # Any integer, numpy's included, is stored as a Python int.
        for name in ("trials", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value}") from None
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


def _chunk_draws(l_s: float, seed: int, chunk: int, size: int = _CHUNK_TRIALS) -> np.ndarray:
    """The first ``size`` Gamma(l_s) draws of chunk ``chunk``'s substream.

    These are the noise-only statistics of trials [chunk * _CHUNK_TRIALS,
    chunk * _CHUNK_TRIALS + size), which both hypotheses count from. The
    substream is SFC64 seeded by the seed's child sequence with spawn key
    ``(chunk,)``, the same as ``SeedSequence(seed).spawn(chunk + 1)[chunk]``.
    """
    bit_generator = SFC64(SeedSequence(seed, spawn_key=(chunk,)))
    return Generator(bit_generator).standard_gamma(float(l_s), size)


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


def _count_events(
    job: tuple[float, int, McConfig, list[tuple[int, float, float]]]
) -> list[tuple[int, int]]:
    """(false alarms, misses) in one chunk of one dwell, for each cell it serves.

    The job is (l_s, chunk, mc, members), with the (cell, x0, x1) of each
    cell of the dwell. The chunk is drawn once: a false alarm is a draw
    above a member's x0, a miss a draw at or below its x1. It runs on the
    calling thread or a helper thread, so it calls no function bound from
    another module of the package, whose wrappers (a profiler's) need not be
    thread-safe.
    """
    l_s, chunk, mc, members = job
    start = chunk * _CHUNK_TRIALS
    stats = _chunk_draws(l_s, mc.seed, chunk, min(_CHUNK_TRIALS, mc.trials - start))
    return [
        (np.count_nonzero(stats > x0), np.count_nonzero(stats <= x1))
        for _, x0, x1 in members
    ]


def estimate_cells(cells: Sequence[tuple[float, float]], mc: McConfig) -> list[McEstimate]:
    """Both error probabilities of each (l_s, phi_w) cell by direct simulation, in order.

    The cells' check and thresholds are the closed forms' (``_cell``), in
    one array call, so any finite l_s > 0 is simulated at its real shape.
    Every cell runs ``mc.trials`` trials from ``mc.seed``, and every cell is
    checked, on the calling thread, before any job starts: every l_s before
    any phi_w, as in the closed forms. Each
    distinct checked l_s, a float, is one stream, and each of its chunks one
    job; the jobs are ordered by the dwell's first cell, then by chunk, and a
    job's index maps to its (dwell, chunk) by division, so no job list is
    built.
    ``run_jobs`` runs the jobs on the calling thread and one helper thread
    per further usable CPU, and raises the first job to fail, in that order,
    as a loop over the jobs would; no job starts after a failure, and no
    helper thread outlives the call, an interrupt included. A worker holds
    one chunk at a time, so memory grows with the workers, not the trials.
    """
    l_s, _, _, x0, x1 = _cell(*as_floats(cells).reshape(len(cells), 2).T)
    # The (cell, x0, x1) of every cell of each distinct checked dwell.
    dwells: dict[float, list[tuple[int, float, float]]] = {}
    for index, (dwell, *thresholds) in enumerate(zip(l_s.tolist(), x0.tolist(), x1.tolist())):
        dwells.setdefault(dwell, []).append((index, *thresholds))
    streams = list(dwells.items())
    chunks = -(-mc.trials // _CHUNK_TRIALS)
    jobs = len(streams) * chunks

    def count(totals: list[int], job: int) -> None:
        stream, chunk = divmod(job, chunks)
        l_s, members = streams[stream]
        counts = _count_events((l_s, chunk, mc, members))
        for (cell, _, _), (alarms, misses) in zip(members, counts):
            totals[2 * cell] += alarms
            totals[2 * cell + 1] += misses

    # Worker w's totals: slot 2i holds cell i's false alarms, slot 2i + 1 its misses.
    per_worker = [[0] * (2 * len(cells)) for _ in range(min(jobs, _usable_cpus()))]
    run_jobs(jobs, count, per_worker)
    # The counts are numpy integers; the rates are Python floats.
    n = mc.trials
    rates = [float(sum(slot)) / n for slot in zip(*per_worker)]
    return [
        McEstimate(alpha, beta, _wilson_halfwidth(alpha, n), _wilson_halfwidth(beta, n))
        for alpha, beta in zip(rates[0::2], rates[1::2])
    ]
