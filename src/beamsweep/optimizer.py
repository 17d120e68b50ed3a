"""Exhaustive search for the sector count that minimizes the detection error.

The feasible range [1, m_max] is at most a few thousand integers and the
error curve is only empirically unimodal, so every candidate is evaluated
rather than trusting a bracketing search. The whole curve is one array
evaluation of the closed forms (``analyze_sectors``), and each of its
entries equals ``analyze_scenario`` at that sector count.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .analysis import DetectionAnalysis, analyze_sectors
from .core import ScenarioConfig


@dataclass(frozen=True)
class SweepCurve:
    """Error curve over every feasible sector count, with its minimizer.

    Ties are broken toward the smallest sector count (fewer sectors means a
    shorter physical sweep).
    """

    entries: tuple[DetectionAnalysis, ...]
    m_star: int
    xi_star: float


def sweep_sectors(cfg: ScenarioConfig) -> SweepCurve:
    """Evaluate the detection error at every m in [1, m_max] and locate the minimum."""
    m_max = cfg.m_max
    if m_max < 1:
        raise ValueError(
            f"no feasible sector count: floor(n_antennas * theta_t / 2) = {m_max}"
        )
    entries = analyze_sectors(cfg, np.arange(1, m_max + 1))
    # min keeps the first of equal values, i.e. the smallest m.
    best = min(entries, key=attrgetter("xi"))
    return SweepCurve(entries=entries, m_star=best.m, xi_star=best.xi)
