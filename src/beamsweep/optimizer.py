"""Exhaustive search for the sector count that minimizes the detection error.

The feasible range [1, m_max] is at most a few thousand integers and the
error curve is only empirically unimodal, so every candidate is evaluated
rather than trusting a bracketing search. The whole curve is one array
evaluation of the closed forms, ``analyze_scenario`` over every sector count,
and its element at m equals ``analyze_scenario`` at that sector count alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import DetectionAnalysis, analyze_scenario
from .core import ScenarioConfig


@dataclass(frozen=True)
class SweepCurve:
    """Error curve over every feasible sector count, with its minimizer.

    ``analysis`` holds one array per field over m = 1..m_max. Ties are broken
    toward the smallest sector count (fewer sectors means a shorter physical
    sweep).
    """

    analysis: DetectionAnalysis
    m_star: int
    xi_star: float


def sweep_sectors(cfg: ScenarioConfig) -> SweepCurve:
    """Evaluate the detection error at every m in [1, m_max] and locate the minimum."""
    m_max = cfg.m_max
    if m_max < 1:
        raise ValueError(
            f"no feasible sector count: floor(n_antennas * theta_t / 2) = {m_max}"
        )
    analysis = analyze_scenario(cfg, np.arange(1, m_max + 1))
    # argmin returns the first of equal values, i.e. the smallest m.
    best = int(np.argmin(analysis.xi))
    return SweepCurve(
        analysis=analysis, m_star=int(analysis.m[best]), xi_star=float(analysis.xi[best])
    )
