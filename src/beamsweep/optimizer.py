"""Exhaustive search for the sector count that minimizes the detection error.

The error curve over the feasible range [1, m_max] is only empirically
unimodal, so every candidate is evaluated rather than trusting a bracketing
search. m_max grows with the array (549,033 on fig3 with 2**20 antennas),
and the whole curve is one array evaluation of the closed forms,
``analyze_scenario`` over every sector count, held in memory at once; its
element at m equals ``analyze_scenario`` at that sector count alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import DetectionAnalysis, analyze_scenario
from .core import ScenarioConfig, fields_equal


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

    __eq__ = fields_equal


def sweep_sectors(cfg: ScenarioConfig) -> SweepCurve:
    """Evaluate the detection error at every m in [1, m_max] and locate the minimum."""
    m_max = cfg.m_max
    if m_max < 1:
        raise ValueError(
            f"no feasible sector count: floor(n_antennas * theta_t / 2) = {m_max}"
        )
    if m_max > np.iinfo(np.intp).max:
        raise ValueError(
            f"too many sector counts to sweep: floor(n_antennas * theta_t / 2) = {m_max} "
            f"exceeds {np.iinfo(np.intp).max}"
        )
    analysis = analyze_scenario(cfg, np.arange(1, m_max + 1))
    # argmin returns the first of equal values, i.e. the smallest m.
    best = int(np.argmin(analysis.xi))
    return SweepCurve(
        analysis=analysis, m_star=int(analysis.m[best]), xi_star=float(analysis.xi[best])
    )
