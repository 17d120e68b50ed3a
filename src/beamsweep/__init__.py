"""Detection error analysis for beam-sweeping surveillance of a covert transmitter.

A warden with an antenna array sweeps a narrow beam across the angular range
where a low-power source may be hiding. Splitting the range into more sectors
buys beamforming gain but costs dwell time per sector; this package computes
the resulting detection error probability in closed form, bounds it through
the KL divergence, finds the optimal sector count, and cross-checks the
closed forms by deterministic Monte Carlo simulation.
"""

from .analysis import (
    ConvergenceError,
    DetectionAnalysis,
    analyze_scenario,
    false_alarm,
    kl_divergence_approx,
    kl_divergence_exact,
    miss_detection,
    pinsker_lower_bound,
    reg_lower_gamma,
    total_error,
)
from .core import (
    LinkBudget,
    ScenarioConfig,
    SweepPlan,
    dbm_to_watt,
    h0_threshold_factor,
    h1_threshold_factor,
    make_link_budget,
    make_sweep_plan,
    path_loss,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    estimate_errors,
    retry_seed,
)
from .optimizer import SweepCurve, sweep_sectors
from .presets import fig2_config, fig3_config

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DetectionAnalysis",
    "LinkBudget",
    "McConfig",
    "McEstimate",
    "ScenarioConfig",
    "SweepCurve",
    "SweepPlan",
    "analyze_scenario",
    "dbm_to_watt",
    "estimate_errors",
    "false_alarm",
    "fig2_config",
    "fig3_config",
    "h0_threshold_factor",
    "h1_threshold_factor",
    "kl_divergence_approx",
    "kl_divergence_exact",
    "make_link_budget",
    "make_sweep_plan",
    "miss_detection",
    "path_loss",
    "pinsker_lower_bound",
    "reg_lower_gamma",
    "retry_seed",
    "sweep_sectors",
    "total_error",
]
