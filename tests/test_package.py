import dataclasses
import inspect

import beamsweep


def test_public_names_resolve_and_removed_names_are_gone():
    assert all(hasattr(beamsweep, name) for name in beamsweep.__all__)
    removed = (
        "GammaEval",
        "gamma_eval",
        "log_gamma",
        "SweepEntry",
        "analyze_sectors",
        "watt_to_dbm",
        "LinkBudget",
        "make_link_budget",
        "h0_threshold_factor",
        "h1_threshold_factor",
        "estimate_errors",
        "_threshold_factors",  # folded into analysis._thresholds
        "_cell_thresholds",  # a cell's one check and thresholds are analysis's
    )
    for name in removed:
        assert name not in beamsweep.__all__
        assert not hasattr(beamsweep, name)
        assert not hasattr(beamsweep.core, name)
        assert not hasattr(beamsweep.montecarlo, name)
    assert not hasattr(beamsweep.core, "_checked_threshold_factors")
    # One stream per dwell, cut into chunk substreams: no per-hypothesis draw.
    assert not hasattr(beamsweep.montecarlo, "_simulate_batch")
    parameters = inspect.signature(beamsweep.kl_divergence_approx).parameters
    assert list(parameters) == ["cfg", "m"]
    # One run config per call, and cells in the closed forms' (l_s, phi_w).
    parameters = inspect.signature(beamsweep.estimate_cells).parameters
    assert list(parameters) == ["cells", "mc"]


def test_fields_only_tests_read_are_gone():
    def fields(cls):
        return {field.name for field in dataclasses.fields(cls)}

    # Per call, not per cell: the dwell is the cell's own l_s.
    assert fields(beamsweep.McConfig) == {"trials", "seed"}
    # trials echoed the input, and xi_hat is alpha_hat + beta_hat.
    assert fields(beamsweep.McEstimate) == {
        "alpha_hat", "beta_hat", "ci_halfwidth_alpha", "ci_halfwidth_beta"
    }
