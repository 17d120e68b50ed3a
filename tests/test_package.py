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
    )
    for name in removed:
        assert name not in beamsweep.__all__
        assert not hasattr(beamsweep, name)
        assert not hasattr(beamsweep.core, name)
    assert not hasattr(beamsweep.core, "_checked_threshold_factors")
    parameters = inspect.signature(beamsweep.kl_divergence_approx).parameters
    assert list(parameters) == ["cfg", "m"]


def test_fields_only_tests_read_are_gone():
    def fields(cls):
        return {field.name for field in dataclasses.fields(cls)}

    assert fields(beamsweep.SweepPlan) == {"m_sectors", "l_sector", "phi_w"}
