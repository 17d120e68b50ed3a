import dataclasses

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
    )
    for name in removed:
        assert name not in beamsweep.__all__
        assert not hasattr(beamsweep, name)


def test_fields_only_tests_read_are_gone():
    def fields(cls):
        return {field.name for field in dataclasses.fields(cls)}

    assert fields(beamsweep.SweepPlan).isdisjoint({"sector_width", "m_max"})
    assert "eta" not in fields(beamsweep.LinkBudget)
