import beamsweep


def test_public_names_resolve_and_removed_names_are_gone():
    assert all(hasattr(beamsweep, name) for name in beamsweep.__all__)
    for name in ("GammaEval", "gamma_eval", "log_gamma", "SweepEntry"):
        assert name not in beamsweep.__all__
        assert not hasattr(beamsweep, name)
