import ast
import dataclasses
import inspect
import re
from pathlib import Path

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
    # A point's check and thresholds are one call, analysis._cell, and the
    # small-SNR divergence has no private twin of kl_divergence_approx.
    assert not hasattr(beamsweep.analysis, "_point")
    assert not hasattr(beamsweep.analysis, "_kl_approx")
    assert not hasattr(beamsweep.montecarlo, "_point")
    assert not hasattr(beamsweep.montecarlo, "_thresholds")
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


def test_every_ci_selection_term_names_a_test():
    # A -k term that names no test would leave an "or" selection green while
    # it quietly runs fewer tests.
    root = Path(__file__).resolve().parent.parent
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    selections = re.findall(r'pytest .*?(tests/\S+\.py) .*?-k "([^"]+)"', workflow)
    assert selections
    for path, expression in selections:
        tree = ast.parse((root / path).read_text())
        names = [
            node.name.lower()
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name.lower().startswith("test")
        ]
        for term in re.split(r"\s+(?:or|and)\s+|\bnot\s+|[()]", expression):
            if term.strip():
                assert any(term.strip().lower() in name for name in names), (path, term)


def test_the_monte_carlo_runs_on_the_one_job_runner():
    # Threads, their claim lock and their joins live in core.run_jobs alone.
    tree = ast.parse(inspect.getsource(beamsweep.montecarlo))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "threading" not in imported
    assert beamsweep.montecarlo.run_jobs is beamsweep.core.run_jobs
