import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from beamsweep import ConvergenceError, analysis, cli, csvrows, montecarlo, presets
from beamsweep.analysis import DetectionAnalysis, analyze_scenario
from beamsweep.cli import main
from beamsweep.optimizer import SweepCurve
from beamsweep.presets import (
    ConfigError,
    build_scenario,
    dump_config_text,
    load_config_values,
)
from beamsweep.core import ScenarioConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
FIG2_CFG = str(REPO_ROOT / "configs" / "fig2.cfg")
FIG3_CFG = str(REPO_ROOT / "configs" / "fig3.cfg")
FIELDS = [field.name for field in dataclasses.fields(DetectionAnalysis)]


# The validate columns that a curve row also writes, each with the curve's name for it.
CURVE_CELLS = {"l_s": "l_sector", "phi_w": "phi_w", "alpha": "alpha", "beta": "beta", "xi": "xi"}


def csv_rows(path) -> list[dict[str, str]]:
    """The data rows of a CSV file, each as {column: cell text}."""
    header, *rows = Path(path).read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def as_curve_cells(validate_row: dict[str, str]) -> dict[str, str]:
    """The cells of a validate row that a curve row writes, under the curve's names."""
    return {curve: validate_row[column] for column, curve in CURVE_CELLS.items()}


def curve_cells(curve_row: dict[str, str]) -> dict[str, str]:
    """The cells of a curve or analyze row that validate also writes."""
    return {column: curve_row[column] for column in CURVE_CELLS.values()}


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


GOOD_CONFIG = """\
# comment line
pa_dbm=10
noise_dbm=-50
theta_t=1.0471975511965976
n_antennas=128
l_total=32
d_aw=50   # trailing comment
path_exp=2
carrier_hz=2.4e9
"""


class TestConfigParsing:
    def test_shipped_presets_parse_to_library_presets(self):
        assert build_scenario(load_config_values(FIG2_CFG)) == presets.fig2_config()
        assert build_scenario(load_config_values(FIG3_CFG)) == presets.fig3_config()
        assert load_config_values(FIG2_CFG) == presets.PRESET_VALUES["fig2"]
        assert load_config_values(FIG3_CFG) == presets.PRESET_VALUES["fig3"]

    def test_good_config(self, tmp_path):
        cfg = build_scenario(load_config_values(write_config(tmp_path, GOOD_CONFIG)))
        assert isinstance(cfg, ScenarioConfig)
        assert cfg == presets.fig3_config()

    def test_defaults_filled(self, tmp_path):
        text = "\n".join(
            line for line in GOOD_CONFIG.splitlines() if not line.startswith(("path_exp", "carrier_hz"))
        )
        cfg = build_scenario(load_config_values(write_config(tmp_path, text)))
        assert cfg.path_exp == 2.0
        assert cfg.carrier_hz == 2.4e9

    @pytest.mark.parametrize(
        "key", ["pa_dbm", "noise_dbm", "theta_t", "n_antennas", "l_total", "d_aw"]
    )
    def test_missing_required_key_named(self, tmp_path, key):
        text = "\n".join(
            line for line in GOOD_CONFIG.splitlines() if not line.startswith(f"{key}=")
        )
        with pytest.raises(ConfigError, match=f"^missing required key '{key}'$"):
            build_scenario(load_config_values(write_config(tmp_path, text)))

    def test_invariant_violation_cited(self, tmp_path):
        text = GOOD_CONFIG.replace("theta_t=1.0471975511965976", "theta_t=3.0")
        with pytest.raises(ValueError, match="theta_t"):
            build_scenario(load_config_values(write_config(tmp_path, text)))

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG + "bandwidth=1e6\n")
        with pytest.raises(ConfigError, match=r":10: unknown key 'bandwidth'"):
            load_config_values(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG + "pa_dbm=11\n")
        with pytest.raises(ConfigError, match="duplicate key 'pa_dbm'"):
            load_config_values(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = write_config(tmp_path, "pa_dbm 10\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            load_config_values(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("d_aw=50", "d_aw=near"))
        with pytest.raises(ConfigError, match="d_aw"):
            load_config_values(path)

    @pytest.mark.parametrize("key, value", [("n_antennas", "128"), ("l_total", "32")])
    def test_integer_key_rejects_fraction(self, tmp_path, key, value):
        path = write_config(tmp_path, GOOD_CONFIG.replace(f"{key}={value}", f"{key}={value}.5"))
        with pytest.raises(ConfigError, match=f"key '{key}' expects an integer, got '{value}.5'"):
            load_config_values(path)

    def test_dump_text_reparses_identically(self, tmp_path):
        values = load_config_values(FIG3_CFG)
        dumped = dump_config_text(values)
        path = tmp_path / "echo.cfg"
        path.write_text(dumped)
        assert build_scenario(load_config_values(str(path))) == build_scenario(values)


class TestAnalyzeCommand:
    def test_writes_one_row(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = main(
            ["analyze", "--config", FIG3_CFG, "--out", str(out), "--set", "m=8"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.ANALYZE_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "8"
        result = analyze_scenario(presets.fig3_config(), 8)
        assert float(cells[3]) == result.alpha
        assert float(cells[4]) == result.beta
        assert abs(float(cells[5]) - (float(cells[3]) + float(cells[4]))) <= 1e-15
        assert cells[9] in ("true", "false")
        # Every cell, the flag included, is format_value of the record field.
        assert cells == [presets.format_value(getattr(result, n)) for n in lines[0].split(",")]

    def test_dwell_far_below_one_symbol_keeps_beta_at_most_one(self, tmp_path):
        # l_sector = 1e-30, where scipy's gammainc returns 1.0000000000000022.
        out = tmp_path / "row.csv"
        argv = ["--set", f"n_antennas={10**33}", "--set", f"m={32 * 10**30}", "--set", "pa_dbm=-280"]
        assert main(["analyze", "--config", FIG3_CFG, *argv, "--out", str(out)]) == 0
        (row,) = csv_rows(out)
        assert (row["l_sector"], row["beta"], row["xi"]) == ("1.0000000000000001e-30", "1", "1")

    def test_dump_config_round_trip(self, tmp_path, capsys):
        code = main(["analyze", "--config", FIG3_CFG, "--dump-config"])
        assert code == 0
        echoed = capsys.readouterr().out
        path = tmp_path / "echo.cfg"
        path.write_text(echoed)
        assert build_scenario(load_config_values(str(path))) == build_scenario(
            load_config_values(FIG3_CFG)
        )

    @pytest.mark.parametrize("defaults_given", [True, False])
    def test_dump_config_text_is_canonical(self, tmp_path, capsys, defaults_given):
        # The canonical key order, the integer keys' text and the defaults,
        # which a config without path_exp and carrier_hz gets filled in.
        config = FIG3_CFG
        if not defaults_given:
            lines = Path(FIG3_CFG).read_text().splitlines()
            config = write_config(
                tmp_path, "\n".join(x for x in lines if not x.startswith(("path_exp", "carrier_hz")))
            )
        assert main(["analyze", "--config", config, "--dump-config"]) == 0
        assert capsys.readouterr().out == (
            "pa_dbm=10\n"
            "noise_dbm=-50\n"
            "theta_t=1.0471975511965976\n"
            "n_antennas=128\n"
            "l_total=32\n"
            "d_aw=50\n"
            "path_exp=2\n"
            "carrier_hz=2400000000\n"
        )

    def test_override_changes_scenario(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["analyze", "--config", FIG3_CFG, "--out", str(out_a)]) == 0
        assert (
            main(
                [
                    "analyze",
                    "--config",
                    FIG3_CFG,
                    "--out",
                    str(out_b),
                    "--set",
                    "d_aw=100",
                ]
            )
            == 0
        )
        phi_a = float(out_a.read_text().splitlines()[1].split(",")[2])
        phi_b = float(out_b.read_text().splitlines()[1].split(",")[2])
        assert phi_b == pytest.approx(phi_a / 4.0, rel=1e-12)

    def test_out_of_range_sector_count_fails(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = main(
            ["analyze", "--config", FIG3_CFG, "--out", str(out), "--set", "m=68"]
        )
        assert code == 1
        assert "feasible range" in capsys.readouterr().err

    def test_unknown_override_fails(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--config",
                FIG3_CFG,
                "--out",
                str(tmp_path / "x.csv"),
                "--set",
                "bogus=1",
            ]
        )
        assert code == 1
        assert "unknown override key" in capsys.readouterr().err


class TestSweepAndOptimize:
    def test_sweep_row_count_and_header(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["sweep-m", "--config", FIG3_CFG, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,l_sector,phi_w,alpha,beta,xi,kl_exact,pinsker_lb"
        assert len(lines) == 1 + 67
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 8
            assert abs(float(cells[5]) - (float(cells[3]) + float(cells[4]))) <= 1e-15

    def test_sweep_floats_round_trip(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["sweep-m", "--config", FIG3_CFG, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[8].split(",")
        result = analyze_scenario(presets.fig3_config(), 8)
        assert float(row[3]) == result.alpha
        assert float(row[6]) == result.kl_exact

    def test_optimize_appends_summary(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--config", FIG3_CFG, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 67 + 1
        summary = lines[-1]
        assert summary.startswith("# m_star=31,xi_star=")
        assert "m_star=31" in capsys.readouterr().out

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["sweep-m", "--out", str(tmp_path / "x.csv")]) == 1
        assert "requires --config" in capsys.readouterr().err

    def test_missing_out_fails(self, capsys):
        assert main(["sweep-m", "--config", FIG3_CFG]) == 1
        assert "requires --out" in capsys.readouterr().err

    def test_nonexistent_config_fails(self, tmp_path, capsys):
        code = main(
            ["sweep-m", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1


class TestValidateCommand:
    def test_single_cell_passes(self, tmp_path):
        out = tmp_path / "val.csv"
        code = main(
            [
                "validate",
                "--out",
                str(out),
                "--set",
                "l_s=4",
                "--set",
                "phi_w=1",
                "--trials",
                "100000",
                "--seed",
                "42",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.VALIDATE_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "4"
        assert cells[-1] == "true"

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "validate",
            "--set",
            "l_s=1,4",
            "--set",
            "phi_w=0.5,2",
            "--trials",
            "20000",
            "--seed",
            "42",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_derived_cell_is_the_curve_row(self, tmp_path, capsys):
        # 32 / 3 is not whole: the cell is the curve's real dwell, with no note.
        out, curve = tmp_path / "val.csv", tmp_path / "curve.csv"
        code = main(
            [
                "validate",
                "--config",
                FIG3_CFG,
                "--out",
                str(out),
                "--set",
                "m=3",
                "--trials",
                "20000",
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        assert main(["sweep-m", "--config", FIG3_CFG, "--out", str(curve)]) == 0
        (row,) = csv_rows(out)
        assert row["l_s"] == "10.666666666666666"
        assert as_curve_cells(row) == curve_cells(csv_rows(curve)[2])

    def test_config_rows_are_the_sweep_rows_in_the_order_given(self, tmp_path):
        # Unsorted, with a repeat: each row is the curve row of its m.
        out, curve = tmp_path / "val.csv", tmp_path / "curve.csv"
        argv = ["validate", "--config", FIG3_CFG, "--set", "m=67,31,1,31", "--trials", "20000"]
        assert main([*argv, "--out", str(out)]) == 0
        assert main(["sweep-m", "--config", FIG3_CFG, "--out", str(curve)]) == 0
        sweep = csv_rows(curve)
        assert [as_curve_cells(row) for row in csv_rows(out)] == [
            curve_cells(sweep[m - 1]) for m in (67, 31, 1, 31)
        ]

    def test_config_rows_beyond_int64_are_the_analyze_rows(self, tmp_path):
        # m_max is about 5e39, too many rows for sweep-m: each row is the
        # one analyze writes, which is the curve row (TestCrossCommand).
        wide = ["--config", FIG3_CFG, "--set", f"n_antennas={10**40}"]
        m_list = [10**30, 7, 10**30 + 1]
        out = tmp_path / "val.csv"
        argv = ["validate", *wide, "--set", f"m={','.join(map(str, m_list))}", "--trials", "2000"]
        assert main([*argv, "--out", str(out)]) == 0
        analyzed = []
        for m in m_list:
            row = tmp_path / f"m{m}.csv"
            assert main(["analyze", *wide, "--set", f"m={m}", "--out", str(row)]) == 0
            (analyze_row,) = csv_rows(row)
            analyzed.append(curve_cells(analyze_row))
        assert [as_curve_cells(row) for row in csv_rows(out)] == analyzed

    @pytest.mark.parametrize(
        "cells, expected",
        [
            (["--set", "l_s=1,4", "--set", "phi_w=0.5,2"], ["false_alarm", "miss_detection"]),
            (["--config", FIG3_CFG, "--set", "m=67,31,1,31"],
             ["make_sweep_plan", "false_alarm", "miss_detection"]),
        ],
        ids=["grid", "config"],
    )
    def test_rows_are_one_closed_form_pass(self, tmp_path, monkeypatch, cells, expected):
        # Either cell source gives the cells, and one call of each closed
        # form evaluates them all; no analysis record is built.
        calls = []
        for name in ("make_sweep_plan", "false_alarm", "miss_detection", "analyze_scenario"):
            original = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *args, name=name, original=original: (
                    calls.append(name) or original(*args)
                )
            )
        out = tmp_path / "val.csv"
        assert main(["validate", *cells, "--trials", "2000", "--out", str(out)]) == 0
        assert calls == expected

    def test_grid_rows_are_the_scalar_closed_forms(self, tmp_path):
        # The grid's one array pass writes, cell by cell, the bytes of the
        # closed forms called at that cell alone, at extreme dwells and SNRs.
        ls_list, phi_list = ["1e-300", "0.5", "4", "1e12"], ["1e-20", "0.3", "10", "1e300"]
        out = tmp_path / "val.csv"
        argv = ["validate", "--set", f"l_s={','.join(ls_list)}",
                "--set", f"phi_w={','.join(phi_list)}", "--trials", "100"]
        assert main([*argv, "--out", str(out)]) in (0, 3)
        expected = []
        for l_s in map(float, ls_list):
            for phi_w in map(float, phi_list):
                alpha, beta = analysis.false_alarm(l_s, phi_w), analysis.miss_detection(l_s, phi_w)
                cells = (l_s, phi_w, alpha, beta, alpha + beta)
                expected.append(dict(zip(CURVE_CELLS, map(presets.format_value, cells))))
        rows = csv_rows(out)
        assert [{column: row[column] for column in CURVE_CELLS} for row in rows] == expected

    def test_underflowing_h1_threshold_cell_passes(self, tmp_path):
        # The H1 threshold rounds to 0 here; beta = 1, as every trial misses.
        out = tmp_path / "val.csv"
        argv = ["validate", "--set", "l_s=5e-324", "--set", "phi_w=1e308", "--trials", "1000"]
        assert main([*argv, "--out", str(out)]) == 0
        (row,) = csv_rows(out)
        assert (row["beta"], row["beta_hat"], row["retried"], row["pass"]) == (
            "1", "1", "false", "true"
        )

    def test_unconfirmable_cell_exits_three(self, tmp_path, monkeypatch):
        # A closed form that is genuinely wrong (alpha off by 0.1 at a cell
        # where 1e4 trials resolve it to about 0.004) fails the first run and
        # the reseeded retry alike.
        monkeypatch.setattr(cli, "false_alarm", lambda l_s, phi_w: np.full_like(l_s, 0.35))
        out = tmp_path / "val.csv"
        code = main(
            [
                "validate",
                "--out",
                str(out),
                "--set",
                "l_s=1",
                "--set",
                "phi_w=1",
                "--trials",
                "10000",
            ]
        )
        assert code == 3
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[4] == "true"  # retried
        assert float(cells[5]) == 0.35  # the patched closed form
        assert cells[-1] == "false"

    def test_rare_event_cell_passes_without_retry(self, tmp_path):
        # alpha and beta are near 1e-48, so no event occurs in 20,000 trials;
        # the interval must stay open rather than collapse to zero width.
        out = tmp_path / "val.csv"
        code = main(
            [
                "validate",
                "--out",
                str(out),
                "--set",
                "l_s=160",
                "--set",
                "phi_w=10",
                "--trials",
                "20000",
            ]
        )
        assert code == 0
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[4] == "false"  # retried
        assert cells[6] == cells[9] == "0"  # alpha_hat, beta_hat
        assert cells[-1] == "true"

    def test_long_dwell_cell_draws_one_variate_per_trial(self, tmp_path):
        # A million samples per trial: 2e9 per hypothesis if drawn one by one.
        l_s, phi_w = 10**6, 0.003
        alpha = analysis.false_alarm(float(l_s), phi_w)
        beta = analysis.miss_detection(float(l_s), phi_w)
        assert 1e-3 < alpha < 0.5 and 1e-3 < beta < 0.5  # events occur in 2,000 trials
        out = tmp_path / "val.csv"
        code = main(
            ["validate", "--set", f"l_s={l_s}", "--set", f"phi_w={phi_w}", "--trials", "2000",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert (int(cells[0]), float(cells[1]), int(cells[2])) == (l_s, phi_w, 2000)

    def test_mixing_config_and_explicit_cells_fails(self, tmp_path, capsys):
        code = main(
            [
                "validate",
                "--config",
                FIG3_CFG,
                "--out",
                str(tmp_path / "x.csv"),
                "--set",
                "l_s=4",
            ]
        )
        assert code == 1

    def test_m_without_config_fails(self, tmp_path):
        code = main(
            ["validate", "--out", str(tmp_path / "x.csv"), "--set", "m=2"]
        )
        assert code == 1


class TestHugeDwellResolution:
    """validate's known blind spot: at huge dwells its draws are too coarse.

    numpy's ``standard_gamma`` (Marsaglia & Tsang) forms 1 + c*x in doubles,
    with c = 1/(3 sqrt(l_s - 1/3)). At large shapes its draws therefore lie
    on a lattice about 6.7e-16 sqrt(l_s) standard deviations apart, with a
    point mass at the mean, l_s. At phi_w = 1e-300 both cells are blind
    (x0 = x1 = l_s), where alpha = beta = 0.5 is right and that mass counts
    as a miss: the cell at l_s = 1e26 passes and the one at 1e28 fails after
    its retry. A fix of the sampler turns the second verdict; a regression that
    coarsens smaller shapes turns the first.
    """

    VERDICTS = ["true", "false"]

    @pytest.mark.parametrize("seed", [7, 42, 1234])
    def test_verdicts_at_two_blind_cells_are_the_pinned_ones(self, tmp_path, seed):
        out = tmp_path / "val.csv"
        argv = ["validate", "--set", "l_s=1e26,1e28", "--set", "phi_w=1e-300"]
        code = main([*argv, "--seed", str(seed), "--out", str(out)])
        rows = csv_rows(out)
        assert [row["retried"] for row in rows] == ["false", "true"]
        assert (code, [row["pass"] for row in rows]) == (3, self.VERDICTS)

    def test_draws_take_fewer_values_as_the_shape_grows(self):
        # The 16,384 draws of chunk 0 at seed 42.
        draws = [montecarlo._chunk_draws(l_s, 42, 0) for l_s in (1e26, 1e28, 1e30)]
        assert [np.unique(chunk).size for chunk in draws] == [1224, 159, 18]


class TestValidatePower:
    """Which defects validate catches: its exit codes with a closed form or a threshold scaled.

    Each entry is validate's exit codes at seeds 42, 7 and 1234 (default
    trials), with the closed form scaled where the command reads it; 3 means
    the defect was caught. fig2's cells have alpha from 4.3e-40 to 2.5e-7, so
    1e5 trials count no event and every defect passes. A change that gains
    or loses power changes an entry here; it is meant to, and names it.
    """

    SEEDS = (42, 7, 1234)
    CELLS = {
        "default grid": [],
        "fig2 m=1,4,8,40": ["--config", FIG2_CFG, "--set", "m=1,4,8,40"],
        "fig3 m=1,31,67": ["--config", FIG3_CFG, "--set", "m=1,31,67"],
        "(4, 10)": ["--set", "l_s=4", "--set", "phi_w=10"],
    }
    # The closed form each column scales, and by how much; the first is unscaled.
    DEFECTS = [
        ("false_alarm", 1.0), ("false_alarm", 1.2), ("false_alarm", 2.0),
        ("miss_detection", 1.2), ("miss_detection", 2.0), ("false_alarm", 0.5),
    ]
    TABLE = {  # correct, alpha*1.2, alpha*2, beta*1.2, beta*2, alpha*0.5
        "default grid": ["000", "333", "333", "333", "333", "333"],
        "fig2 m=1,4,8,40": ["000", "000", "000", "000", "000", "000"],
        "fig3 m=1,31,67": ["000", "333", "333", "333", "333", "333"],
        "(4, 10)": ["000", "000", "333", "333", "333", "333"],
    }

    def exit_codes(self, out, cells, seeds) -> str:
        return "".join(
            str(main(["validate", *cells, "--seed", str(seed), "--out", str(out)]))
            for seed in seeds
        )

    def test_exit_codes_are_the_table(self, tmp_path, monkeypatch):
        table = {}
        for name, cells in self.CELLS.items():
            table[name] = []
            for closed_form, scale in self.DEFECTS:
                original = getattr(cli, closed_form)
                monkeypatch.setattr(
                    cli, closed_form, lambda *args, f=original, s=scale: f(*args) * s
                )
                table[name].append(self.exit_codes(tmp_path / "val.csv", cells, self.SEEDS))
                monkeypatch.setattr(cli, closed_form, original)
        assert table == self.TABLE

    def test_a_threshold_defect_passes_unseen(self, tmp_path, monkeypatch):
        # x0 * 1.3 and x1 * 0.8 in the one threshold kernel, which the closed
        # forms and the Monte Carlo share: both move together, so validate
        # checks the incomplete-gamma evaluation, not the detector's test.
        thresholds = analysis._thresholds
        alpha = analysis.false_alarm(4.0, 10.0)

        def scaled(l_s, phi_w):
            log_term, x0, x1 = thresholds(l_s, phi_w)
            return log_term, x0 * 1.3, x1 * 0.8

        monkeypatch.setattr(analysis, "_thresholds", scaled)
        row = {name: self.exit_codes(tmp_path / "val.csv", cells, self.SEEDS)
               for name, cells in self.CELLS.items()}
        assert row == dict.fromkeys(self.CELLS, "000")
        # The defect reached the rows: (4, 10)'s alpha is not the closed form's.
        (written,) = csv_rows(tmp_path / "val.csv")
        assert float(written["alpha"]) != alpha

    def test_correct_closed_forms_pass_at_twenty_seeds(self, tmp_path):
        codes = {name: self.exit_codes(tmp_path / "val.csv", cells, range(20))
                 for name, cells in self.CELLS.items()}
        assert codes == dict.fromkeys(self.CELLS, "0" * 20)


class TestValidateConcurrency:
    """validate runs its Monte Carlo chunks concurrently, with bytes that do not depend on it."""

    @pytest.fixture
    def probe(self, monkeypatch):
        """Calls into the per-chunk counter: total, most at once, and each (l_s, chunk, seed)."""
        count_events = montecarlo._count_events
        lock = threading.Lock()
        state = {"calls": 0, "active": 0, "most": 0, "chunks": []}

        def counter(job):
            l_s, chunk, mc, _ = job
            with lock:
                state["calls"] += 1
                state["chunks"].append((l_s, chunk, mc.seed))
                state["active"] += 1
                state["most"] = max(state["most"], state["active"])
            try:
                return count_events(job)
            finally:
                with lock:
                    state["active"] -= 1

        monkeypatch.setattr(montecarlo, "_count_events", counter)
        return state

    def run_with_cpus(self, monkeypatch, probe, tmp_path, cpus, argv):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        return self.run_validate(probe, tmp_path / f"cpus{cpus}.csv", argv)

    @staticmethod
    def run_validate(probe, out, argv):
        """(exit code, bytes written, most chunks counted at once) of one validate run."""
        probe["most"] = 0
        threads = threading.active_count()
        code = main(["validate", *argv, "--out", str(out)])
        assert threading.active_count() == threads
        return code, out.read_bytes(), probe["most"]

    # Small CPU counts only: the calling thread is one worker, and each
    # further worker is one helper thread.
    def test_default_grid_bytes_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch, probe):
        one = self.run_with_cpus(monkeypatch, probe, tmp_path, 1, [])
        three = self.run_with_cpus(monkeypatch, probe, tmp_path, 3, [])
        assert one[:2] == three[:2]
        assert one[0] == 0
        assert one[2] == 1 and 1 <= three[2] <= 3

    # The default grid; fig3 rows at real dwells (m = 31, the optimum) and
    # below one symbol (m = 33, 67); fig3 rows given unsorted with a repeat;
    # and two long-dwell cells whose 20000 trials are two uneven chunks
    # (2**14 trials, then 3616). Each exits 0.
    COMMAND_LINES = {
        "default-grid": [],
        "fig3-m=31,33,67": ["--config", FIG3_CFG, "--set", "m=31,33,67"],
        "fig3-m=67,31,1,31": ["--config", FIG3_CFG, "--set", "m=67,31,1,31"],
        "l_s=160": ["--set", "l_s=160", "--set", "phi_w=0.3,10", "--trials", "20000"],
    }

    @pytest.mark.parametrize("case", [c for c in COMMAND_LINES if c != "default-grid"])
    def test_bytes_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch, probe, case):
        argv = self.COMMAND_LINES[case]
        one = self.run_with_cpus(monkeypatch, probe, tmp_path, 1, argv)
        three = self.run_with_cpus(monkeypatch, probe, tmp_path, 3, argv)
        assert one[:2] == three[:2]
        assert one[0] == 0
        assert one[2] == 1 and 1 <= three[2] <= 3

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="the OS sets no CPU affinity"
    )
    @pytest.mark.parametrize("case", list(COMMAND_LINES))
    def test_bytes_do_not_depend_on_the_affinity(self, tmp_path, probe, case):
        # The process runs on one CPU, as under `taskset -c 0`, and then on
        # every CPU it was given; helper threads inherit the calling thread's
        # affinity.
        argv = self.COMMAND_LINES[case]
        cpus = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(cpus)})
            assert montecarlo._usable_cpus() == 1
            one = self.run_validate(probe, tmp_path / "one_cpu.csv", argv)
        finally:
            os.sched_setaffinity(0, cpus)
        every = self.run_validate(probe, tmp_path / "every_cpu.csv", argv)
        assert one[:2] == every[:2]
        assert one[0] == 0
        assert one[2] == 1 and 1 <= every[2] <= len(cpus)

    def test_retried_cell_bytes_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch, probe):
        # As in test_unconfirmable_cell_exits_three: both rounds fail.
        monkeypatch.setattr(cli, "false_alarm", lambda l_s, phi_w: np.full_like(l_s, 0.35))
        argv = ["--set", "l_s=1", "--set", "phi_w=1", "--trials", "10000"]
        one = self.run_with_cpus(monkeypatch, probe, tmp_path, 1, argv)
        three = self.run_with_cpus(monkeypatch, probe, tmp_path, 3, argv)
        assert one[:2] == three[:2]
        assert one[0] == 3
        # 10,000 trials are one chunk: each round draws one chunk of the one
        # dwell, from which both alpha_hat and beta_hat are counted, so a
        # second worker is never used.
        assert one[2] == three[2] == 1
        rounds = [(1, 0, 42), (1, 0, montecarlo.retry_seed(42))]
        assert probe["chunks"] == rounds * 2

    def test_default_grid_draws_each_stream_once(self, tmp_path, probe):
        # Nine cells over three dwells: one stream per l_s, shared by both
        # hypotheses, and 1e5 trials are 7 chunks of 2**14.
        assert main(["validate", "--out", str(tmp_path / "v.csv")]) == 0
        assert probe["calls"] == 3 * 7
        assert sorted(probe["chunks"]) == [(l_s, c, 42) for l_s in (1, 4, 16) for c in range(7)]

    def test_cells_sharing_a_dwell_write_their_one_cell_bytes(self, tmp_path, capsys, probe):
        # One real dwell at two different phi_w.
        def run(phi_w):
            out = tmp_path / f"phi{phi_w}.csv"
            argv = ["validate", "--set", "l_s=2.5", "--set", f"phi_w={phi_w}", "--out", str(out)]
            return main(argv), out.read_text().splitlines(), capsys.readouterr().err

        code, lines, err = run("0.3,3")
        assert code == 0 and probe["calls"] == 7  # one dwell, 7 chunks
        (code_a, (header, row_a), err_a), (code_b, (_, row_b), err_b) = run("0.3"), run("3")
        assert (code_a, code_b) == (0, 0)
        assert row_a.startswith("2.5,0.29999999999999999,") and row_b.startswith("2.5,3,")
        assert lines == [header, row_a, row_b]
        assert err == err_a + err_b == ""

    def test_retry_is_one_call_over_the_failing_cells(self, tmp_path, monkeypatch, probe):
        # Only the l_s = 1 cells fail, both rounds: the retry round reruns
        # those two cells, at the retry seed, in one call.
        false_alarm = cli.false_alarm
        monkeypatch.setattr(
            cli, "false_alarm", lambda l_s, phi_w: np.where(l_s == 1, 0.35, false_alarm(l_s, phi_w))
        )
        estimate_cells = cli.estimate_cells
        calls = []

        def recorder(cells, mc):
            calls.append((list(cells), mc))
            return estimate_cells(cells, mc)

        monkeypatch.setattr(cli, "estimate_cells", recorder)
        out = tmp_path / "v.csv"
        argv = ["--set", "l_s=1,4", "--set", "phi_w=1,2", "--trials", "10000", "--seed", "5"]
        assert main(["validate", *argv, "--out", str(out)]) == 3
        cells = [(1, 1.0), (1, 2.0), (4, 1.0), (4, 2.0)]
        assert calls == [
            (cells, montecarlo.McConfig(trials=10000, seed=5)),
            (cells[:2], montecarlo.McConfig(trials=10000, seed=montecarlo.retry_seed(5))),
        ]
        # Two dwells of one chunk each, then the failing cells' one dwell.
        assert sorted(probe["chunks"][:2]) == [(1, 0, 5), (4, 0, 5)]
        assert probe["chunks"][2:] == [(1, 0, montecarlo.retry_seed(5))]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(row[3], row[4], row[-1]) for row in rows] == [
            (str(montecarlo.retry_seed(5)), "true", "false")
        ] * 2 + [("5", "false", "true")] * 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            # The second cell fails a closed-form check.
            (["--set", "l_s=1,0", "--set", "phi_w=1"], "l_s must be finite and > 0, got 0.0"),
            (["--set", "l_s=4", "--set", "phi_w=1,-1"], "phi_w must be finite and > 0, got -1.0"),
            # The run parameters fail before any cell is checked, even a
            # cell that fails its own check.
            (["--set", "l_s=4,0", "--set", "phi_w=1", "--trials", "0"],
             "trials must be >= 1, got 0"),
            (["--set", "l_s=4,0", "--set", "phi_w=1", "--seed", "-1"],
             "seed must be a 64-bit unsigned integer, got -1"),
            (["--set", "l_s=0", "--set", "phi_w=1", "--trials", "0"],
             "trials must be >= 1, got 0"),
            # The grid is checked as arrays, every l_s before any phi_w.
            (["--set", "l_s=1,-1", "--set", "phi_w=-1"], "l_s must be finite and > 0, got -1.0"),
            # A config's sector counts are checked with its rows, after the run parameters.
            (["--config", FIG3_CFG, "--set", "m=0", "--trials", "0"],
             "trials must be >= 1, got 0"),
        ],
    )
    def test_checks_run_before_any_stream(self, tmp_path, capsys, probe, argv, message):
        out = tmp_path / "x.csv"
        threads = threading.active_count()
        assert main(["validate", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert probe["calls"] == 0
        assert threading.active_count() == threads
        assert not out.exists()


class TestReproCommand:
    def test_fig2_default_curves(self, tmp_path):
        out_dir = tmp_path / "fig2"
        assert main(["repro", "fig2", "--out", str(out_dir)]) == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["fig2_noise_dbm_-50.csv", "fig2_noise_dbm_-60.csv"]
        for name in names:
            lines = (out_dir / name).read_text().splitlines()
            assert lines[0] == cli.SWEEP_HEADER
            assert len(lines) == 1 + 67

    def test_fig3_default_curves(self, tmp_path):
        out_dir = tmp_path / "fig3"
        assert main(["repro", "fig3", "--out", str(out_dir)]) == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["fig3_l_total_160.csv", "fig3_l_total_32.csv"]

    def test_override_list_controls_curve_count(self, tmp_path):
        out_dir = tmp_path / "multi"
        code = main(
            ["repro", "fig2", "--out", str(out_dir), "--set", "noise_dbm=-50,-60,-70"]
        )
        assert code == 0
        assert len(os.listdir(out_dir)) == 3

    def test_unknown_preset_rejected(self, tmp_path):
        assert main(["repro", "fig9", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "preset, override",
        [
            ("fig2", "noise_dbm=-50.0000001,-50.0000002"),
            ("fig3", "l_total=1000000,1000001"),
        ],
    )
    def test_close_sweep_values_write_distinct_files(self, tmp_path, preset, override):
        # Names rounded to six digits made the second curve overwrite the first.
        out_dir = tmp_path / preset
        assert main(["repro", preset, "--out", str(out_dir), "--set", override]) == 0
        assert len(os.listdir(out_dir)) == 2


    def test_a_sweep_value_with_a_name_near_the_limit_is_written(self, tmp_path, capsys):
        # fig3_l_total_<236 digits>.csv is 253 bytes, a name the file system takes.
        l_total = "1" * 236
        out_dir, curve = tmp_path / "fig3", tmp_path / "curve.csv"
        assert main(["repro", "fig3", "--out", str(out_dir), "--set", f"l_total={l_total}"]) == 0
        path = out_dir / f"fig3_l_total_{l_total}.csv"
        assert capsys.readouterr().out == f"{path}\n"
        argv = ["sweep-m", "--config", FIG3_CFG, "--set", f"l_total={l_total}"]
        assert main([*argv, "--out", str(curve)]) == 0
        assert path.read_bytes() == curve.read_bytes()
        assert os.listdir(out_dir) == [path.name]

    def test_invalid_sweep_value_writes_nothing(self, tmp_path, capsys):
        # The first curve is valid, the second scenario is not: no file, and
        # not even the directory, is written.
        out_dir = tmp_path / "fig3"
        assert main(["repro", "fig3", "--out", str(out_dir), "--set", "l_total=32,0"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: l_total must be >= 1, got 0\n")
        assert list(tmp_path.iterdir()) == []

    # phi_w overflows from noise_dbm=-3200 on, so the second curve fails in
    # its sweep, after the first has been computed and staged.
    FAILING_SECOND_CURVE = ["--set", "noise_dbm=-50,-3200"]

    @pytest.mark.parametrize("out", ["d", "a/b/d"])
    def test_failing_curve_writes_no_curve(self, tmp_path, capsys, out):
        out_dir = tmp_path / out
        assert main(["repro", "fig2", "--out", str(out_dir), *self.FAILING_SECOND_CURVE]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: phi_w must be finite and >= 0, got inf\n"
        )
        # Neither the staged first curve nor a directory the run made is left.
        assert list(tmp_path.iterdir()) == []

    def test_failing_curve_keeps_an_existing_directory_as_it_was(self, tmp_path, capsys):
        out_dir = tmp_path / "d"
        out_dir.mkdir()
        (out_dir / "fig2_noise_dbm_-50.csv").write_text("earlier\n")
        assert main(["repro", "fig2", "--out", str(out_dir), *self.FAILING_SECOND_CURVE]) == 1
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.rglob("*")] == ["d", "fig2_noise_dbm_-50.csv"]
        assert (out_dir / "fig2_noise_dbm_-50.csv").read_text() == "earlier\n"

    def test_directory_at_a_later_target_writes_no_curve(self, tmp_path, capsys):
        # The second curve's target is a directory. Every target is checked
        # before the first rename, so the first curve is not written either.
        target = tmp_path / "d" / "fig2_noise_dbm_-60.csv"
        target.mkdir(parents=True)
        assert main(["repro", "fig2", "--out", str(tmp_path / "d")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: [Errno 21] Is a directory: '{target}'\n")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "d", "d/fig2_noise_dbm_-60.csv"
        ]

    def test_curves_are_written_one_at_a_time(self, tmp_path, monkeypatch):
        # Each curve is staged in a temp file before the next is computed, so
        # one curve is held at a time, and none is renamed into place before
        # the last is staged.
        sweep_sectors = cli.sweep_sectors
        out_dir = tmp_path / "d"
        seen = []

        def sweep(cfg):
            seen.append(sorted(path.suffix for path in out_dir.iterdir()))
            return sweep_sectors(cfg)

        monkeypatch.setattr(cli, "sweep_sectors", sweep)
        argv = ["repro", "fig2", "--out", str(out_dir), "--set", "noise_dbm=-50,-60,-70"]
        assert main(argv) == 0
        assert seen == [[], [".tmp"], [".tmp", ".tmp"]]
        assert len(os.listdir(out_dir)) == 3


def analysis_of(m, floats):
    """An analysis with sector counts ``m`` and the (rows, 8) floats as its other fields, in order."""
    return DetectionAnalysis(m, *np.asarray(floats).T)


# The sector count and every float field of an analysis: all but pinsker_vacuous.
FLOAT_COLUMNS = "m,l_sector,phi_w,alpha,beta,xi,kl_exact,kl_approx,pinsker_lb"


def printf_text(columns, analysis):
    """The reference: every row through '%d' and '%.17g', one row at a time."""
    names = columns.split(",")
    row = ",".join("%d" if name == "m" else "%.17g" for name in names)
    cells = (np.atleast_1d(getattr(analysis, name)).tolist() for name in names)
    return "".join(line + "\n" for line in map(row.__mod__, zip(*cells)))


def decimal_parts(floats):
    """``_decimal_parts`` of a (rows, columns) float array, in a workspace made for it."""
    return csvrows._decimal_parts(floats, csvrows._Workspace(*floats.shape))


class TestRecordRows:
    """The rows of an analysis are the bytes '%d' and '%.17g' write, cell for cell."""

    AWKWARD = (
        1.0,
        5e-324,
        1e16,
        0.1,
        -0.0,
        -1236857453.5568247,
        0.1 + 0.2,
        1.0 / 3.0,
        2.0**53 + 2.0,
        1.7976931348623157e308,
        -2.2250738585072014e-308,
        123456789012345678.0,
        math.inf,
        math.nan,
    )

    SECTOR_COUNTS = (1, 2, 67, 4096, 2**40, 2**53 - 1, 2**53, 7, 31, 89, 3, 5, 9, 11, 13)

    # Named cases for the array passes, each with its negative.
    NAMED = (
        9.9999999999999999e22,  # the double nearest 1e23, just below it
        1e-14, 1e98,  # the nearest doubles lie below and round up to the power
        1e-5, 1e-4, 1e16, 1e17,  # where '%.17g' switches between fixed and scientific
        1e-100, 1.5e-200, 2.5e123, 1.7976931348623157e308, 2.2250738585072014e-308,
        5e-324, 0.0, math.inf, math.nan,
        2.0**-25, 3 * 2.0**-25,  # exact ties at the 17th digit
    )

    def rows(self):
        """Row i holds sector count i and the eight AWKWARD values from i on."""
        values = self.AWKWARD * 8
        return [(m, *values[i : i + 8]) for i, m in enumerate(self.SECTOR_COUNTS)]

    @pytest.mark.parametrize("columns", [cli.SWEEP_HEADER, FLOAT_COLUMNS])
    def test_matches_format_value(self, columns):
        rows = self.rows()
        analysis = DetectionAnalysis(*map(np.array, zip(*rows)))
        names = columns.split(",")
        expected = [
            ",".join(presets.format_value(dict(zip(FIELDS, row))[name]) for name in names)
            for row in rows
        ]
        assert "".join(csvrows.record_blocks(columns, analysis)) == "".join(
            line + "\n" for line in expected
        )
        # The array passes write the same rows.
        cells = np.stack([getattr(analysis, name) for name in names], axis=1)
        workspace = csvrows._Workspace(*cells.shape)
        assert csvrows._array_rows(cells, workspace) == "".join(line + "\n" for line in expected)
        # A one-row analysis gives its one row, 2**40, 2**53 - 1 and 2**53 among the sector counts.
        for row, line in zip(rows, expected):
            one_row = DetectionAnalysis(*(np.array([cell]) for cell in row))
            assert "".join(csvrows.record_blocks(columns, one_row)) == line + "\n"

    def test_seeded_fuzz_matches_printf(self):
        # 2**17 rows of 8 float cells: random bit patterns, and every fourth
        # row subnormal, down to 5e-324.
        rng = np.random.default_rng(20261019)
        rows = 2**17
        bits = rng.integers(0, 2**64, size=(rows, 8), dtype=np.uint64)
        sign = bits[::4] & np.uint64(1 << 63)
        bits[::4] = sign | rng.integers(1, 2**52, size=(rows // 4, 8), dtype=np.uint64)
        bits[0, :2] = [1, (1 << 63) | 1]
        floats = bits.view(np.float64)
        # Sector counts in [1, 2**53], of every digit count up to 16.
        m = 1 + (rng.integers(0, 2**53, size=rows) >> rng.integers(0, 53, size=rows))
        analysis = analysis_of(m, floats)
        columns = FLOAT_COLUMNS
        assert "".join(csvrows.record_blocks(columns, analysis)) == printf_text(columns, analysis)
        # The array passes, not '%.17g', write nearly every cell.
        proven, _, _ = decimal_parts(floats)
        assert proven.mean() > 0.99

    def test_named_values_match_printf(self):
        powers = np.array([float(f"1e{q}") for q in range(-323, 309)])
        values = np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf), self.NAMED,
        ])
        values = np.concatenate([values, -values])
        values = np.resize(values, (-(-values.size // 8), 8))  # wraps round to fill the last row
        analysis = analysis_of(np.arange(1, len(values) + 1), values)
        assert len(values) >= 48
        assert "".join(csvrows.record_blocks(FLOAT_COLUMNS, analysis)) == printf_text(
            FLOAT_COLUMNS, analysis
        )

    def test_unprovable_cells_are_left_to_printf(self):
        unprovable = [2.0**-25, 3 * 2.0**-25, 0.0, -0.0, math.inf, -math.inf, math.nan]
        proven, _, _ = decimal_parts(np.array([unprovable]))
        assert not proven.any()
        proven, digits, exponents = decimal_parts(np.array([[0.1, -2.5e-300, 1e300]]))
        assert proven.all()
        assert digits.tolist() == [[10000000000000001, 25000000000000000, 10000000000000001]]
        assert exponents.tolist() == [[-1, -300, 300]]

    @staticmethod
    def layout_key(text):
        """The layout key of a nonzero finite float from its '%.17g' text: form and digit count.

        The sign is not part of the key. A fixed form (-4 <= k <= 16) is
        k + 4, and every scientific exponent shares the one form after them.
        """
        mantissa, _, exponent = text.lstrip("-").partition("e")
        digits = mantissa.replace(".", "")
        if exponent:
            k = int(exponent)
        elif mantissa.startswith("0"):
            k = -(len(digits) - len(digits.lstrip("0")))
        else:
            k = len(mantissa.partition(".")[0]) - 1
        form = 21 if exponent else k + 4
        return form * 17 + len(digits.strip("0")) - 1

    def test_every_layout_key_matches_printf(self):
        # The random fuzz need not reach a rare key, such as one digit with a
        # negative three-digit exponent. Here: for each form, at one or more of
        # its exponents k, and each digit count c, c-digit decimals 1 0...0 t
        # at k; the nearest double rounds back to c digits often enough that
        # every key is hit.
        exponents = [*range(-4, 17), -5, -99, -100, -307, 17, 99, 100, 308]
        floats = np.array([
            float(f"{10 ** (count - 1) + t}e{k - count + 1}")
            for k in exponents for count in range(1, 18) for t in range(20)
            if (10 ** (count - 1) + t) % 10 and 10 ** (count - 1) + t < 10**count
        ])
        floats = np.concatenate([floats, -floats])
        # A sector count of every digit count from 1 to 16, all below 2**53.
        counts = np.array([int("1234567890123456"[:c]) for c in range(1, 17)])
        proven, _, _ = decimal_parts(floats[:, None])
        keys = {self.layout_key(text) for text in map("%.17g".__mod__, floats[proven[:, 0]].tolist())}
        assert keys == set(range(len(csvrows._layouts()[0])))
        floats = np.resize(floats, (-(-floats.size // 8), 8))  # wraps round to fill the last row
        analysis = analysis_of(np.resize(counts, len(floats)), floats)
        assert "".join(csvrows.record_blocks(FLOAT_COLUMNS, analysis)) == printf_text(
            FLOAT_COLUMNS, analysis
        )

    @pytest.mark.parametrize(
        "rows, workspaces",
        [(1, 1), (67, 1), (csvrows._BLOCK_ROWS, 1), (2 * csvrows._BLOCK_ROWS, 1),
         (csvrows._BLOCK_ROWS + 1, 2)],
    )
    def test_one_workspace_per_curve(self, monkeypatch, rows, workspaces):
        # Only the shorter last block of a longer curve lays its arrays out again.
        made = []
        init = csvrows._Workspace.__init__

        def counting_init(ws, *args):
            made.append(args)
            init(ws, *args)

        monkeypatch.setattr(csvrows._Workspace, "__init__", counting_init)
        analysis = analysis_of(np.arange(1, rows + 1), np.full((rows, 8), 0.5))
        assert "".join(csvrows.record_blocks(cli.SWEEP_HEADER, analysis)) == printf_text(
            cli.SWEEP_HEADER, analysis
        )
        assert len(made) == workspaces

    @pytest.mark.parametrize(
        "rows",
        [1, 47, 48, csvrows._BLOCK_ROWS - 1, csvrows._BLOCK_ROWS, csvrows._BLOCK_ROWS + 1,
         2 * csvrows._BLOCK_ROWS + 1],
    )
    def test_curve_lengths_around_the_block(self, rows):
        # Three blocks and more reuse one workspace: each block is still its own text.
        rng = np.random.default_rng(rows)
        analysis = analysis_of(np.arange(1, rows + 1), rng.lognormal(0.0, 40.0, (rows, 8)))
        pieces = list(csvrows.record_blocks(cli.SWEEP_HEADER, analysis))
        assert "".join(pieces) == printf_text(cli.SWEEP_HEADER, analysis)
        assert [piece.count("\n") for piece in pieces] == [
            min(csvrows._BLOCK_ROWS, rows - start) for start in range(0, rows, csvrows._BLOCK_ROWS)
        ]

    @staticmethod
    def writing_peak(out, rows):
        """The traced peak of writing a curve of ``rows`` random rows to ``out``."""
        rng = np.random.default_rng(rows)
        curve = SweepCurve(analysis_of(np.arange(1, rows + 1), rng.random((rows, 8))), 1, 0.5)
        # The writer's tables are built by the first curve of a process: not traced here.
        csvrows._pow10_table(), csvrows._quad_digits(), csvrows._layouts()
        tracemalloc.start()
        try:
            cli._write_atomic([(str(out), cli._curve_pieces(curve, with_minimizer=True))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_text().count("\n") == rows + 2
        return peak

    @pytest.mark.parametrize("rows", [2**12, 2**17, 9 * csvrows._BLOCK_ROWS - 1])
    def test_writing_a_curve_holds_one_block(self, tmp_path, rows):
        # Writing every row's text and then their join peaked at 61 MB for 2**17 rows.
        peak = self.writing_peak(tmp_path / "curve.csv", rows)
        assert peak < 4 * 2**20
        # One workspace at a time serves every block, the shorter last block of
        # 9 * 512 - 1 rows too: the peak does not grow with the curve.
        assert peak <= 1.05 * self.writing_peak(tmp_path / "short.csv", 2**12)


class TestPageFaults:
    """A curve written again in the same process faults in no fresh memory.

    Outside ``TestRecordRows``: the oldest-numpy job selects that class for
    its byte checks, and this count is the allocator's, not the bytes'.
    """

    # A fresh process runs the large-array optimize twice and prints the
    # minor page faults of each call; the second's are bounded. The first
    # call maps the workspace's arrays above glibc's mmap threshold and
    # unmaps them after the curve, which raises the threshold above them;
    # the second takes every array from heap space the first call freed. On
    # a 2-core x86-64 VM that took 0-31 faults (3-54 under -X dev) over 44
    # fresh processes. A workspace of one 1 MB buffer did not fit there and
    # grew the heap, about 210-245 faults; freeing each block's arrays cost
    # about 1,800 faults per call.
    FAULTS = """if True:
        import contextlib, io, resource, sys
        from beamsweep import cli
        faults = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(2):
                assert cli.main(sys.argv[1:]) == 0
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        print(faults[1] - faults[0], faults[2] - faults[1])
    """

    @pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults as Linux does")
    def test_a_repeated_large_curve_faults_in_no_memory(self, tmp_path):
        argv = ["optimize", "--config", FIG3_CFG, *LARGE_ARRAY, "--out", str(tmp_path / "curve.csv")]
        dev_mode = ["-X", "dev"] if sys.flags.dev_mode else []
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, *dev_mode, "-c", self.FAULTS, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        first, second = map(int, result.stdout.split())
        counts = f"minor faults: first call {first}, second call {second}; -X dev: {bool(dev_mode)}"
        print(counts)  # pytest -rP shows it for a passing run too
        assert second < 100, counts


class TestCrossCommand:
    """The commands that print the same curve print the same bytes."""

    @pytest.mark.parametrize(
        "preset, repro_name",
        [("fig2", "fig2_noise_dbm_-50.csv"), ("fig3", "fig3_l_total_32.csv")],
    )
    def test_curve_commands_agree(self, tmp_path, preset, repro_name):
        config = FIG2_CFG if preset == "fig2" else FIG3_CFG
        sweep, opt, row = tmp_path / "sweep.csv", tmp_path / "opt.csv", tmp_path / "row.csv"
        assert main(["sweep-m", "--config", config, "--out", str(sweep)]) == 0
        assert main(["optimize", "--config", config, "--out", str(opt)]) == 0
        assert main(["analyze", "--config", config, "--out", str(row), "--set", "m=8"]) == 0
        assert main(["repro", preset, "--out", str(tmp_path / "repro")]) == 0

        sweep_text = sweep.read_text()
        opt_lines = opt.read_text().splitlines(keepends=True)
        assert opt_lines[-1].startswith("# m_star=")
        assert "".join(opt_lines[:-1]) == sweep_text
        assert (tmp_path / "repro" / repro_name).read_text() == sweep_text

        sweep_lines = sweep_text.splitlines()
        analyze_header, analyze_row = row.read_text().splitlines()
        by_column = dict(zip(analyze_header.split(","), analyze_row.split(",")))
        sweep_row = dict(zip(sweep_lines[0].split(","), sweep_lines[8].split(",")))
        assert sweep_row["m"] == "8"
        assert sweep_row == {column: by_column[column] for column in sweep_row}

    @pytest.mark.parametrize("config", [FIG2_CFG, FIG3_CFG], ids=["fig2", "fig3"])
    def test_validate_checks_every_curve_row_as_written(self, tmp_path, config):
        # Every sector count of the curve, each at its own real dwell: fig3
        # has l_total = 32, so only 6 of its 67 dwells are whole, and 35 are
        # below one symbol.
        sweep, validated = tmp_path / "sweep.csv", tmp_path / "validate.csv"
        assert main(["sweep-m", "--config", config, "--out", str(sweep)]) == 0
        curve = csv_rows(sweep)
        m_list = ",".join(row["m"] for row in curve)
        argv = ["validate", "--config", config, "--set", f"m={m_list}", "--trials", "20000"]
        assert main([*argv, "--out", str(validated)]) == 0
        rows = csv_rows(validated)
        assert [as_curve_cells(row) for row in rows] == [curve_cells(row) for row in curve]
        assert len(rows) == 67
        if config == FIG3_CFG:
            # Events in every cell, so the check is not vacuous; fig2's
            # high-SNR rows see none at this trial count.
            assert all(float(row["alpha_hat"]) > 0 < float(row["beta_hat"]) for row in rows)


LARGE_ARRAY = ["--set", "n_antennas=4096", "--set", "theta_t=2", "--set", "l_total=100000"]


class TestStandingByteGate:
    """The curve commands print the bytes pinned here, on both shipped configs.

    The hashes were recorded with numpy 2.4.6 and scipy 1.17.1; scipy's
    incomplete gamma functions set the closed-form bytes. ``validate`` is left
    out, because its bytes follow numpy's Generator stream.
    """

    # (argv without --out, {written file: sha256}, stdout); "{out}" is the
    # output path, and the stdout of repro names the files it wrote.
    CASES = {
        "fig2 sweep-m": (
            ["sweep-m", "--config", FIG2_CFG],
            {"out": "bb25161392c8b6962f1966662df260ca7342b4990c6c86fe45dc3b53baef1183"},
            "",
        ),
        "fig2 optimize": (
            ["optimize", "--config", FIG2_CFG],
            {"out": "9800bde4bbb6b9d3cf2c9a66350a4593f5c1a21ce3e158588e43d0e6679608ff"},
            "m_star=1 xi_star=1.2794702224398705e-39\n",
        ),
        "fig2 analyze": (
            ["analyze", "--config", FIG2_CFG, "--set", "m=8"],
            {"out": "126dddb8d85f64afad65bbfdc456736d35675e8178d6fe7307c961a80f5e8c27"},
            "",
        ),
        "fig3 sweep-m": (
            ["sweep-m", "--config", FIG3_CFG],
            {"out": "953d13ab35f327df4f8525ac5f8aa539da919d6afbb02e0bde24c824d2059567"},
            "",
        ),
        "fig3 optimize": (
            ["optimize", "--config", FIG3_CFG],
            {"out": "f570666875897d81728463ceb5028b8f76a49c8666d98cb0a8e61e9c09035cd4"},
            "m_star=31 xi_star=0.57430082027290363\n",
        ),
        "fig3 analyze": (
            ["analyze", "--config", FIG3_CFG, "--set", "m=8"],
            {"out": "d671cc4a5dcebbfa44e7b0fab655ed56a4d6d949885ddfc116c2491b5450f24d"},
            "",
        ),
        "repro fig2": (
            ["repro", "fig2"],
            {
                "out/fig2_noise_dbm_-50.csv":
                    "bb25161392c8b6962f1966662df260ca7342b4990c6c86fe45dc3b53baef1183",
                "out/fig2_noise_dbm_-60.csv":
                    "8390ebdb945ffc1d03bfd5b1e6398612bfc03d4353e6277444a3d7bdf0f1b940",
            },
            "{out}/fig2_noise_dbm_-50.csv\n{out}/fig2_noise_dbm_-60.csv\n",
        ),
        "repro fig3": (
            ["repro", "fig3"],
            {
                "out/fig3_l_total_32.csv":
                    "953d13ab35f327df4f8525ac5f8aa539da919d6afbb02e0bde24c824d2059567",
                "out/fig3_l_total_160.csv":
                    "0915fe9bc4c303b2f83b1116d86c0608ff17ace44a768ad978c4eab75ddd5829",
            },
            "{out}/fig3_l_total_32.csv\n{out}/fig3_l_total_160.csv\n",
        ),
        "4096-antenna optimize": (
            ["optimize", "--config", FIG3_CFG, *LARGE_ARRAY],
            {"out": "ae79f35950b8c7f55b8fd38de844d18a2e3bf16e067d777e9e179a1bb3c1f1da"},
            "m_star=89 xi_star=6.3348463803268872e-137\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_match_pinned_hashes(self, tmp_path, capsys, case):
        argv, expected_files, expected_stdout = self.CASES[case]
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        written = {
            str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.rglob("*"))
            if path.is_file()
        }
        versions = f"numpy {np.__version__}, scipy {scipy.__version__}"
        assert (code, captured.err) == (0, ""), versions
        assert captured.out == expected_stdout.format(out=out), versions
        assert written == expected_files, f"{case} bytes changed under {versions}"


class TestWriteAtomic:
    def test_leaves_only_the_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["sweep-m", "--config", FIG3_CFG, "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_a_name_near_the_file_system_limit_is_written(self, tmp_path):
        # A 250-byte name: the staged name must fit wherever the target's does.
        long, short = tmp_path / ("a" * 246 + ".csv"), tmp_path / "short.csv"
        for out in (long, short):
            assert main(["sweep-m", "--config", FIG3_CFG, "--out", str(out)]) == 0
        assert long.read_bytes() == short.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([long.name, short.name])

    def test_a_name_too_long_fails_before_any_row_is_made(self, tmp_path, monkeypatch, capsys):
        # A 256-byte name: the rename once found it too long after the whole
        # curve was formatted and staged.
        out = tmp_path / ("a" * 252 + ".csv")
        made = []
        monkeypatch.setattr(cli, "record_blocks", lambda *args: made.append(args) or iter([]))
        assert main(["sweep-m", "--config", FIG3_CFG, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 36] File name too long: '{out}'\n"
        assert made == []
        assert list(tmp_path.iterdir()) == []

    def test_target_in_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli._write_atomic([("out.csv", ["a,b\n"])])
        assert (tmp_path / "out.csv").read_text() == "a,b\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("synthetic rename failure")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="synthetic"):
            cli._write_atomic([(str(tmp_path / "out.csv"), ["a,b\n"])])
        assert list(tmp_path.iterdir()) == []

    def test_mode_follows_the_umask_without_reading_it(self, tmp_path, monkeypatch):
        def refuse(mask):
            raise AssertionError("the umask was read or changed")

        out = tmp_path / "out.csv"
        saved = os.umask(0o027)
        try:
            monkeypatch.setattr(cli.os, "umask", refuse)
            cli._write_atomic([(str(out), ["a,b\n"])])
        finally:
            monkeypatch.undo()
            os.umask(saved)
        assert out.read_text() == "a,b\n"
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o027

    @pytest.mark.parametrize(
        "target, reason",
        [
            ("missing/x.csv", "[Errno 2] No such file or directory"),
            ("dir", "[Errno 21] Is a directory"),
        ],
        ids=["missing-directory", "directory-target"],
    )
    def test_failure_names_the_target(self, tmp_path, capsys, target, reason):
        # The error names the --out path, not the random temp file, so it is
        # the same on every run.
        (tmp_path / "dir").mkdir()
        out = tmp_path / target
        errors = []
        for _ in range(2):
            assert main(["sweep-m", "--config", FIG3_CFG, "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: {reason}: '{out}'\n"
        assert [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")] == ["dir"]

    def test_concurrent_writers_do_not_collide(self, tmp_path):
        out = str(tmp_path / "out.csv")
        texts = ["first\n" * 1000, "second\n" * 1000]
        errors = []

        def write(text):
            try:
                for _ in range(50):
                    cli._write_atomic([(out, [text])])
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(t,)) for t in texts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert (tmp_path / "out.csv").read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestParserReuse:
    """One parser serves every main() call in a process, and shares no state between them."""

    # Options first, then the same commands without them, then a usage error
    # and a good call.
    SEQUENCE = [
        ["analyze", "--config", FIG3_CFG, "--set", "m=8", "--dump-config"],
        ["analyze", "--config", FIG3_CFG],
        ["validate", "--set", "l_s=4", "--set", "phi_w=1", "--trials", "500", "--seed", "3"],
        ["validate", "--set", "l_s=4", "--set", "phi_w=1"],
        ["analyze", "--bogus"],
        ["optimize", "--config", FIG2_CFG],
    ]

    @staticmethod
    def fresh_process(*args):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
        )

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_parser_is_not_built_at_import(self):
        code = "import beamsweep.cli as cli; print(cli._build_parser.cache_info().currsize)"
        result = self.fresh_process("-c", code)
        assert (result.returncode, result.stdout) == (0, "0\n"), result.stderr

    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys):
        runs = []
        for index, argv in enumerate(self.SEQUENCE):
            out = tmp_path / f"{index}.csv"
            code = main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            written = out.read_bytes() if out.exists() else None
            runs.append((code, captured.out, captured.err, written))
        assert [run[0] for run in runs] == [0, 0, 0, 0, 1, 0]
        assert runs[0][1] == dump_config_text(load_config_values(FIG3_CFG))
        assert runs[4][2] == "error: unrecognized arguments: --bogus\n"
        # The calls without options, one of them right after the usage error.
        for index in (1, 3, 5):
            out = tmp_path / f"fresh{index}.csv"
            fresh = self.fresh_process("-m", "beamsweep", *self.SEQUENCE[index], "--out", str(out))
            written = out.read_bytes() if out.exists() else None
            assert (fresh.returncode, fresh.stdout, fresh.stderr, written) == runs[index]


class TestModuleEntryPoint:
    """``python -m beamsweep`` runs ``main`` on its arguments and exits with its code."""

    @pytest.mark.parametrize(
        "with_out, code, err",
        [(True, 0, ""), (False, 1, "error: command 'analyze' requires --out\n")],
        ids=["out", "no-out"],
    )
    def test_runs_main(self, tmp_path, with_out, code, err):
        argv = ["analyze", "--config", FIG3_CFG, "--set", "m=8"]
        out = tmp_path / "module.csv"
        dev_mode = ["-X", "dev"] if sys.flags.dev_mode else []
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, *dev_mode, "-m", "beamsweep", *argv,
             *(["--out", str(out)] if with_out else [])],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stdout, result.stderr) == (code, "", err)
        if with_out:
            in_process = tmp_path / "in_process.csv"
            assert main([*argv, "--out", str(in_process)]) == 0
            assert out.read_bytes() == in_process.read_bytes()
        else:
            assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_convergence_failure_maps_to_two(self, tmp_path, monkeypatch, capsys):
        def explode(cfg):
            raise ConvergenceError("synthetic non-convergence")

        monkeypatch.setattr(cli, "sweep_sectors", explode)
        code = main(["sweep-m", "--config", FIG3_CFG, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "synthetic non-convergence" in capsys.readouterr().err

    def test_non_finite_alpha_maps_to_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "gammaincc", lambda a, x: math.nan)
        out = str(tmp_path / "x.csv")
        code = main(["analyze", "--config", FIG3_CFG, "--set", "m=8", "--out", out])
        assert code == 2
        assert "gammaincc returned nan" in capsys.readouterr().err

    def test_non_finite_beta_maps_to_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "gammainc", lambda a, x: math.nan)
        out = str(tmp_path / "x.csv")
        code = main(["analyze", "--config", FIG3_CFG, "--set", "m=8", "--out", out])
        assert code == 2
        assert "gammainc returned nan" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "override, message",
        [
            # phi_w overflows from m = 3 on.
            ("pa_dbm=3100", "phi_w must be finite and >= 0, got inf"),
            # phi_w underflows to 0 at every m.
            ("d_aw=1e300", "phi_w must be finite and > 0, got 0.0"),
        ],
    )
    def test_out_of_range_snr_on_sweep_maps_to_one(self, tmp_path, capsys, override, message):
        out = str(tmp_path / "x.csv")
        assert main(["sweep-m", "--config", FIG3_CFG, "--set", override, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "name, overrides, message",
        [
            ("gammainc", [], "gammainc returned nan at a=32.0, x=30.8482557865616"),
            ("gammaincc", [], "gammaincc returned nan at l_s=32.0, phi_w=0.07558953382781133"),
            # A blind detector takes alpha from gammainc too.
            ("gammainc", ["--set", "pa_dbm=-3000"], "gammainc returned nan at a=32.0, x=32.0"),
        ],
    )
    def test_non_finite_gamma_on_sweep_maps_to_two(
        self, tmp_path, monkeypatch, capsys, name, overrides, message
    ):
        monkeypatch.setattr(analysis, name, lambda a, x: math.nan)
        out = str(tmp_path / "x.csv")
        assert main(["sweep-m", "--config", FIG3_CFG, *overrides, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["analyze", "sweep-m", "optimize", "validate"])
    def test_overflowing_divergence_maps_to_zero(self, tmp_path, capsys, command):
        # kl overflows at m = 1, where alpha = beta = 0: the bound is -inf,
        # not a rejected input.
        out = tmp_path / "x.csv"
        scenario = ["--config", FIG3_CFG, "--set", "pa_dbm=3000", "--set", f"l_total={3 * 10**305}"]
        extra = {"analyze": ["--set", "m=1"], "validate": ["--trials", "100"]}.get(command, [])
        assert main([command, *scenario, *extra, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        row = csv_rows(out)[0]
        if command == "validate":
            assert (row["alpha"], row["beta"], row["pass"]) == ("0", "0", "true")
        else:
            assert (row["alpha"], row["beta"], row["kl_exact"], row["pinsker_lb"]) == (
                "0", "0", "inf", "-inf"
            )
        if command == "analyze":
            assert row["pinsker_vacuous"] == "true"

    def test_overflowing_threshold_maps_to_two_without_a_warning(self, tmp_path, capsys):
        # At l_s = 1e308 the H0 threshold overflows to inf; the error line
        # comes with no numpy overflow warning ahead of it.
        out = str(tmp_path / "x.csv")
        argv = ["validate", "--set", f"l_s={10**308}", "--set", "phi_w=10", "--out", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: gammainc returned nan at a=1e+308, x=2.3978952727983707e+307\n"
        )
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["sweep-m", "analyze", "validate"])
    def test_path_loss_overflow_maps_to_one(self, tmp_path, capsys, command):
        out = str(tmp_path / "x.csv")
        code = main([command, "--config", FIG3_CFG, "--set", "d_aw=1e-300", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: path loss overflows a float at d_aw=1e-300, path_exp=2.0, "
            "carrier_hz=2400000000.0\n"
        )

    def test_sector_count_beyond_int64_on_a_wide_array(self, tmp_path, capsys):
        # m_max is about 5e39, so m = 10**30 is feasible, but numpy holds it
        # only as a Python int.
        out = tmp_path / "x.csv"
        argv = ["--config", FIG3_CFG, "--set", f"n_antennas={10**40}", "--set", f"m={10**30}"]
        assert main(["analyze", *argv, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith(f"{10**30},3.2000000000000003e-29,")
        # validate checks the row analyze writes, at its dwell of 3.2e-29 symbols.
        validated = tmp_path / "v.csv"
        assert main(["validate", *argv, "--out", str(validated)]) == 0
        assert capsys.readouterr().err == ""
        (row,) = csv_rows(validated)
        assert row["l_s"] == "3.2000000000000003e-29"
        assert as_curve_cells(row) == curve_cells(csv_rows(out)[0])

    @pytest.mark.parametrize("command", ["sweep-m", "optimize"])
    def test_sector_range_beyond_index_range_maps_to_one(self, tmp_path, capsys, command):
        # m_max = 1e300 sector counts cannot be indexed, let alone allocated.
        out = str(tmp_path / "x.csv")
        argv = [command, "--config", FIG3_CFG, "--set", f"n_antennas={10**300}",
                "--set", "theta_t=2", "--out", out]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: too many sector counts to sweep: floor(n_antennas * theta_t / 2) = "
            f"{int(1e300)} exceeds {np.iinfo(np.intp).max}\n"
        )
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["sweep-m", "optimize"])
    def test_sector_range_beyond_any_allocation_maps_to_one(self, tmp_path, capsys, command):
        # m_max = 2**54 sector counts fit the index range, but their array
        # cannot be allocated: no curve holds a sector count above 2**53.
        out = str(tmp_path / "x.csv")
        argv = [command, "--config", FIG3_CFG, "--set", f"n_antennas={2**54}",
                "--set", "theta_t=2", "--out", out]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")  # numpy's wording differs across versions
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert os.listdir(tmp_path) == []  # neither the file nor its temp file

    def test_usage_error_maps_to_one(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["--set", "foo"], "override 'foo' is not of the form key=value"),
            (["--set", "d_aw=1", "--set", "d_aw=2"], "override key 'd_aw' given twice"),
        ],
        ids=["no-equals", "repeated-key"],
    )
    def test_malformed_override_maps_to_one(self, tmp_path, capsys, overrides, message):
        out = str(tmp_path / "x.csv")
        assert main(["sweep-m", "--config", FIG3_CFG, *overrides, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_memory_error_maps_to_one(self, tmp_path, monkeypatch, capsys):
        # As numpy raises it for a curve too large to allocate, without
        # allocating anything here.
        def allocate(cfg):
            raise MemoryError("Unable to allocate 3.81 TiB for an array with shape "
                              "(523598775598,) and data type int64")

        monkeypatch.setattr(cli, "sweep_sectors", allocate)
        out = str(tmp_path / "x.csv")
        argv = ["optimize", "--config", FIG3_CFG, "--set", "n_antennas=1000000000000"]
        assert main([*argv, "--out", out]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            "error: Unable to allocate 3.81 TiB for an array with shape (523598775598,) "
            "and data type int64\n"
        ))
        assert not os.path.exists(out)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["sweep-m", "--config", FIG3_CFG, "--set", f"l_total={10**309}"],
                f"--set: key 'l_total' exceeds the float range, got '{10**309}'",
            ),
            (
                ["sweep-m", "--config", FIG3_CFG, "--set", f"n_antennas={10**309}"],
                f"--set: key 'n_antennas' exceeds the float range, got '{10**309}'",
            ),
            (
                ["sweep-m", "--config", FIG3_CFG, "--set", "pa_dbm=1e308"],
                "key 'pa_dbm': 1e+308 dBm overflows a float in watts",
            ),
            (
                ["validate", "--set", f"l_s={10**309}"],
                f"--set: key 'l_s' must be finite, got '{10**309}'",
            ),
            (
                # Within the float range, but m_max = n_antennas * theta_t / 2 is not.
                ["sweep-m", "--config", FIG3_CFG, "--set", f"n_antennas={10**308}",
                 "--set", "theta_t=2"],
                f"n_antennas * theta_t overflows a float, got {10**308}",
            ),
        ],
        ids=["l_total", "n_antennas", "pa_dbm", "validate-l_s", "m_max"],
    )
    def test_beyond_float_range_maps_to_one(self, tmp_path, capsys, argv, message):
        out = str(tmp_path / "x.csv")
        assert main([*argv, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)


# Edge values for the seeded exit-code test: integers, floats and the empty
# list. No integer lies between 2 and 1e308, so no draw allocates a large
# curve or a long Monte Carlo row.
EDGE_VALUES = (
    "0", "-1", "1", str(10**309),
    "0.0", "5e-324", "-5e-324", "1e308", "-1e308", "nan", "inf",
    "",
)
SCENARIO_KEYS = sorted(presets.CONFIG_KEYS)
# Command line (without --out) and the --set keys it takes.
FUZZ_COMMANDS = {
    "analyze": (["analyze"], [*SCENARIO_KEYS, "m"]),
    "sweep-m": (["sweep-m"], SCENARIO_KEYS),
    "optimize": (["optimize"], SCENARIO_KEYS),
    "validate --config": (["validate", "--trials", "50"], [*SCENARIO_KEYS, "m"]),
    "validate": (["validate", "--trials", "50"], ["l_s", "phi_w"]),
    "repro fig2": (["repro", "fig2"], SCENARIO_KEYS),
    "repro fig3": (["repro", "fig3"], SCENARIO_KEYS),
}


class TestEveryInputMapsToAnExitCode:
    """Seeded draws of edge values into config files and --set overrides."""

    DRAWS = 300

    def draw(self, rng, tmp_path, index):
        name = rng.choice(sorted(FUZZ_COMMANDS))
        argv, set_keys = FUZZ_COMMANDS[name]
        argv = list(argv)
        key, value = rng.choice(set_keys), rng.choice(EDGE_VALUES)
        takes_config = name not in ("validate", "repro fig2", "repro fig3")
        if takes_config:
            preset = rng.choice(["fig2", "fig3"])
            values = {k: presets.format_value(v) for k, v in presets.PRESET_VALUES[preset].items()}
            if key in presets.CONFIG_KEYS and rng.random() < 0.5:
                # The value goes into the config file rather than --set.
                values[key] = value
                key = None
            config = tmp_path / f"draw{index}.cfg"
            config.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
            argv += ["--config", str(config)]
        if key is not None:
            argv += ["--set", f"{key}={value}"]
        return name, [*argv, "--out", str(tmp_path / f"out{index}")]

    def test_seeded_edge_values(self, tmp_path, capsys):
        rng = random.Random(20261018)
        seen = set()
        for index in range(self.DRAWS):
            name, argv = self.draw(rng, tmp_path, index)
            seen.add(name)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), argv
            assert all(line.startswith("error: ") for line in err.splitlines()), (
                argv,
                err,
            )
            assert not caught, (argv, [str(w.message) for w in caught])
        assert seen == set(FUZZ_COMMANDS)
