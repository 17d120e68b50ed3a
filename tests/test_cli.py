import dataclasses
import math
import os
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from beamsweep import ConvergenceError, analysis, cli, presets
from beamsweep.analysis import DetectionAnalysis, analyze_scenario
from beamsweep.cli import main
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

    def test_missing_required_key_named(self, tmp_path):
        text = "\n".join(
            line for line in GOOD_CONFIG.splitlines() if not line.startswith("l_total")
        )
        with pytest.raises(ConfigError, match="l_total"):
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

    def test_integer_key_rejects_fraction(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("l_total=32", "l_total=32.5"))
        with pytest.raises(ConfigError, match="l_total"):
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

    def test_dump_config_round_trip(self, tmp_path, capsys):
        code = main(["analyze", "--config", FIG3_CFG, "--dump-config"])
        assert code == 0
        echoed = capsys.readouterr().out
        path = tmp_path / "echo.cfg"
        path.write_text(echoed)
        assert build_scenario(load_config_values(str(path))) == build_scenario(
            load_config_values(FIG3_CFG)
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

    def test_config_derived_cell_floors_samples(self, tmp_path, capsys):
        out = tmp_path / "val.csv"
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
        err = capsys.readouterr().err
        assert "not divisible" in err
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[0] == "10"  # floor(32 / 3)

    def test_unconfirmable_cell_exits_three(self, tmp_path, monkeypatch):
        # A closed form that is genuinely wrong (alpha off by 0.1 at a cell
        # where 1e4 trials resolve it to about 0.004) fails the first run and
        # the reseeded retry alike.
        monkeypatch.setattr(cli, "false_alarm", lambda l_s, phi_w: 0.35)
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


class TestRecordRows:
    """The printf row format writes what format_value writes, cell for cell."""

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

    SECTOR_COUNTS = (1, 2, 67, 4096, 2**40, 10**17, 7, 31, 89, 3, 5, 9, 11, 13)

    def rows(self):
        """Row i holds sector count i and the eight AWKWARD values from i on."""
        values = self.AWKWARD * 8
        return [(m, *values[i : i + 8]) for i, m in enumerate(self.SECTOR_COUNTS)]

    @pytest.mark.parametrize("columns", [cli.SWEEP_HEADER, cli._ANALYZE_COLUMNS])
    def test_matches_format_value(self, columns):
        rows = self.rows()
        analysis = DetectionAnalysis(*map(np.array, zip(*rows)))
        names = columns.split(",")
        expected = [
            ",".join(presets.format_value(dict(zip(FIELDS, row))[name]) for name in names)
            for row in rows
        ]
        assert cli._record_rows(columns, analysis) == expected
        # A point's analysis holds Python numbers and gives its one row.
        for row, line in zip(rows, expected):
            assert cli._record_rows(columns, DetectionAnalysis(*row)) == [line]


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


class TestWriteAtomic:
    def test_leaves_only_the_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["sweep-m", "--config", FIG3_CFG, "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_target_in_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli._write_atomic("out.csv", "a,b\n")
        assert (tmp_path / "out.csv").read_text() == "a,b\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("synthetic rename failure")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="synthetic"):
            cli._write_atomic(str(tmp_path / "out.csv"), "a,b\n")
        assert list(tmp_path.iterdir()) == []

    def test_mode_follows_the_umask_without_reading_it(self, tmp_path, monkeypatch):
        def refuse(mask):
            raise AssertionError("the umask was read or changed")

        out = tmp_path / "out.csv"
        saved = os.umask(0o027)
        try:
            monkeypatch.setattr(cli.os, "umask", refuse)
            cli._write_atomic(str(out), "a,b\n")
        finally:
            monkeypatch.undo()
            os.umask(saved)
        assert out.read_text() == "a,b\n"
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_concurrent_writers_do_not_collide(self, tmp_path):
        out = str(tmp_path / "out.csv")
        texts = ["first\n" * 1000, "second\n" * 1000]
        errors = []

        def write(text):
            try:
                for _ in range(50):
                    cli._write_atomic(out, text)
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
        assert main(["validate", *argv, "--out", str(tmp_path / "v.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: m={10**30} leaves no whole symbol per sector (l_total=32)\n"
        )

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

    def test_usage_error_maps_to_one(self, capsys):
        assert main(["frobnicate"]) == 1

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
                f"--set: key 'l_s' exceeds the float range, got '{10**309}'",
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
            assert all(line.startswith(("error: ", "note: ")) for line in err.splitlines()), (
                argv,
                err,
            )
            assert not caught, (argv, [str(w.message) for w in caught])
        assert seen == set(FUZZ_COMMANDS)
