"""Shows that each output check of the benchmark rejects a corrupted output.

Usage, from the repository root:

    python3 bench/selftest.py

Runs ``optimize`` on fig3 and a small ``validate`` through ``cli.main``,
checks that the clean outputs pass, then corrupts one thing at a time and
checks that the check aimed at it reports an error. Exits 1 if a clean
output is rejected or a corrupted one is accepted.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

import checks
from run import CONFIGS, ROOT, SRC, Command, read_config, repeat_difference


def _edit(text: str, row: int, column: str, columns: tuple[str, ...], value) -> str:
    """Replace one cell of a CSV, 0-based data row, formatted as the CLI does."""
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[columns.index(column)] = value if isinstance(value, str) else format(value, ".17g")
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def _cell(text: str, row: int, column: str, columns: tuple[str, ...]) -> float:
    return float(text.split("\n")[row + 1].split(",")[columns.index(column)])


def main() -> int:
    sys.path.insert(0, str(SRC))
    from beamsweep.cli import main as cli_main

    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(cli_main, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(cli_main, work) -> int:
    ref = checks.Reference()
    cfg = CONFIGS / "fig3.cfg"
    scenario = read_config(cfg)
    opt, val = work / "optimize.csv", work / "validate.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        codes = (cli_main(["optimize", "--config", str(cfg), "--out", str(opt)]),
                 cli_main(["validate", "--set", "l_s=1", "--set", "phi_w=1", "--trials", "2000",
                           "--seed", "7", "--out", str(val)]))
    if codes != (0, 0):
        print(f"FAIL clean commands exited {codes}")
        return 1
    curve, printed, valid = opt.read_text(), stdout.getvalue(), val.read_text()
    cells = [(1, 1.0)]

    def curve_errors(text, out=printed):
        return checks.check_curve(text, scenario, ref, "optimize", stdout=out)[0]

    def validate_errors(text):
        return checks.check_validate(text, cells, 2000, 7, 0, ref, "validate")[0]

    S, V = checks.SWEEP_COLUMNS, checks.VALIDATE_COLUMNS
    # alpha perturbed by 1e-9 in one row, xi kept equal to alpha + beta so
    # that only the reference comparison can notice.
    alpha = _cell(curve, 4, "alpha", S) + 1e-9
    bad_alpha = _edit(_edit(curve, 4, "alpha", S, alpha), 4, "xi", S, alpha + _cell(curve, 4, "beta", S))
    m_star = int(printed.split()[0].split("=")[1])
    bad_trailer = curve.replace(f"# m_star={m_star},", f"# m_star={m_star + 1},")
    # beta_hat moved 300 events away, xi_hat kept consistent.
    beta_hat = _cell(valid, 0, "beta_hat", V) + 300 / 2000
    bad_beta_hat = _edit(_edit(valid, 0, "beta_hat", V, beta_hat), 0, "xi_hat", V,
                         _cell(valid, 0, "alpha_hat", V) + beta_hat)
    digit = next(i for i, ch in enumerate(valid) if ch.isdigit() and i > valid.index("\n"))
    one_byte = valid[:digit] + str((int(valid[digit]) + 1) % 10) + valid[digit + 1:]

    cases = [
        ("clean optimize CSV", curve_errors(curve), None),
        ("clean validate CSV", validate_errors(valid), None),
        ("alpha perturbed by 1e-9 in row m=5", curve_errors(bad_alpha), "alpha vs mpmath"),
        ("m_star off by one", curve_errors(bad_trailer, printed.replace(f"={m_star} ", f"={m_star + 1} ")),
         "m_star = argmin of reference xi"),
        ("curve with its rows removed", curve_errors(curve.split("\n", 1)[0] + "\n"), "no rows"),
        ("beta_hat 300 events away", validate_errors(bad_beta_hat), "beta_hat Clopper-Pearson"),
        ("validate CSVs one byte apart",
         [e for e in [repeat_difference(Command(("validate",), val, None), {val.name: valid.encode()},
                                        {val.name: one_byte.encode()}, (0, ""), (0, ""))] if e],
         "differs at byte"),
    ]
    status = 0
    for name, errors, expected in cases:
        if expected is None:
            ok = not errors
            verdict = "accepted" if ok else "REJECTED: " + "; ".join(errors)
        else:
            ok = any(expected in e for e in errors)
            verdict = ("rejected: " + next(e for e in errors if expected in e)) if ok \
                else "NOT REJECTED by '" + expected + "': " + "; ".join(errors)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main())
