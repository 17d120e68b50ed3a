"""Command-line front end.

Subcommands:
    analyze    one CSV row of closed-form results at a given sector count
    sweep-m    full error curve over every feasible sector count
    optimize   the same curve plus a summary line with the minimizer
    validate   closed form vs Monte Carlo with a pass/fail flag per cell
    repro      the shipped fig2/fig3 parameter studies, one CSV per curve

This module holds the argparse parser and one handler per subcommand; each
subparser names its handler. The parser is built once per process, on the
first ``main`` call, and every later call reuses it; parsing leaves it
unchanged, so ``main`` may be called repeatedly in one process and each call
behaves as in a fresh one. The config-file format (reading, canonical
dump, value formatting) lives in ``presets``. Each CSV column of a curve or
an ``analyze`` row is the ``DetectionAnalysis`` field of the same name, read
as one column of the curve's (or the point's) analysis, and one printf
format built from the header writes every such row.
Exit codes: 0 success, 1 validation or parse failure, 2 numerical
convergence failure, 3 Monte Carlo validation failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable, Sequence

import numpy as np

from .analysis import (
    ConvergenceError,
    DetectionAnalysis,
    analyze_scenario,
    false_alarm,
    miss_detection,
)
from .core import ScenarioConfig, make_link_budget, make_sweep_plan
from .montecarlo import McConfig, estimate_errors, retry_seed
from .optimizer import SweepCurve, sweep_sectors
from .presets import (
    CONFIG_KEYS,
    INT_KEYS,
    PRESET_VALUES,
    REPRO_SWEEPS,
    ConfigError,
    build_scenario,
    dump_config_text,
    format_value,
    load_config_values,
    parse_scalar,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2
EXIT_MC_FAIL = 3

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 42

SWEEP_HEADER = "m,l_sector,phi_w,alpha,beta,xi,kl_exact,pinsker_lb"
_ANALYZE_COLUMNS = "m,l_sector,phi_w,alpha,beta,xi,kl_exact,kl_approx,pinsker_lb"
ANALYZE_HEADER = f"{_ANALYZE_COLUMNS},pinsker_vacuous"
VALIDATE_HEADER = (
    "l_s,phi_w,trials,seed,retried,"
    "alpha,alpha_hat,ci_alpha,beta,beta_hat,ci_beta,xi,xi_hat,pass"
)


# ---------------------------------------------------------------------------
# overrides and output helpers


def _split_overrides(pairs: list[str]) -> dict[str, str]:
    raw: dict[str, str] = {}
    for item in pairs:
        key, sep, text = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        if key in raw:
            raise ConfigError(f"override key '{key}' given twice")
        raw[key] = text.strip()
    return raw


def _apply_scenario_overrides(
    raw: dict[str, str], values: dict[str, float | int]
) -> None:
    for key in [k for k in raw if k in CONFIG_KEYS]:
        values[key] = parse_scalar(key, raw.pop(key), key in INT_KEYS, where="--set")


def _reject_unknown(raw: dict[str, str]) -> None:
    if raw:
        raise ConfigError(f"unknown override key '{sorted(raw)[0]}'")


def _parse_list(key: str, text: str, as_int: bool) -> list[float] | list[int]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"override '{key}' needs at least one value")
    return [parse_scalar(key, piece, as_int, where="--set") for piece in items]


def _write_atomic(path: str, text: str) -> None:
    # A temp file under a unique name in the target directory, so concurrent
    # runs writing the same output never share one and the final rename stays
    # atomic. os.open applies the process umask to 0o666, which gives the
    # file the permissions open() would, without reading the umask.
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f"{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _text(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: str, rows: Iterable[Sequence]) -> str:
    return _text([header, *(",".join(map(format_value, row)) for row in rows)])


def _record_rows(columns: str, analysis: DetectionAnalysis) -> list[str]:
    """CSV rows of an analysis, one per sector count; each column is its field of that name.

    One printf format, built from the column names, writes every row: '%d'
    for the sector count and '%.17g' for the floats, which is the routine
    ``format_value`` runs, so the cells are the same.
    """
    names = columns.split(",")
    row = ",".join("%d" if name == "m" else "%.17g" for name in names)
    cells = (np.atleast_1d(getattr(analysis, name)).tolist() for name in names)
    return list(map(row.__mod__, zip(*cells)))


def _curve_text(curve: SweepCurve, with_minimizer: bool = False) -> str:
    """The CSV of an error curve, optionally with the minimizer as a trailer line."""
    lines = [SWEEP_HEADER, *_record_rows(SWEEP_HEADER, curve.analysis)]
    if with_minimizer:
        lines.append(f"# m_star={curve.m_star},xi_star={format_value(curve.xi_star)}")
    return _text(lines)


def _require_out(args: argparse.Namespace) -> str:
    if not args.out:
        raise ConfigError(f"command '{args.command}' requires --out")
    return args.out


def _load_scenario_for(
    args: argparse.Namespace, raw: dict[str, str]
) -> tuple[dict[str, float | int], ScenarioConfig]:
    """The config values after --set overrides, and the scenario they build."""
    if not args.config:
        raise ConfigError(f"command '{args.command}' requires --config")
    values = load_config_values(args.config)
    _apply_scenario_overrides(raw, values)
    return values, build_scenario(values)


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed arguments and the --set overrides
# not yet consumed, and returns an exit code.


def _run_analyze(args: argparse.Namespace, raw: dict[str, str]) -> int:
    values, cfg = _load_scenario_for(args, raw)
    m = parse_scalar("m", raw.pop("m"), as_int=True, where="--set") if "m" in raw else 1
    _reject_unknown(raw)
    if args.dump_config:
        sys.stdout.write(dump_config_text(values))
        if not args.out:
            return EXIT_OK
    out = _require_out(args)
    result = analyze_scenario(cfg, m)
    (row,) = _record_rows(_ANALYZE_COLUMNS, result)
    _write_atomic(out, _text([ANALYZE_HEADER, f"{row},{format_value(result.pinsker_vacuous)}"]))
    return EXIT_OK


def _run_curve(args: argparse.Namespace, raw: dict[str, str]) -> int:
    """sweep-m writes the error curve; optimize adds the minimizer as a trailer."""
    _, cfg = _load_scenario_for(args, raw)
    _reject_unknown(raw)
    out = _require_out(args)
    curve = sweep_sectors(cfg)
    _write_atomic(out, _curve_text(curve, with_minimizer=args.command == "optimize"))
    if args.command == "optimize":
        print(f"m_star={curve.m_star} xi_star={format_value(curve.xi_star)}")
    return EXIT_OK


def _validate_cells(args: argparse.Namespace, raw: dict[str, str]) -> list[tuple[int, float]]:
    """Resolve the (integer l_s, phi_w) cells a validate run should check."""
    if args.config:
        if "l_s" in raw or "phi_w" in raw:
            raise ConfigError(
                "with --config, validate derives l_s and phi_w from the scenario; "
                "use --set m=... to pick sector counts"
            )
        m_list = _parse_list("m", raw.pop("m"), as_int=True) if "m" in raw else [1]
        _, cfg = _load_scenario_for(args, raw)
        cells = []
        for m in m_list:
            plan = make_sweep_plan(cfg, m)
            budget = make_link_budget(cfg, plan)
            l_int = cfg.l_total // m
            if l_int < 1:
                raise ConfigError(
                    f"m={m} leaves no whole symbol per sector (l_total={cfg.l_total})"
                )
            if cfg.l_total % m != 0:
                print(
                    f"note: l_total={cfg.l_total} not divisible by m={m}; "
                    f"Monte Carlo validates l_s={l_int} instead of "
                    f"{plan.l_sector:.6g}",
                    file=sys.stderr,
                )
            cells.append((l_int, budget.phi_w))
        return cells
    if "m" in raw:
        raise ConfigError("--set m=... requires --config")
    ls_list = (
        _parse_list("l_s", raw.pop("l_s"), as_int=True) if "l_s" in raw else [1, 4, 16]
    )
    phi_list = (
        _parse_list("phi_w", raw.pop("phi_w"), as_int=False)
        if "phi_w" in raw
        else [0.1, 1.0, 10.0]
    )
    return [(l_s, phi) for l_s in ls_list for phi in phi_list]


def _run_validate(args: argparse.Namespace, raw: dict[str, str]) -> int:
    cells = _validate_cells(args, raw)
    _reject_unknown(raw)
    out = _require_out(args)

    rows = []
    all_pass = True
    for l_s, phi_w in cells:
        alpha = false_alarm(float(l_s), phi_w)
        beta = miss_detection(float(l_s), phi_w)
        # One reseeded rerun before declaring a defect; the retry seed is a
        # fixed function of the original so reruns stay reproducible.
        for retried, seed in ((False, args.seed), (True, retry_seed(args.seed))):
            mc = McConfig(trials=args.trials, seed=seed, l_sector_int=l_s)
            est = estimate_errors(phi_w, mc)
            ok = (
                abs(est.alpha_hat - alpha) <= 3.0 * est.ci_halfwidth_alpha
                and abs(est.beta_hat - beta) <= 3.0 * est.ci_halfwidth_beta
            )
            if ok:
                break
        all_pass = all_pass and ok
        # In VALIDATE_HEADER order.
        rows.append([
            l_s, phi_w, args.trials, seed, retried,
            alpha, est.alpha_hat, est.ci_halfwidth_alpha,
            beta, est.beta_hat, est.ci_halfwidth_beta,
            alpha + beta, est.xi_hat, ok,
        ])
    _write_atomic(out, _csv(VALIDATE_HEADER, rows))
    return EXIT_OK if all_pass else EXIT_MC_FAIL


def _run_repro(args: argparse.Namespace, raw: dict[str, str]) -> int:
    out_dir = _require_out(args)
    base = dict(PRESET_VALUES[args.preset])
    sweep_key, default_list = REPRO_SWEEPS[args.preset]
    if sweep_key in raw:
        sweep_values = _parse_list(sweep_key, raw.pop(sweep_key), sweep_key in INT_KEYS)
    else:
        sweep_values = list(default_list)
    _apply_scenario_overrides(raw, base)
    _reject_unknown(raw)

    os.makedirs(out_dir, exist_ok=True)
    for value in sweep_values:
        curve = sweep_sectors(build_scenario({**base, sweep_key: value}))
        # The exact value, so sweep values that agree to a few digits never
        # share a file name.
        name = f"{args.preset}_{sweep_key}_{format_value(value)}.csv"
        path = os.path.join(out_dir, name)
        _write_atomic(path, _curve_text(curve))
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # numerical-failure code; route usage problems through ConfigError -> 1.
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged: the ``append`` action of ``--set``
    copies its default list before appending to it, nothing else writes to
    that list, and the handlers the parser names look up module globals when
    they are called.
    """
    parser = _Parser(prog="beamsweep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, summary, config=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if config:
            p.add_argument("--config", help="scenario config file (key=value lines)")
        p.add_argument("--out", help="output CSV path")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key or command parameter (repeatable)",
        )
        return p

    p = add_command("analyze", _run_analyze, "closed-form results at one sector count")
    p.add_argument(
        "--dump-config",
        action="store_true",
        help="echo the effective config in canonical form to stdout",
    )
    add_command("sweep-m", _run_curve, "error curve over every sector count")
    add_command("optimize", _run_curve, "error curve plus the optimal sector count")

    p = add_command("validate", _run_validate, "Monte Carlo check of the closed forms")
    p.add_argument(
        "--trials",
        type=int,
        default=DEFAULT_TRIALS,
        help=f"trials per hypothesis (default {DEFAULT_TRIALS})",
    )
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"base RNG seed (default {DEFAULT_SEED})"
    )

    p = add_command(
        "repro", _run_repro, "shipped parameter studies, one CSV per curve", config=False
    )
    p.add_argument("preset", choices=sorted(PRESET_VALUES))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line; returns its exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args, _split_overrides(args.set))
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
