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
an ``analyze`` row is the ``DetectionAnalysis`` field of the same name. A
curve's rows are made by ``csvrows`` in blocks, the bytes of '%.17g' for
every cell, ``m`` too, whose whole doubles it writes as '%d' would, and
each block goes to the output file before the next is made; the one
``analyze`` row, like every ``validate`` row, is ``format_value`` of each
cell, which writes the same bytes. Each ``validate`` row is the closed
forms at its cell: the cells come from the grid, the product of the ``l_s``
and ``phi_w`` lists, or from ``make_sweep_plan`` over the ``--config``
sector counts, the first step of ``analyze_scenario``, so such a row is the
curve row of its ``m``; one ``false_alarm`` and one ``miss_detection`` call
evaluate every cell.
Exit codes: 0 success, 1 validation, parse or out-of-memory failure, 2
numerical convergence failure, 3 Monte Carlo validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .analysis import (
    ConvergenceError,
    analyze_scenario,
    false_alarm,
    miss_detection,
)
from .core import ScenarioConfig, make_sweep_plan
from .csvrows import record_blocks
from .montecarlo import McConfig, McEstimate, estimate_cells, retry_seed
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
ANALYZE_HEADER = "m,l_sector,phi_w,alpha,beta,xi,kl_exact,kl_approx,pinsker_lb,pinsker_vacuous"
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


def _write_atomic(outputs: Iterable[tuple[str, Iterable[str]]]) -> None:
    # All outputs or none: each output's text pieces go, in order and as each
    # is made, to a temp file under a unique name in its target's directory,
    # and none is renamed before the last is staged. The outputs and their
    # pieces may come from generators, so one piece is held at a time.
    # Unique names keep concurrent runs apart and the renames atomic; they do
    # not embed the target's name, so they fit wherever it fits. os.open
    # applies the process umask to 0o666, which gives the files the
    # permissions open() would, without reading the umask.
    staged: list[tuple[str, str]] = []  # (temp file, target), not yet renamed
    tmp = path = ""
    try:
        for path, pieces in outputs:
            # A name the file system cannot hold fails here, before its
            # pieces are made, not at the rename; only a missing target is fine.
            with contextlib.suppress(FileNotFoundError):
                os.lstat(path)
            tmp = os.path.join(os.path.dirname(path), f".beamsweep-{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with open(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(pieces)
        # A rename onto a directory fails after the earlier ones landed, so
        # every target is checked first. This narrows that window, but a
        # directory made after the check still fails a later rename.
        for _, path in staged:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        while staged:
            tmp, path = staged[0]
            os.replace(tmp, path)
            del staged[0]
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # The temp name is random and not one the user gave: name the target.
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)


def _text(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


def _curve_pieces(curve: SweepCurve, with_minimizer: bool = False) -> Iterator[str]:
    """The CSV of an error curve in pieces, optionally with the minimizer as a trailer line."""
    yield SWEEP_HEADER + "\n"
    yield from record_blocks(SWEEP_HEADER, curve.analysis)
    if with_minimizer:
        yield f"# m_star={curve.m_star},xi_star={format_value(curve.xi_star)}\n"


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
    row = ",".join(format_value(getattr(result, name)) for name in ANALYZE_HEADER.split(","))
    _write_atomic([(out, [_text([ANALYZE_HEADER, row])])])
    return EXIT_OK


def _run_curve(args: argparse.Namespace, raw: dict[str, str]) -> int:
    """sweep-m writes the error curve; optimize adds the minimizer as a trailer."""
    _, cfg = _load_scenario_for(args, raw)
    _reject_unknown(raw)
    out = _require_out(args)
    curve = sweep_sectors(cfg)
    _write_atomic([(out, _curve_pieces(curve, with_minimizer=args.command == "optimize"))])
    if args.command == "optimize":
        print(f"m_star={curve.m_star} xi_star={format_value(curve.xi_star)}")
    return EXIT_OK


def _confirms(est: McEstimate, alpha: float, beta: float) -> bool:
    """Whether both closed forms lie within three half-widths of the estimates."""
    return (
        abs(est.alpha_hat - alpha) <= 3.0 * est.ci_halfwidth_alpha
        and abs(est.beta_hat - beta) <= 3.0 * est.ci_halfwidth_beta
    )


def _run_validate(args: argparse.Namespace, raw: dict[str, str]) -> int:
    if args.config:
        if "l_s" in raw or "phi_w" in raw:
            raise ConfigError(
                "with --config, validate derives l_s and phi_w from the scenario; "
                "use --set m=... to pick sector counts"
            )
        m = _parse_list("m", raw.pop("m", "1"), as_int=True)
        _, cfg = _load_scenario_for(args, raw)
    elif "m" in raw:
        raise ConfigError("--set m=... requires --config")
    else:
        ls_list = _parse_list("l_s", raw.pop("l_s", "1,4,16"), as_int=False)
        phi_list = _parse_list("phi_w", raw.pop("phi_w", "0.1,1,10"), as_int=False)
        grid = np.array([(l_s, phi) for l_s in ls_list for phi in phi_list]).T
    _reject_unknown(raw)
    out = _require_out(args)

    # Every check runs before any Monte Carlo stream starts: the run
    # parameters, then the cells' checks in the closed forms' one array
    # pass, which estimate_cells repeats from the same code.
    mc = McConfig(trials=args.trials, seed=args.seed)
    l_s, phi_w = make_sweep_plan(cfg, m) if args.config else grid
    alpha, beta = false_alarm(l_s, phi_w).tolist(), miss_detection(l_s, phi_w).tolist()
    cells = list(zip(l_s.tolist(), phi_w.tolist()))
    estimates = estimate_cells(cells, mc)
    # One reseeded rerun of each failing cell before declaring a defect; the
    # retry seed is a fixed function of the original, so reruns reproduce.
    failing = [i for i, est in enumerate(estimates) if not _confirms(est, alpha[i], beta[i])]
    retry = retry_seed(args.seed)
    retried = estimate_cells([cells[i] for i in failing], McConfig(trials=args.trials, seed=retry))
    for i, est in zip(failing, retried):
        estimates[i] = est

    passed = [_confirms(*row) for row in zip(estimates, alpha, beta)]
    lines = [VALIDATE_HEADER]
    for i, est in enumerate(estimates):
        row = (  # in VALIDATE_HEADER order
            *cells[i], args.trials, retry if i in failing else args.seed, i in failing,
            alpha[i], est.alpha_hat, est.ci_halfwidth_alpha,
            beta[i], est.beta_hat, est.ci_halfwidth_beta,
            alpha[i] + beta[i], est.alpha_hat + est.beta_hat, passed[i],
        )
        lines.append(",".join(map(format_value, row)))
    _write_atomic([(out, [_text(lines)])])
    return EXIT_OK if all(passed) else EXIT_MC_FAIL


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

    # Every scenario is built, and so checked, before any file is written.
    configs = [build_scenario({**base, sweep_key: value}) for value in sweep_values]
    # The exact value, so sweep values that agree to a few digits never share a file name.
    paths = [os.path.join(out_dir, f"{args.preset}_{sweep_key}_{format_value(value)}.csv")
             for value in sweep_values]
    created = []  # the directories this run makes, innermost first
    head = os.path.abspath(out_dir)
    while not os.path.isdir(head):
        created.append(head)
        head = os.path.dirname(head)
    os.makedirs(out_dir, exist_ok=True)
    try:
        _write_atomic((path, _curve_pieces(sweep_sectors(cfg))) for path, cfg in zip(paths, configs))
    except BaseException:
        for directory in created:
            os.rmdir(directory)
        raise
    print("\n".join(paths))
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
        "--trials", type=int, default=DEFAULT_TRIALS,
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
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
