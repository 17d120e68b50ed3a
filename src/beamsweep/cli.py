"""Command-line front end.

Subcommands:
    analyze    one CSV row of closed-form results at a given sector count
    sweep-m    full error curve over every feasible sector count
    optimize   the same curve plus a summary line with the minimizer
    validate   closed form vs Monte Carlo with a pass/fail flag per cell
    repro      the shipped fig2/fig3 parameter studies, one CSV per curve

Configs are flat ``key=value`` text with ``#`` comments; powers are given in
dBm and converted at this boundary. Exit codes: 0 success, 1 validation or
parse failure, 2 numerical convergence failure, 3 Monte Carlo validation
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from .analysis import ConvergenceError, analyze_scenario, false_alarm, miss_detection
from .core import ScenarioConfig, make_link_budget, make_sweep_plan
from .montecarlo import McConfig, estimate_errors, retry_seed
from .optimizer import sweep_sectors
from .presets import (
    CANONICAL_ORDER,
    CONFIG_KEYS,
    INT_KEYS,
    PRESET_VALUES,
    REPRO_SWEEPS,
    ConfigError,
    build_scenario,
    effective_values,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2
EXIT_MC_FAIL = 3

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 42

SWEEP_HEADER = "m,l_sector,phi_w,alpha,beta,xi,kl_exact,pinsker_lb"
ANALYZE_HEADER = (
    "m,l_sector,phi_w,alpha,beta,xi,kl_exact,kl_approx,pinsker_lb,pinsker_vacuous"
)
VALIDATE_HEADER = (
    "l_s,phi_w,trials,seed,retried,"
    "alpha,alpha_hat,ci_alpha,beta,beta_hat,ci_beta,xi,xi_hat,pass"
)


@dataclass(frozen=True)
class RunSpec:
    """One resolved CLI invocation."""

    command: str
    config_path: str | None
    output_path: str | None
    overrides: tuple[str, ...] = ()
    mc_trials: int | None = None
    seed: int | None = None
    preset: str | None = None
    dump_config: bool = False


# ---------------------------------------------------------------------------
# config parsing


def _parse_scalar(key: str, text: str, where: str = "") -> float | int:
    prefix = f"{where}: " if where else ""
    if key in INT_KEYS:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(
                f"{prefix}key '{key}' expects an integer, got '{text}'"
            ) from None
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{prefix}key '{key}' expects a number, got '{text}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"{prefix}key '{key}' must be finite, got '{text}'")
    return value


def load_config_values(path: str) -> dict[str, float | int]:
    """Read a key=value config file, rejecting unknown or repeated keys."""
    values: dict[str, float | int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got '{body}'")
            key, _, text = body.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            values[key] = _parse_scalar(key, text, where=f"{path}:{lineno}")
    return values


def parse_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario config file."""
    return build_scenario(load_config_values(path))


def dump_config_text(values: dict[str, float | int]) -> str:
    """Canonical config text that reparses to an identical scenario."""
    full = effective_values(values)
    lines = [f"{key}={_fmt(full[key])}" for key in CANONICAL_ORDER]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# overrides and output helpers


def _split_overrides(pairs: tuple[str, ...]) -> dict[str, str]:
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
        values[key] = _parse_scalar(key, raw.pop(key), where="--set")


def _reject_unknown(raw: dict[str, str]) -> None:
    if raw:
        raise ConfigError(f"unknown override key '{sorted(raw)[0]}'")


def _parse_list(key: str, text: str, as_int: bool) -> list[float] | list[int]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"override '{key}' needs at least one value")
    out = []
    for piece in items:
        try:
            out.append(int(piece) if as_int else float(piece))
        except ValueError:
            kind = "integer" if as_int else "number"
            raise ConfigError(
                f"override '{key}' expects a comma-separated list of {kind}s, "
                f"got '{text}'"
            ) from None
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    # 17 significant digits: enough for binary round-trip of any double.
    return format(float(value), ".17g")


def _write_atomic(path: str, text: str) -> None:
    # A unique temp file in the target directory, so concurrent runs writing
    # the same output never share one and the final rename stays atomic.
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=f"{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        # mkstemp creates the file private; give it the permissions open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv(header: str, rows: list[list], trailer: str | None = None) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    if trailer is not None:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _require_out(spec: RunSpec) -> str:
    if not spec.output_path:
        raise ConfigError(f"command '{spec.command}' requires --out")
    return spec.output_path


def _load_scenario_for(
    spec: RunSpec, raw: dict[str, str]
) -> tuple[dict[str, float | int], ScenarioConfig]:
    """The config values after --set overrides, and the scenario they build."""
    if not spec.config_path:
        raise ConfigError(f"command '{spec.command}' requires --config")
    values = load_config_values(spec.config_path)
    _apply_scenario_overrides(raw, values)
    return values, build_scenario(values)


def _sweep_rows(curve) -> list[list]:
    return [
        [e.m, e.l_sector, e.phi_w, e.alpha, e.beta, e.xi, e.kl_exact, e.pinsker_lb]
        for e in curve.entries
    ]


# ---------------------------------------------------------------------------
# command handlers


def _run_analyze(spec: RunSpec) -> int:
    raw = _split_overrides(spec.overrides)
    values, cfg = _load_scenario_for(spec, raw)
    m = 1
    if "m" in raw:
        text = raw.pop("m")
        try:
            m = int(text)
        except ValueError:
            raise ConfigError(f"--set: key 'm' expects an integer, got '{text}'") from None
    _reject_unknown(raw)
    if spec.dump_config:
        sys.stdout.write(dump_config_text(values))
        if not spec.output_path:
            return EXIT_OK
    out = _require_out(spec)
    result = analyze_scenario(cfg, m)
    row = [
        result.m,
        result.l_sector,
        result.phi_w,
        result.alpha,
        result.beta,
        result.xi,
        result.kl_exact,
        result.kl_approx,
        result.pinsker_lb,
        result.pinsker_vacuous,
    ]
    _write_atomic(out, _csv(ANALYZE_HEADER, [row]))
    return EXIT_OK


def _run_sweep(spec: RunSpec) -> int:
    raw = _split_overrides(spec.overrides)
    _, cfg = _load_scenario_for(spec, raw)
    _reject_unknown(raw)
    out = _require_out(spec)
    curve = sweep_sectors(cfg)
    _write_atomic(out, _csv(SWEEP_HEADER, _sweep_rows(curve)))
    return EXIT_OK


def _run_optimize(spec: RunSpec) -> int:
    raw = _split_overrides(spec.overrides)
    _, cfg = _load_scenario_for(spec, raw)
    _reject_unknown(raw)
    out = _require_out(spec)
    curve = sweep_sectors(cfg)
    trailer = f"# m_star={curve.m_star},xi_star={_fmt(curve.xi_star)}"
    _write_atomic(out, _csv(SWEEP_HEADER, _sweep_rows(curve), trailer=trailer))
    print(f"m_star={curve.m_star} xi_star={_fmt(curve.xi_star)}")
    return EXIT_OK


def _validate_cells(spec: RunSpec, raw: dict[str, str]) -> list[tuple[int, float]]:
    """Resolve the (integer l_s, phi_w) cells a validate run should check."""
    if spec.config_path:
        if "l_s" in raw or "phi_w" in raw:
            raise ConfigError(
                "with --config, validate derives l_s and phi_w from the scenario; "
                "use --set m=... to pick sector counts"
            )
        m_list = _parse_list("m", raw.pop("m"), as_int=True) if "m" in raw else [1]
        _, cfg = _load_scenario_for(spec, raw)
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


def _run_validate(spec: RunSpec) -> int:
    raw = _split_overrides(spec.overrides)
    cells = _validate_cells(spec, raw)
    _reject_unknown(raw)
    out = _require_out(spec)
    trials = spec.mc_trials if spec.mc_trials is not None else DEFAULT_TRIALS
    seed = spec.seed if spec.seed is not None else DEFAULT_SEED

    rows = []
    all_pass = True
    for l_s, phi_w in cells:
        alpha = false_alarm(float(l_s), phi_w)
        beta = miss_detection(float(l_s), phi_w)
        used_seed = seed
        retried = False
        est = estimate_errors(phi_w, McConfig(trials=trials, seed=used_seed, l_sector_int=l_s))
        ok = _within_three_halfwidths(est, alpha, beta)
        if not ok:
            # One reseeded rerun before declaring a defect; the retry seed is
            # a fixed function of the original so reruns stay reproducible.
            used_seed = retry_seed(seed)
            retried = True
            est = estimate_errors(
                phi_w, McConfig(trials=trials, seed=used_seed, l_sector_int=l_s)
            )
            ok = _within_three_halfwidths(est, alpha, beta)
        all_pass = all_pass and ok
        rows.append(
            [
                l_s,
                phi_w,
                trials,
                used_seed,
                retried,
                alpha,
                est.alpha_hat,
                est.ci_halfwidth_alpha,
                beta,
                est.beta_hat,
                est.ci_halfwidth_beta,
                alpha + beta,
                est.xi_hat,
                ok,
            ]
        )
    _write_atomic(out, _csv(VALIDATE_HEADER, rows))
    return EXIT_OK if all_pass else EXIT_MC_FAIL


def _within_three_halfwidths(est, alpha: float, beta: float) -> bool:
    return (
        abs(est.alpha_hat - alpha) <= 3.0 * est.ci_halfwidth_alpha
        and abs(est.beta_hat - beta) <= 3.0 * est.ci_halfwidth_beta
    )


def _run_repro(spec: RunSpec) -> int:
    if spec.preset not in PRESET_VALUES:
        raise ConfigError(f"unknown preset '{spec.preset}'")
    out_dir = _require_out(spec)
    raw = _split_overrides(spec.overrides)
    base = dict(PRESET_VALUES[spec.preset])
    sweep_key, default_list = REPRO_SWEEPS[spec.preset]
    sweep_is_int = sweep_key in INT_KEYS
    if sweep_key in raw:
        sweep_values = _parse_list(sweep_key, raw.pop(sweep_key), as_int=sweep_is_int)
    else:
        sweep_values = [int(v) if sweep_is_int else v for v in default_list]
    _apply_scenario_overrides(raw, base)
    _reject_unknown(raw)

    os.makedirs(out_dir, exist_ok=True)
    for value in sweep_values:
        values = dict(base)
        values[sweep_key] = value
        curve = sweep_sectors(build_scenario(values))
        name = f"{spec.preset}_{sweep_key}_{value:g}.csv"
        path = os.path.join(out_dir, name)
        _write_atomic(path, _csv(SWEEP_HEADER, _sweep_rows(curve)))
        print(path)
    return EXIT_OK


_HANDLERS = {
    "analyze": _run_analyze,
    "sweep-m": _run_sweep,
    "optimize": _run_optimize,
    "validate": _run_validate,
    "repro": _run_repro,
}


def run(spec: RunSpec) -> int:
    """Execute a resolved invocation, mapping failures to exit codes."""
    try:
        handler = _HANDLERS[spec.command]
    except KeyError:
        print(f"error: unknown command '{spec.command}'", file=sys.stderr)
        return EXIT_INVALID
    try:
        return handler(spec)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # numerical-failure code; route usage problems through ConfigError -> 1.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamsweep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
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

    p = sub.add_parser("analyze", help="closed-form results at one sector count")
    add_common(p)
    p.add_argument(
        "--dump-config",
        action="store_true",
        help="echo the effective config in canonical form to stdout",
    )

    p = sub.add_parser("sweep-m", help="error curve over every sector count")
    add_common(p)

    p = sub.add_parser("optimize", help="error curve plus the optimal sector count")
    add_common(p)

    p = sub.add_parser("validate", help="Monte Carlo check of the closed forms")
    add_common(p)
    p.add_argument("--trials", type=int, help=f"trials per hypothesis (default {DEFAULT_TRIALS})")
    p.add_argument("--seed", type=int, help=f"base RNG seed (default {DEFAULT_SEED})")

    p = sub.add_parser("repro", help="shipped parameter studies, one CSV per curve")
    p.add_argument("preset", choices=sorted(PRESET_VALUES))
    add_common(p, config=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    spec = RunSpec(
        command=args.command,
        config_path=getattr(args, "config", None),
        output_path=args.out,
        overrides=tuple(args.set),
        mc_trials=getattr(args, "trials", None),
        seed=getattr(args, "seed", None),
        preset=getattr(args, "preset", None),
        dump_config=getattr(args, "dump_config", False),
    )
    return run(spec)
