"""Benchmark of the beamsweep command line, driven in process through ``cli.main``.

Usage, from the repository root:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N]

One workload runs per process, single-threaded. After a warm-up pass the
workload's fixed command list is repeated, whole passes only, until
``--seconds`` have elapsed. The outputs of the warm-up are then checked
against references computed apart from the package (``checks.py``), and
every repetition must be byte-identical to the warm-up. With ``--trace 0``
the last line of stdout is a JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of traced passes
(``spans.py``), which alternate with untraced ones so the tracing overhead
is measured too.
``--workload all`` runs every workload both ways in child processes and
prints one table. Metric names and units live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
DEFAULT_SEED = 42  # also validate's own default seed
SETUP_REPEATS = 15
# Share of the traced passes' wall time that may lie outside the root spans.
TRACE_UNCOVERED = 0.05
LARGE_ARRAY = {"n_antennas": 4096, "theta_t": 2.0, "l_total": 100000}
# The single-thread guarantee; set before numpy loads, inherited by children.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import numpy, scipy.special
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import beamsweep.cli
print(t1 - t0, time.perf_counter() - t1)
"""
clock = time.perf_counter


@dataclass(frozen=True)
class Command:
    """One CLI invocation, where it writes, and how its outputs are checked."""

    argv: tuple[str, ...]
    output: Path  # a CSV file, or the directory `repro` writes into
    check: Callable  # (checks module, Reference, files, stdout, exit code) -> (errors, Stats)
    cells: int = 0  # validate cells the command simulates


def read_config(path: Path) -> dict[str, float]:
    """Scenario values from a key=value config file, defaults filled in."""
    values = {"path_exp": 2.0, "carrier_hz": 2.4e9}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            body = line.split("#", 1)[0].strip()
            if body:
                key, _, text = body.partition("=")
                values[key.strip()] = float(text)
    return values


def first_difference(a: bytes, b: bytes) -> int | None:
    """Offset of the first byte where two outputs differ, or None if equal."""
    if a == b:
        return None
    for offset, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return offset
    return min(len(a), len(b))


def _collect(path: Path) -> dict[str, bytes]:
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.suffix == ".csv"}
    return {path.name: path.read_bytes()} if path.is_file() else {}


def _text(files: dict[str, bytes], name: str) -> str:
    return files[name].decode("utf-8") if name in files else ""


def build_commands(workload: str, seed: int, work: Path) -> list[Command]:
    """The fixed command list of one workload pass."""
    def curve_cmds(cfg: Path, scenario: dict, tag: str, overrides=()) -> list[Command]:
        sets = tuple(a for key, value in overrides for a in ("--set", f"{key}={value:g}"))
        base = ("--config", str(cfg)) + sets
        sweep, opt = work / f"{tag}_sweep.csv", work / f"{tag}_optimize.csv"
        return [
            Command(("sweep-m",) + base + ("--out", str(sweep)), sweep, lambda ck, ref, f, o, c:
                    ck.check_curve(_text(f, sweep.name), scenario, ref, f"sweep-m {tag}")),
            Command(("optimize",) + base + ("--out", str(opt)), opt, lambda ck, ref, f, o, c:
                    ck.check_curve(_text(f, opt.name), scenario, ref, f"optimize {tag}", stdout=o)),
        ]

    def repro_cmd(fig: str, key: str, values: tuple) -> Command:
        out = work / f"repro_{fig}"
        base = read_config(CONFIGS / f"{fig}.cfg")
        names = [f"{fig}_{key}_{value:g}.csv" for value in values]

        def check(ck, ref, files, stdout, code):
            errors, stats = [], ck.Stats()
            for name, value in zip(names, values):
                e, s = ck.check_curve(_text(files, name), {**base, key: value}, ref, f"repro {name}")
                errors += e
                stats.add(s)
            if stdout != "".join(f"{out / name}\n" for name in names):
                errors.append(f"repro {fig}: stdout {stdout!r}")
            return errors, stats

        return Command(("repro", fig, "--out", str(out)), out, check)

    def validate_cmd(tag: str, sets: tuple[str, ...], cells, trials=100_000, cmd_seed=None) -> Command:
        out = work / f"validate_{tag}.csv"
        argv = ("validate",) + tuple(a for s in sets for a in ("--set", s))
        if trials != 100_000:
            argv += ("--trials", str(trials))
        if cmd_seed is not None:
            argv += ("--seed", str(cmd_seed))
        used_seed = DEFAULT_SEED if cmd_seed is None else cmd_seed
        return Command(argv + ("--out", str(out)), out, lambda ck, ref, f, o, c: ck.check_validate(
            _text(f, out.name), cells, trials, used_seed, c, ref, f"validate {tag}"), len(cells))

    mc_seed = seed % 2**64
    if workload == "curves-presets":
        commands = []
        for fig in ("fig2", "fig3"):
            cfg = CONFIGS / f"{fig}.cfg"
            scenario = read_config(cfg)
            analyze = work / f"{fig}_analyze.csv"
            commands += curve_cmds(cfg, scenario, fig)
            commands.append(Command(
                ("analyze", "--config", str(cfg), "--set", "m=8", "--out", str(analyze)), analyze,
                lambda ck, ref, f, o, c, scenario=scenario, analyze=analyze: ck.check_analyze(
                    _text(f, analyze.name), scenario, 8, ref, f"analyze {analyze.stem}")))
        return commands + [
            repro_cmd("fig2", "noise_dbm", (-50.0, -60.0)),
            repro_cmd("fig3", "l_total", (32.0, 160.0)),
        ]
    if workload == "curve-large-array":
        cfg = CONFIGS / "fig3.cfg"
        scenario = {**read_config(cfg), **LARGE_ARRAY}
        return curve_cmds(cfg, scenario, "large", tuple(LARGE_ARRAY.items()))[1:]  # optimize only
    if workload == "validate-grid":
        # The default grid without (16, 10): with 0.13 and 0.29 expected events
        # in 1e5 trials, whether validate exits 3 there depends on the seed.
        return [
            validate_cmd("l1_l4", ("l_s=1,4",), [(l, p) for l in (1, 4) for p in (0.1, 1.0, 10.0)],
                         cmd_seed=mc_seed),
            validate_cmd("l16", ("l_s=16", "phi_w=0.1,1"), [(16, 0.1), (16, 1.0)], cmd_seed=mc_seed),
        ]
    if workload == "validate-long-dwell":
        return [
            validate_cmd("l160_phi0.3", ("l_s=160", "phi_w=0.3"), [(160, 0.3)], cmd_seed=mc_seed),
            # Fails every time (exit 3) on fixed inputs: no event occurs, and
            # the Wald interval of estimate_errors has zero width at zero events.
            validate_cmd("l160_phi10", ("l_s=160", "phi_w=10"), [(160, 10.0)], trials=20_000),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def measure_setup(repeats: int) -> list[tuple[float, float, float]]:
    """(wall, deps, package) seconds for a fresh interpreter to import beamsweep.cli."""
    samples = []
    for _ in range(repeats):
        start = clock()
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        wall = clock() - start
        deps, package = map(float, proc.stdout.split())
        samples.append((wall, deps, package))
    return samples


def run_pass(commands: list[Command], main) -> tuple[float, list[float], list[int], list[str]]:
    """Run the command list once: pass time, per-command times, exit codes, stdouts."""
    times, codes, stdouts = [], [], []
    start = clock()
    for cmd in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = clock()
            code = main(list(cmd.argv))
            times.append(clock() - t0)
        codes.append(code)
        stdouts.append(out.getvalue())
    return clock() - start, times, codes, stdouts


def run_workload(workload: str, seed: int, seconds: float, trace: bool, cli, work: Path) -> dict:
    # Imported here, not at the top: it loads numpy, which must see _THREAD_VARS.
    import spans

    commands = build_commands(workload, seed, work)
    setup = measure_setup(SETUP_REPEATS)
    modules = spans.layer_modules()
    tracer = spans.Tracer(modules) if trace else None
    traced_main = tracer.wrap("cli", "main", cli.main) if trace else None
    probe = spans.AllocProbe(modules, "montecarlo") if trace else contextlib.nullcontext()

    with probe:
        _, _, warm_codes, warm_stdouts = run_pass(commands, cli.main)
    warm_files = [_collect(c.output) for c in commands]

    pass_s, cmd_s, traced_s, summaries = [], [], [], []
    repeat_errors = [None] * len(commands)
    bad = [0] * len(commands)  # repetitions that exited non-zero or differed
    start = clock()
    while not pass_s or clock() - start < seconds:
        for traced in (False, True) if trace else (False,):
            if traced:
                with tracer.traced():
                    elapsed, times, codes, stdouts = run_pass(commands, traced_main)
                traced_s.append(elapsed)
                summaries.append(tracer.summarize())
            else:
                elapsed, times, codes, stdouts = run_pass(commands, cli.main)
                pass_s.append(elapsed)
                cmd_s.extend(times)
            for i, cmd in enumerate(commands):
                diff = repeat_difference(cmd, warm_files[i], _collect(cmd.output),
                                          (warm_codes[i], warm_stdouts[i]), (codes[i], stdouts[i]))
                repeat_errors[i] = repeat_errors[i] or diff
                bad[i] += bool(codes[i] != 0 or diff)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The output checks run only now, so that mpmath and the references they
    # compute do not count toward peak_rss_mb.
    import checks

    ref = checks.Reference()
    check_errors, stats = [], []
    for cmd, files, stdout, code in zip(commands, warm_files, warm_stdouts, warm_codes):
        errors, s = cmd.check(checks, ref, files, stdout, code)
        if code != 0 and not files:
            errors = []  # a failed command that wrote nothing has nothing to check
        check_errors.append(errors)
        stats.append(s)
    rounds = len(pass_s) + len(traced_s)
    attempted = rounds * len(commands)
    failed = sum(rounds if errs else n for errs, n in zip(check_errors, bad))

    errors = [e for errs in check_errors for e in errs] + [e for e in repeat_errors if e]
    for cmd, code in zip(commands, warm_codes):
        if code != 0:
            print(f"command exit {code}: {' '.join(cmd.argv)}")
    for cmd, s in zip(commands, stats):
        if s.alpha_underflow or s.xi_star_rel_err:
            rel = ", xi_star rel err " + ", ".join(f"{r:.3g}" for r in s.xi_star_rel_err) \
                if s.xi_star_rel_err else ""
            print(f"stat {cmd.argv[0]} {cmd.output.name}: alpha == 0.0 with reference > 0 in "
                  f"{s.alpha_underflow} of {s.rows} rows{rel}")

    if not trace:
        metrics = {
            "setup_s": statistics.median(w for w, _, _ in setup),
            "run_s": statistics.median(pass_s),
            # Median over the commands of each command's median: a plain median
            # of pooled times would fall in the gap between unlike commands.
            "cmd_s_p50": statistics.median(statistics.median(cmd_s[i::len(commands)])
                                           for i in range(len(commands))),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        cells = sum(c.cells for c in commands)
        written = sum(len(b) for files in warm_files for b in files.values())
        per_pass = [layer_metrics(s, written, cells) for s in summaries]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["montecarlo.peak_alloc_mb"] = probe.peak_bytes / 2**20
        metrics["setup.deps_s"] = statistics.median(d for _, d, _ in setup)
        metrics["setup.package_s"] = statistics.median(p for _, _, p in setup)
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(pass_s)
        # Self times sum to the root spans' time by construction. What can fail
        # is coverage: the root spans must hold nearly all of the traced passes'
        # wall time, the rest being the harness's own work between commands.
        root_s, wall_s = sum(s.root_s for s in summaries), sum(traced_s)
        if not (1 - TRACE_UNCOVERED) * wall_s <= root_s <= wall_s:
            errors.append(f"trace: spans cover {root_s!r} s of {wall_s!r} s of traced passes")
        print(f"trace: spans cover {root_s / wall_s:.4%} of the traced passes' wall time; "
              f"{len(summaries)} traced and {len(pass_s)} untraced passes")
    for e in errors:
        print(f"error: {e}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics,
            "passes": rounds}


def repeat_difference(cmd: Command, first: dict, again: dict, first_run, again_run) -> str | None:
    """Why a repetition of a command differs from its warm-up run, or None."""
    where = " ".join(cmd.argv[:1] + (cmd.output.name,))
    if first.keys() != again.keys():
        return f"{where}: repetition wrote {sorted(again)} instead of {sorted(first)}"
    for name in first:
        offset = first_difference(first[name], again[name])
        if offset is not None:
            return f"{where}: repetition of {name} differs at byte {offset}"
    if first_run != again_run:
        return f"{where}: repetition exit code or stdout differs"
    return None


def layer_metrics(s, bytes_written: int, cells: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a ratio with nothing to divide by is 0."""
    def per(total: float, count: int, scale: float) -> float:
        return total * scale / count if count else 0.0

    return {
        "cli.self_s": s.self_s["cli"],
        "cli.bytes_written": bytes_written,
        "cli.mc_calls_per_cell": per(s.mc_calls, cells, 1.0),
        "optimizer.self_s": s.self_s["optimizer"],
        "optimizer.us_per_entry": per(s.self_s["optimizer"], s.optimizer_entries, 1e6),
        "analysis.calls": s.calls["analysis"],
        "analysis.self_s": s.self_s["analysis"],
        "specfun.evals": s.specfun_evals,
        "specfun.self_s": s.self_s["specfun"],
        "specfun.ns_per_eval": per(s.self_s["specfun"], s.specfun_evals, 1e9),
        "core.calls": s.calls["core"],
        "core.self_s": s.self_s["core"],
        "montecarlo.self_s": s.self_s["montecarlo"],
        "montecarlo.us_per_trial": per(s.self_s["montecarlo"], s.mc_trials, 1e6),
        "montecarlo.ns_per_sample": per(s.self_s["montecarlo"], s.mc_samples, 1e9),
    }


def machine_info() -> str:
    import numpy
    import scipy

    return (f"machine: python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} nproc={len(os.sched_getaffinity(0))}")


def run_one(args, spec: dict) -> int:
    if not (SRC / "beamsweep" / "cli.py").is_file():
        print(f"error: no beamsweep sources under {SRC}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import beamsweep.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported beamsweep from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if units.keys() != result["metrics"].keys():
        print(f"error: metrics {sorted(result['metrics'])} do not match BENCHMARK.json {kind} "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    print(machine_info())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={result.pop('passes')} "
          f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for name, value in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in its own process; one table."""
    status, table = 0, []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            table.append((workload, trace, result))
    print()
    print(f"{'workload':<22}{'trace':>6}{'attempted':>10}{'failed':>8}  correct")
    for workload, trace, r in table:
        print(f"{workload:<22}{trace:>6}{r['attempted']:>10}{r['failed']:>8}  {r['correct']}")
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"\n{'metric':<28}{'unit':<7}" + "".join(f"{w:>22}" for w in workloads))
    values = {(w, name): r["metrics"][name] for w, _, r in table for name in r["metrics"]}
    for name in names:
        cells = [values.get((w, name)) for w in workloads]
        unit = next((c["unit"] for c in cells if c), "")
        print(f"{name:<28}{unit:<7}" + "".join(f"{c['value']:>22.6g}" if c else f"{'-':>22}" for c in cells))
    return status


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds validate --seed (mod 2**64) on the validate workloads")
    # The benchmark is invoked as BENCHMARK.json's command followed by
    # --workload, --seed, --seconds and --trace, with --seconds set to run_seconds.
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the measured window; BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
