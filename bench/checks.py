"""Checks of beamsweep's CLI outputs against references computed apart from it.

Nothing here imports the package. Error probabilities come from mpmath's
regularized incomplete gamma (``mpmath.gammainc``), an algorithm shared with
neither ``beamsweep.specfun`` nor the test oracles' power series. Scenario
columns (``l_sector``, ``phi_w``, the divergences) are recomputed from the
config values under mpmath. Monte Carlo estimates are judged with a
Clopper-Pearson interval, which stays open when no event is seen.

Every checker returns a list of error strings; an empty list means the
output passed. A checker that finds no rows to check reports that as an
error, so no check can pass vacuously.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import mpmath
from scipy.special import betaincinv

# Absolute accuracy that beamsweep.specfun.reg_lower_gamma documents for P(a, x).
ABS_TOL = 1e-12
# Columns recomputed in extended precision from the scenario (phi_w, kl_*).
REL_TOL = 1e-10
# Two-sided Clopper-Pearson level per estimate. A correct simulator fails a
# cell, which holds two estimates, with probability below 2e-7.
CP_LEVEL = 1e-7
REFERENCE_DPS = 20
# Model constants the CLI documents: c in m/s, and the fixed odd increment of
# the one reseeded validate retry.
SPEED_OF_LIGHT = 3.0e8
RETRY_SEED_STEP = 0x9E3779B97F4A7C15

SWEEP_COLUMNS = ("m", "l_sector", "phi_w", "alpha", "beta", "xi", "kl_exact", "pinsker_lb")
ANALYZE_COLUMNS = (
    "m", "l_sector", "phi_w", "alpha", "beta", "xi",
    "kl_exact", "kl_approx", "pinsker_lb", "pinsker_vacuous",
)
VALIDATE_COLUMNS = (
    "l_s", "phi_w", "trials", "seed", "retried", "alpha", "alpha_hat", "ci_alpha",
    "beta", "beta_hat", "ci_beta", "xi", "xi_hat", "pass",
)
_TRAILER = re.compile(r"# m_star=(\d+),xi_star=(\S+)")
_MAX_REPORTED = 3  # errors listed per check; the rest are counted


def m_max(scenario: dict[str, float]) -> int:
    return int(math.floor(int(scenario["n_antennas"]) * scenario["theta_t"] / 2.0))


@dataclass
class Stats:
    """Counts a checker prints but does not gate on."""

    rows: int = 0
    alpha_underflow: int = 0  # alpha written as 0.0 while the reference is > 0
    xi_star_rel_err: list[float] = field(default_factory=list)

    def add(self, other: Stats) -> None:
        self.rows += other.rows
        self.alpha_underflow += other.alpha_underflow
        self.xi_star_rel_err.extend(other.xi_star_rel_err)


class Reference:
    """Memoized extended-precision quantities at an operating point."""

    def __init__(self) -> None:
        self._errors: dict[tuple[float, float], tuple] = {}

    def errors(self, l_s: float, phi_w: float):
        """(alpha, beta, xi) as mpf: Q(l, l ln(1+phi)(1+1/phi)), P(l, l ln(1+phi)/phi)."""
        key = (l_s, phi_w)
        if key not in self._errors:
            with mpmath.workdps(REFERENCE_DPS):
                l, phi = mpmath.mpf(l_s), mpmath.mpf(phi_w)
                log_term = mpmath.log1p(phi)
                alpha = mpmath.gammainc(l, l * log_term * (1 + 1 / phi), mpmath.inf, regularized=True)
                beta = mpmath.gammainc(l, 0, l * log_term / phi, regularized=True)
                self._errors[key] = (alpha, beta, alpha + beta)
        return self._errors[key]

    @staticmethod
    def phi_w(scenario: dict[str, float], m: int):
        """Post-beamforming SNR P_a rho (2m/theta_t) / sigma^2 with dBm powers."""
        with mpmath.workdps(REFERENCE_DPS):
            return _signal(scenario) * (2 * m / mpmath.mpf(scenario["theta_t"])) / _noise(scenario)

    @staticmethod
    def kl_exact(l_s: float, phi_w: float):
        with mpmath.workdps(REFERENCE_DPS):
            phi = mpmath.mpf(phi_w)
            return mpmath.mpf(l_s) * (mpmath.log1p(phi) - phi / (1 + phi))

    @staticmethod
    def kl_approx(scenario: dict[str, float], m: int):
        """4 L (P rho)^2 M / ((sigma^2 theta)^2 + 2 P rho sigma^2 theta M)."""
        with mpmath.workdps(REFERENCE_DPS):
            signal = _signal(scenario)
            width = _noise(scenario) * mpmath.mpf(scenario["theta_t"])
            return 4 * int(scenario["l_total"]) * signal**2 * m / (width**2 + 2 * signal * width * m)


def _signal(scenario):
    rho = (SPEED_OF_LIGHT / (4 * mpmath.pi * mpmath.mpf(scenario["carrier_hz"]))) ** 2
    rho *= mpmath.mpf(scenario["d_aw"]) ** (-mpmath.mpf(scenario["path_exp"]))
    return mpmath.power(10, (mpmath.mpf(scenario["pa_dbm"]) - 30) / 10) * rho


def _noise(scenario):
    return mpmath.power(10, (mpmath.mpf(scenario["noise_dbm"]) - 30) / 10)


def clopper_pearson(k: int, n: int, level: float = CP_LEVEL) -> tuple[float, float]:
    """Exact binomial interval for k events in n trials at two-sided ``level``."""
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, level / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - level / 2))
    return lo, hi


class _Errors:
    """Collects failures per check name, listing a few and counting the rest."""

    def __init__(self, where: str) -> None:
        self.where = where
        self._found: dict[str, list[str]] = {}

    def require(self, ok: bool, check: str, detail: str) -> None:
        if not ok:
            self._found.setdefault(check, []).append(detail)

    def result(self) -> list[str]:
        out = []
        for check, details in self._found.items():
            more = len(details) - _MAX_REPORTED
            shown = "; ".join(details[:_MAX_REPORTED]) + (f"; +{more} more" if more > 0 else "")
            out.append(f"{self.where}: {check}: {shown}")
        return out


def _parse_csv(text: str, columns: tuple[str, ...], err: _Errors):
    """Rows as dicts of raw strings, plus the trailer line if any."""
    lines = text.split("\n")
    err.require(text.endswith("\n"), "format", "missing final newline")
    err.require(lines[0] == ",".join(columns), "format", f"header {lines[0]!r}")
    rows, trailer = [], None
    for line in lines[1:]:
        if not line:
            continue
        if line.startswith("#"):
            trailer = line
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            err.require(False, "format", f"row {line!r}")
            continue
        rows.append(dict(zip(columns, cells)))
    err.require(bool(rows), "format", "no rows")
    return rows, trailer


def _close(value: float, reference, rel: float = REL_TOL) -> bool:
    return abs(value - float(reference)) <= rel * abs(float(reference))


def _check_point(row, l_s, phi_w, ref, err, stats, tag, scenario=None, m=None):
    """Checks shared by sweep and analyze rows: the closed form at (l_s, phi_w)."""
    alpha, beta, xi = float(row["alpha"]), float(row["beta"]), float(row["xi"])
    alpha_ref, beta_ref, _ = ref.errors(l_s, phi_w)
    err.require(abs(alpha - float(alpha_ref)) <= ABS_TOL, "alpha vs mpmath",
                f"{tag}: {alpha!r} vs {mpmath.nstr(alpha_ref, 17)}")
    err.require(abs(beta - float(beta_ref)) <= ABS_TOL, "beta vs mpmath",
                f"{tag}: {beta!r} vs {mpmath.nstr(beta_ref, 17)}")
    err.require(0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0, "0 <= alpha, beta <= 1",
                f"{tag}: alpha={alpha!r} beta={beta!r}")
    err.require(xi == alpha + beta, "xi = alpha + beta", f"{tag}: {xi!r} != {alpha!r} + {beta!r}")
    if alpha == 0.0 and alpha_ref > 0:
        stats.alpha_underflow += 1
    if scenario is None:
        return
    kl, pinsker = float(row["kl_exact"]), float(row["pinsker_lb"])
    err.require(_close(kl, ref.kl_exact(l_s, phi_w)), "kl_exact vs mpmath", f"{tag}: {kl!r}")
    err.require(abs(pinsker - (1.0 - math.sqrt(kl / 2.0))) <= ABS_TOL, "pinsker_lb = 1 - sqrt(kl/2)",
                f"{tag}: {pinsker!r}")
    # The test at likelihood ratio 1 is the Bayes test, so xi = 1 - TV >= 1 - sqrt(kl/2).
    err.require(xi >= pinsker - 2 * ABS_TOL, "xi >= pinsker_lb", f"{tag}: {xi!r} < {pinsker!r}")
    err.require(l_s == int(scenario["l_total"]) / m, "l_sector = l_total/m", f"{tag}: {l_s!r}")
    err.require(_close(phi_w, ref.phi_w(scenario, m)), "phi_w vs scenario", f"{tag}: {phi_w!r}")


def check_curve(text: str, scenario: dict[str, float], ref: Reference, where: str,
                stdout: str | None = None) -> tuple[list[str], Stats]:
    """Check a sweep-m CSV, or an optimize CSV and its stdout line when ``stdout`` is given."""
    err, stats = _Errors(where), Stats()
    rows, trailer = _parse_csv(text, SWEEP_COLUMNS, err)
    expected_m = list(range(1, m_max(scenario) + 1))
    err.require([int(r["m"]) for r in rows] == expected_m, "m = 1..m_max",
                f"{len(rows)} rows, expected {len(expected_m)}")
    for row in rows:
        m = int(row["m"])
        _check_point(row, float(row["l_sector"]), float(row["phi_w"]), ref, err, stats,
                     f"m={m}", scenario, m)
    stats.rows = len(rows)
    if stdout is None:
        err.require(trailer is None, "format", f"unexpected trailer {trailer!r}")
        return err.result(), stats
    match = _TRAILER.fullmatch(trailer or "")
    err.require(match is not None, "format", f"trailer {trailer!r}")
    if match is None or not rows:
        return err.result(), stats
    m_star, xi_star = int(match.group(1)), float(match.group(2))
    ref_xi = [ref.errors(float(r["l_sector"]), float(r["phi_w"]))[2] for r in rows]
    ref_best = min(range(len(rows)), key=lambda i: (ref_xi[i], i))
    err.require(m_star == int(rows[ref_best]["m"]), "m_star = argmin of reference xi",
                f"{m_star} vs {rows[ref_best]['m']}")
    err.require(xi_star == min(float(r["xi"]) for r in rows), "xi_star = min written xi", f"{xi_star!r}")
    err.require(stdout == f"m_star={match.group(1)} xi_star={match.group(2)}\n", "stdout matches trailer",
                f"{stdout!r}")
    best = ref_xi[ref_best]
    stats.xi_star_rel_err.append(float(abs(xi_star - best) / best) if best > 0 else 0.0)
    return err.result(), stats


def check_analyze(text: str, scenario: dict[str, float], m: int, ref: Reference,
                  where: str) -> tuple[list[str], Stats]:
    """Check the single analyze row at sector count ``m``."""
    err, stats = _Errors(where), Stats()
    rows, trailer = _parse_csv(text, ANALYZE_COLUMNS, err)
    err.require(len(rows) == 1 and trailer is None, "format", f"{len(rows)} rows")
    for row in rows:
        err.require(int(row["m"]) == m, "m as requested", row["m"])
        _check_point(row, float(row["l_sector"]), float(row["phi_w"]), ref, err, stats,
                     f"m={m}", scenario, m)
        err.require(_close(float(row["kl_approx"]), ref.kl_approx(scenario, m)), "kl_approx vs mpmath",
                    row["kl_approx"])
        vacuous = "true" if float(row["pinsker_lb"]) < 0.0 else "false"
        err.require(row["pinsker_vacuous"] == vacuous, "pinsker_vacuous = pinsker_lb < 0",
                    row["pinsker_vacuous"])
    stats.rows = len(rows)
    return err.result(), stats


def _events(estimate: float, trials: int, err: _Errors, tag: str) -> int:
    count = round(estimate * trials)
    err.require(0 <= count <= trials and count / trials == estimate, "estimate = count/trials",
                f"{tag}: {estimate!r}")
    return count


def check_validate(text: str, cells: list[tuple[int, float]], trials: int, seed: int,
                   exit_code: int, ref: Reference, where: str) -> tuple[list[str], Stats]:
    """Check a validate CSV: closed forms, estimates, seeds, and the exit code."""
    err, stats = _Errors(where), Stats()
    rows, trailer = _parse_csv(text, VALIDATE_COLUMNS, err)
    err.require(trailer is None, "format", f"unexpected trailer {trailer!r}")
    got_cells = [(int(r["l_s"]), float(r["phi_w"])) for r in rows]
    err.require(got_cells == cells, "cells as requested", f"{got_cells}")
    for row in rows:
        l_s, phi_w = int(row["l_s"]), float(row["phi_w"])
        tag = f"l_s={l_s} phi_w={phi_w:g}"
        _check_point(row, float(l_s), phi_w, ref, err, stats, tag)
        err.require(int(row["trials"]) == trials, "trials as requested", f"{tag}: {row['trials']}")
        retried = row["retried"] == "true"
        used = (seed + RETRY_SEED_STEP) % 2**64 if retried else seed
        err.require(row["retried"] in ("true", "false") and int(row["seed"]) == used,
                    "seed, or its documented retry seed", f"{tag}: {row['seed']}")
        alpha_ref, beta_ref, _ = ref.errors(float(l_s), phi_w)
        hats = {}
        for name, truth in (("alpha", alpha_ref), ("beta", beta_ref)):
            hats[name] = float(row[f"{name}_hat"])
            count = _events(hats[name], trials, err, f"{tag} {name}_hat")
            lo, hi = clopper_pearson(count, trials)
            err.require(lo <= truth <= hi, f"{name}_hat Clopper-Pearson interval holds the reference",
                        f"{tag}: {count}/{trials} gives [{lo:.3g}, {hi:.3g}], "
                        f"reference {mpmath.nstr(truth, 6)}")
        err.require(float(row["xi_hat"]) == hats["alpha"] + hats["beta"], "xi_hat = alpha_hat + beta_hat",
                    f"{tag}: {row['xi_hat']}")
    failed_cells = any(r["pass"] != "true" for r in rows)
    err.require(exit_code == (3 if failed_cells else 0), "exit code 3 iff a cell has pass=false",
                f"exit {exit_code}")
    stats.rows = len(rows)
    return err.result(), stats
