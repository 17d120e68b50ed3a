"""Scenario parameters, sector geometry, and the warden's link budget.

Everything downstream works in two normalized coordinates derived here: the
per-sector sample count ``l_sector`` and the post-beamforming SNR ``phi_w``.
All powers are SI watts internally; dBm appears only at the config-file
boundary.

Sector counts and SNRs may be scalars or numpy arrays, so a whole error
curve is one array evaluation: a scalar input gives Python numbers back, an
array input arrays of its shape, which the curve's ``DetectionAnalysis``
keeps as its columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s

# A scalar, or a numpy array evaluated element by element.
FloatOrArray = float | np.ndarray


def require(ok, message: str, *values, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` for the first element where ``ok`` is false.

    ``message`` is formatted with the Python value of each of ``values`` at
    that element, so an array call fails with the message a call on that
    element alone would give.
    """
    ok = np.asarray(ok, dtype=bool)
    if not ok.all():
        shape = np.broadcast_shapes(ok.shape, *map(np.shape, values))
        first = int(np.argmin(np.broadcast_to(ok, shape)))
        raise error(message.format(*(np.broadcast_to(v, shape).item(first) for v in values)))


def scalar_or_array(value: np.ndarray) -> FloatOrArray:
    """A 0-d result as a Python number, any other as the array."""
    return value.item() if value.ndim == 0 else value


def elementwise_log1p(x: np.ndarray) -> np.ndarray:
    """ln(1+x) by ``math.log1p`` on each element of an array.

    np.log1p differs from math.log1p in the last bit on some inputs; keeping
    math.log1p keeps every closed-form value, and so every CSV byte, as it
    was before the closed forms took arrays.
    """
    flat = x.ravel().tolist()
    return np.fromiter(map(math.log1p, flat), float, count=len(flat)).reshape(x.shape)


def dbm_to_watt(p_dbm: float) -> float:
    """Convert a power level in dBm to watts.

    Raises ValueError if the power in watts overflows a float.
    """
    try:
        return 10.0 ** ((p_dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{p_dbm} dBm overflows a float in watts") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and system parameters of one surveillance scenario.

    Attributes:
        pa_watt: transmit power of the covert source [W].
        noise_watt: per-antenna noise variance at the warden [W].
        theta_t: beamspace width of the suspicious angular range; with
            half-wavelength element spacing the full visible range has
            width 2, so theta_t must lie in (0, 2].
        n_antennas: number of antennas at the warden.
        l_total: total number of symbols observed over one full sweep.
        d_aw: source-to-warden distance [m].
        path_exp: path loss exponent (2 = free-space line of sight).
        carrier_hz: carrier frequency [Hz].
    """

    pa_watt: float
    noise_watt: float
    theta_t: float
    n_antennas: int
    l_total: int
    d_aw: float
    path_exp: float = 2.0
    carrier_hz: float = 2.4e9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pa_watt) and self.pa_watt > 0.0):
            raise ValueError(f"pa_watt must be finite and > 0, got {self.pa_watt}")
        if not (math.isfinite(self.noise_watt) and self.noise_watt > 0.0):
            raise ValueError(f"noise_watt must be finite and > 0, got {self.noise_watt}")
        if not (math.isfinite(self.theta_t) and 0.0 < self.theta_t <= 2.0):
            raise ValueError(f"theta_t must lie in (0, 2], got {self.theta_t}")
        if self.n_antennas < 1:
            raise ValueError(f"n_antennas must be >= 1, got {self.n_antennas}")
        if not math.isfinite(self.n_antennas * self.theta_t):  # m_max must be finite
            raise ValueError(f"n_antennas * theta_t overflows a float, got {self.n_antennas}")
        if self.l_total < 1:
            raise ValueError(f"l_total must be >= 1, got {self.l_total}")
        if not (math.isfinite(self.d_aw) and self.d_aw > 0.0):
            raise ValueError(f"d_aw must be finite and > 0, got {self.d_aw}")
        if not (math.isfinite(self.path_exp) and self.path_exp >= 1.0):
            raise ValueError(f"path_exp must be >= 1, got {self.path_exp}")
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0.0):
            raise ValueError(f"carrier_hz must be finite and > 0, got {self.carrier_hz}")

    @property
    def m_max(self) -> int:
        """Largest sector count the array can resolve: floor(N * theta_t / 2)."""
        return int(math.floor(self.n_antennas * self.theta_t / 2.0))


@dataclass(frozen=True)
class SweepPlan:
    """Per-sector quantities for a sweep divided into ``m_sectors`` sectors.

    For an array of sector counts every field is an array over them.
    ``l_sector`` is kept real-valued; only the Monte Carlo validator needs an
    integer sample count and floors it at its own boundary.
    """

    m_sectors: int | np.ndarray
    l_sector: FloatOrArray
    array_gain: FloatOrArray


@dataclass(frozen=True)
class LinkBudget:
    """Path loss and the post-beamforming SNR."""

    rho_aw: float
    phi_w: FloatOrArray


def path_loss(cfg: ScenarioConfig) -> float:
    """Free-space style path loss rho = (c / (4 pi f_c))^2 * d^(-path_exp).

    Raises ValueError if a factor overflows a float, e.g. for a tiny
    ``d_aw`` with a large ``path_exp``.
    """
    try:
        omega = (SPEED_OF_LIGHT / (4.0 * math.pi * cfg.carrier_hz)) ** 2
        return omega * cfg.d_aw ** (-cfg.path_exp)
    except OverflowError:
        raise ValueError(
            f"path loss overflows a float at d_aw={cfg.d_aw}, path_exp={cfg.path_exp}, "
            f"carrier_hz={cfg.carrier_hz}"
        ) from None


def make_sweep_plan(cfg: ScenarioConfig, m: int | np.ndarray) -> SweepPlan:
    """Divide the suspicious range into ``m`` sectors.

    The steered array concentrates its gain on one sector at a time, so the
    gain is inversely proportional to the sector width: gain = 2 / width =
    2 m / theta_t. Raises ValueError if ``m`` is outside [1, m_max].
    """
    m_max = cfg.m_max
    m = np.asarray(m)
    require(
        (1 <= m) & (m <= m_max), f"sector count m={{}} outside the feasible range [1, {m_max}]", m
    )
    # Python's int division rounds l_total / m once for any l_total; numpy
    # would round l_total to a double first.
    l_sector = np.array([cfg.l_total / k for k in m.ravel().tolist()], dtype=float)
    return SweepPlan(
        m_sectors=scalar_or_array(m),
        l_sector=scalar_or_array(l_sector.reshape(m.shape)),
        array_gain=scalar_or_array(2.0 * m / cfg.theta_t),
    )


def make_link_budget(cfg: ScenarioConfig, plan: SweepPlan) -> LinkBudget:
    """Compute the path loss and the warden's SNR phi_w = pa * rho * gain / noise.

    Raises ValueError at the first sector count whose phi_w overflows.
    """
    rho = path_loss(cfg)
    phi_w = cfg.pa_watt * rho * plan.array_gain / cfg.noise_watt
    require(np.isfinite(phi_w) & (phi_w >= 0.0), "phi_w must be finite and >= 0, got {}", phi_w)
    return LinkBudget(rho_aw=rho, phi_w=phi_w)


def _threshold_terms(phi_w: FloatOrArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ln(1+phi) and phi for a checked ``phi_w``, with phi = 0 read as 1, and where it was 0."""
    phi = np.asarray(phi_w, dtype=float)
    require(np.isfinite(phi) & (phi >= 0.0), "phi_w must be finite and >= 0, got {}", phi)
    zero = phi == 0.0
    phi = np.where(zero, 1.0, phi)
    return elementwise_log1p(phi), phi, zero


def h0_threshold_factor(phi_w: FloatOrArray) -> FloatOrArray:
    """Test threshold in units of the mean no-signal statistic per sample.

    Equals ln(1+phi)(1+1/phi); tends to 1 as phi -> 0 (a blind test sits at
    the mean) and grows like ln(phi) for large phi.
    """
    log_term, phi, zero = _threshold_terms(phi_w)
    return scalar_or_array(np.where(zero, 1.0, log_term + log_term / phi))


def h1_threshold_factor(phi_w: FloatOrArray) -> FloatOrArray:
    """Test threshold in units of the mean signal-present statistic per sample.

    Equals ln(1+phi)/phi, the previous factor divided by (1+phi); tends to 1
    as phi -> 0 and to 0 as phi -> infinity.
    """
    log_term, phi, zero = _threshold_terms(phi_w)
    return scalar_or_array(np.where(zero, 1.0, log_term / phi))
