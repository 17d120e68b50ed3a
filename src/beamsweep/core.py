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
from dataclasses import dataclass, fields

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
    if ok is True or ok is np.True_:  # one element that passes: no array needed
        return
    ok = np.asarray(ok, dtype=bool)
    # count_nonzero is a fraction of the cost of ok.all() on the few elements
    # of a preset curve.
    if np.count_nonzero(ok) != ok.size:
        shape = np.broadcast_shapes(ok.shape, *map(np.shape, values))
        first = int(np.argmin(np.broadcast_to(ok, shape)))
        raise error(message.format(*(np.broadcast_to(v, shape).item(first) for v in values)))


def finite_positive(x: FloatOrArray):
    """Elementwise 0 < x < inf; nan fails both comparisons.

    Two comparisons cost the same as ``np.isfinite(x) & (x > 0)`` on an
    array, and far less on a number.
    """
    return (0.0 < x) & (x < math.inf)


def finite_nonnegative(x: FloatOrArray):
    """Elementwise 0 <= x < inf; nan fails both comparisons."""
    return (0.0 <= x) & (x < math.inf)


def as_floats(x) -> FloatOrArray:
    """``x`` as float64: a numpy scalar for a 0-d input, an array for any other.

    Arithmetic on a numpy scalar costs a fraction of the same on a 0-d array,
    and that overhead is most of the cost of evaluating one point.
    """
    return np.asarray(x, dtype=float)[()]


def scalar_or_array(value: np.ndarray) -> FloatOrArray:
    """A 0-d result as a Python number, any other as the array."""
    return value.item() if value.ndim == 0 else value


def fields_equal(self, other) -> bool:
    """``__eq__`` for records whose fields may be numpy arrays.

    Compares field by field like the generated dataclass ``__eq__`` (where a
    field holding the same object, even nan, is equal), but an array field
    compares by ``np.array_equal``, so equal curves compare True instead of
    raising on an ambiguous truth value.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(a is b or np.array_equal(a, b) for a, b in pairs)


def elementwise_log1p(x: FloatOrArray) -> FloatOrArray:
    """ln(1+x) by ``math.log1p`` on each element, shaped like ``as_floats``.

    np.log1p differs from math.log1p in the last bit on some inputs; keeping
    math.log1p keeps every closed-form value, and so every CSV byte, as it
    was before the closed forms took arrays.
    """
    flat = x.ravel().tolist()
    return np.fromiter(map(math.log1p, flat), float, count=len(flat)).reshape(x.shape)[()]


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

    __eq__ = fields_equal


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
        array_gain=scalar_or_array(2.0 * as_floats(m) / cfg.theta_t),
    )


def make_link_budget(cfg: ScenarioConfig, plan: SweepPlan) -> LinkBudget:
    """Compute the path loss and the warden's SNR phi_w = pa * rho * gain / noise.

    Raises ValueError at the first sector count whose phi_w overflows.
    """
    rho = path_loss(cfg)
    phi_w = cfg.pa_watt * rho * plan.array_gain / cfg.noise_watt
    require(finite_nonnegative(phi_w), "phi_w must be finite and >= 0, got {}", phi_w)
    return LinkBudget(rho_aw=rho, phi_w=phi_w)


def _threshold_factors(
    log_term: FloatOrArray, phi: FloatOrArray
) -> tuple[FloatOrArray, FloatOrArray]:
    """The H0 and H1 threshold factors from ``log_term`` = ln(1+phi) at phi > 0.

    The H1 factor is ln(1+phi)/phi and the H0 factor ln(1+phi) + ln(1+phi)/phi,
    so one division serves both.
    """
    h1 = log_term / phi
    return log_term + h1, h1


def _checked_threshold_factors(phi_w: FloatOrArray) -> tuple[np.ndarray, np.ndarray]:
    """Both threshold factors of a checked ``phi_w``; phi = 0 gives 1 for both."""
    phi = as_floats(phi_w)
    require(finite_nonnegative(phi), "phi_w must be finite and >= 0, got {}", phi)
    zero = phi == 0.0
    phi = np.where(zero, 1.0, phi)
    h0, h1 = _threshold_factors(elementwise_log1p(phi), phi)
    return np.where(zero, 1.0, h0), np.where(zero, 1.0, h1)


def h0_threshold_factor(phi_w: FloatOrArray) -> FloatOrArray:
    """Test threshold in units of the mean no-signal statistic per sample.

    Equals ln(1+phi)(1+1/phi); tends to 1 as phi -> 0 (a blind test sits at
    the mean) and grows like ln(phi) for large phi.
    """
    return scalar_or_array(_checked_threshold_factors(phi_w)[0])


def h1_threshold_factor(phi_w: FloatOrArray) -> FloatOrArray:
    """Test threshold in units of the mean signal-present statistic per sample.

    Equals ln(1+phi)/phi, the previous factor divided by (1+phi); tends to 1
    as phi -> 0 and to 0 as phi -> infinity.
    """
    return scalar_or_array(_checked_threshold_factors(phi_w)[1])
