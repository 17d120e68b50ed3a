"""Scenario parameters and the sweep plan.

Everything downstream works in two normalized coordinates, the cell
``(l_sector, phi_w)`` that ``make_sweep_plan`` derives here in one step from
a scenario and a sector count: the per-sector sample count and the
post-beamforming SNR.
All powers are SI watts internally; dBm appears only at the config-file
boundary.

Sector counts and SNRs may be scalars or numpy arrays, so a whole error
curve is one array evaluation: a scalar input gives Python numbers back, an
array input arrays of its shape, which the curve's ``DetectionAnalysis``
keeps as its columns.

``run_jobs`` is the package's one runner of independent jobs over threads,
on which ``validate``'s Monte Carlo runs its chunks.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from typing import TypeVar

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s

# A scalar, or a numpy array evaluated element by element.
FloatOrArray = float | np.ndarray
# A ``run_jobs`` worker's own state.
State = TypeVar("State")


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
    and that overhead is most of the cost of evaluating one point. An integer
    beyond the float range becomes inf of its sign, as a float literal that
    large would, so the caller's own finiteness check names it.
    """
    try:
        return np.asarray(x, dtype=float)[()]
    except OverflowError:
        return np.vectorize(_float_or_inf, otypes=[float])(np.asarray(x, dtype=object))[()]


def _float_or_inf(x) -> float:
    """``float(x)``, or inf of its sign for an integer beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def scalar_or_array(value: np.ndarray) -> FloatOrArray:
    """A 0-d result as a Python number, any other as the array.

    A float64 scalar is a ``float`` subclass, and ``float()`` of one costs a
    fraction of its ``.item()``; a 0-d array (an int one may hold a Python
    int beyond int64) goes through ``.item()``, which is cheap on an array.
    """
    if isinstance(value, float):
        return float(value)
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


def run_jobs(n_jobs: int, work: Callable[[State, int], object], states: Sequence[State]) -> None:
    """Run ``work(state, job)`` for every job in ``range(n_jobs)``, one worker per state.

    The calling thread is the worker of ``states[0]``, beside one helper
    thread for each further state; with no states, no job runs. Each worker
    claims the next job in index order and passes its own state, so a
    worker's state needs no lock. The first job to fail, in job order,
    raises here as it would from a loop over the jobs, and no job starts
    after a failure. No helper thread outlives the call: each one started
    is joined before the call returns or raises, after an error, an
    interrupt on any thread or a helper that failed to start.
    """
    claim = threading.Lock()
    pending = iter(range(n_jobs))
    stop = threading.Event()
    failures: list[tuple[int, BaseException]] = []  # (job, its error)

    def next_job() -> int | None:
        with claim:
            return None if stop.is_set() else next(pending, None)

    def worker(state: State) -> None:
        for job in iter(next_job, None):
            try:
                work(state, job)
            except BaseException as exc:  # on a helper thread it would be lost
                failures.append((job, exc))
                stop.set()

    helpers: list[threading.Thread] = []
    try:
        for state in states[1:]:
            helper = threading.Thread(target=worker, args=(state,))
            helper.start()
            helpers.append(helper)
        if states:
            worker(states[0])
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if failures:
        # Every job ahead of the first failure in job order has run.
        raise min(failures, key=lambda failure: failure[0])[1]


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


def make_sweep_plan(
    cfg: ScenarioConfig, m: int | np.ndarray
) -> tuple[FloatOrArray, FloatOrArray]:
    """Divide the suspicious range into ``m`` sectors: the cell ``(l_sector, phi_w)``.

    The dwell and the SNR are the two numbers that fix the detector in a
    sector: two Python floats for one ``m``, two arrays of its shape for an
    array. The dwell is real-valued: l_total / m, whether or not m divides
    l_total. The steered array concentrates its gain on one sector at a time,
    so the gain is inversely proportional to the sector width: gain = 2 /
    width = 2 m / theta_t, and the warden's SNR is phi_w = pa * rho * gain /
    noise.
    Raises ValueError if ``m`` is outside [1, m_max], if the path loss
    overflows, or at the first sector count whose phi_w overflows.
    """
    m_max = cfg.m_max
    m = np.asarray(m)
    require(
        (1 <= m) & (m <= m_max), f"sector count m={{}} outside the feasible range [1, {m_max}]", m
    )
    # l_total / m rounded once. Up to 2**53 both operands are exact doubles,
    # so numpy's division gives that quotient; above, numpy would round
    # l_total to a double first, and only Python's int division stays exact.
    if max(cfg.l_total, m_max) <= 2**53:
        l_sector = np.true_divide(float(cfg.l_total), m)
    else:
        l_sector = np.reshape([cfg.l_total / k for k in m.ravel().tolist()], m.shape)
    # A Python float for one m, so phi_w is one too. An overflow gives inf,
    # which the check below names, without a numpy warning ahead of it.
    with np.errstate(over="ignore"):
        gain = scalar_or_array(2.0 * as_floats(m) / cfg.theta_t)
        phi_w = cfg.pa_watt * path_loss(cfg) * gain / cfg.noise_watt
    require(finite_nonnegative(phi_w), "phi_w must be finite and >= 0, got {}", phi_w)
    return scalar_or_array(l_sector), phi_w

