"""The config-file format, scenario values in its coordinates, and the shipped presets.

A scenario is written as flat key=value pairs with powers in dBm and ``#``
comments. The keys, their canonical order, which are integers and which may
be left out are read off the ScenarioConfig fields, so a scenario parameter
is declared there alone. ``load_config_values`` reads that format,
``dump_config_text`` writes it in canonical order with ``format_value``, and
``build_scenario`` converts the values to a ScenarioConfig at this boundary,
one field at a time in field order. The preset values below are the one
copy that ``fig2_config``/``fig3_config``, ``beamsweep repro`` and the tests
read; ``configs/*.cfg`` must match them.

Both presets share the array and geometry; they differ in transmit power and
symbol budget. At the 50 m standoff they land in the two qualitative
regimes of the sector trade-off: the small-budget scenario (fig3) has an
interior optimal sector count, while the large-budget scenario (fig2) is
best served by a single sector and only gets worse as the sweep is split
further.
"""

from __future__ import annotations

import math
import sys
import typing
from dataclasses import MISSING, fields

from .core import ScenarioConfig, dbm_to_watt

# The config schema is ScenarioConfig's: one key per field, in field order,
# of the field's kind (int or float), and under the field's name, except that
# a power the field holds in watts ("*_watt") is given in dBm ("*_dbm").
_KINDS = typing.get_type_hints(ScenarioConfig)
_FIELD_KEYS = {
    f.name: f.name.removesuffix("_watt") + "_dbm" if f.name.endswith("_watt") else f.name
    for f in fields(ScenarioConfig)
}
CANONICAL_ORDER = tuple(_FIELD_KEYS.values())
CONFIG_KEYS = frozenset(CANONICAL_ORDER)
INT_KEYS = tuple(key for name, key in _FIELD_KEYS.items() if _KINDS[name] is int)
# The keys a config may leave out: the fields with a default, none of them a
# power, so each keeps its name and units.
_DEFAULT_VALUES = {
    field.name: field.default for field in fields(ScenarioConfig) if field.default is not MISSING
}

PRESET_VALUES: dict[str, dict[str, float | int]] = {
    "fig2": {
        "pa_dbm": 30.0,
        "noise_dbm": -50.0,
        "theta_t": math.pi / 3.0,
        "n_antennas": 128,
        "l_total": 160,
        "d_aw": 50.0,
        "path_exp": 2.0,
        "carrier_hz": 2.4e9,
    },
    "fig3": {
        "pa_dbm": 10.0,
        "noise_dbm": -50.0,
        "theta_t": math.pi / 3.0,
        "n_antennas": 128,
        "l_total": 32,
        "d_aw": 50.0,
        "path_exp": 2.0,
        "carrier_hz": 2.4e9,
    },
}

# Parameter swept by `repro <preset>` and its default value list; override
# with --set <key>=<comma separated values>.
REPRO_SWEEPS: dict[str, tuple[str, tuple[float | int, ...]]] = {
    "fig2": ("noise_dbm", (-50.0, -60.0)),
    "fig3": ("l_total", (32, 160)),
}


class ConfigError(ValueError):
    """A config file, override, or command combination failed validation."""


def effective_values(values: dict[str, float | int]) -> dict[str, float | int]:
    """Fill in defaulted keys and verify the required ones are present."""
    for key in CANONICAL_ORDER:
        if key not in values and key not in _DEFAULT_VALUES:
            raise ConfigError(f"missing required key '{key}'")
    return {**_DEFAULT_VALUES, **values}


def parse_scalar(key: str, text: str, as_int: bool, where: str) -> float | int:
    """One config or override value: an integer or a number, finite as a float.

    ``where``, the value's file and line or ``--set``, opens any error message.
    """
    try:
        value = int(text) if as_int else float(text)
    except ValueError:
        kind = "an integer" if as_int else "a number"
        raise ConfigError(f"{where}: key '{key}' expects {kind}, got '{text}'") from None
    # Integers are used as floats too (l_total / m, l_s, m_max), so both
    # kinds must lie within the float range; nan lies nowhere.
    if not abs(value) <= sys.float_info.max:
        problem = "exceeds the float range" if as_int else "must be finite"
        raise ConfigError(f"{where}: key '{key}' {problem}, got '{text}'")
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
            values[key] = parse_scalar(key, text, key in INT_KEYS, where=f"{path}:{lineno}")
    return values


def format_value(value) -> str:
    """A config value or CSV cell as text that reparses to the same value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    # 17 significant digits: enough for binary round-trip of any double.
    return format(float(value), ".17g")


def dump_config_text(values: dict[str, float | int]) -> str:
    """Canonical config text that reparses to an identical scenario."""
    full = effective_values(values)
    lines = [f"{key}={format_value(full[key])}" for key in CANONICAL_ORDER]
    return "\n".join(lines) + "\n"


def build_scenario(values: dict[str, float | int]) -> ScenarioConfig:
    """Construct a validated ScenarioConfig from config-file values."""
    full = effective_values(values)
    return ScenarioConfig(**{
        name: _watt(full, key) if key != name else _KINDS[name](full[key])
        for name, key in _FIELD_KEYS.items()
    })


def _watt(values: dict[str, float | int], key: str) -> float:
    """The dBm value of ``key`` in watts; an overflow names the key."""
    try:
        return dbm_to_watt(float(values[key]))
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from None


def fig2_config() -> ScenarioConfig:
    """Large symbol budget, strong transmitter: splitting sectors never helps."""
    return build_scenario(PRESET_VALUES["fig2"])


def fig3_config() -> ScenarioConfig:
    """Small symbol budget, weak transmitter: an interior sector count is optimal."""
    return build_scenario(PRESET_VALUES["fig3"])
