"""Noise power and the large-budget regime.

With 160 observed symbols and a strong transmitter, the warden already has
all the samples it needs: every split of the sweep costs more than the gain
it buys, so the error is smallest with a single sector and only grows with
the sector count. Raising the warden's noise floor shifts the whole curve
up (covert transmission becomes easier) without changing that shape.

Run: python demos/02_noise_power_effect.py
"""

import math
from dataclasses import replace

import numpy as np

from beamsweep import dbm_to_watt, fig2_config, sweep_sectors

base = fig2_config()
print("Scenario: strong transmitter, 160 observed symbols")
print(f"  transmit power {base.pa_watt:.1f} W, standoff {base.d_aw:.0f} m")
print()

noise_dbm_levels = (-50.0, -55.0, -60.0)
curves = {
    level: sweep_sectors(replace(base, noise_watt=dbm_to_watt(level)))
    for level in noise_dbm_levels
}

header = "   m  " + "".join(f"  xi @ {level:.0f} dBm" for level in noise_dbm_levels)
print(header)
for m in (1, 2, 4, 8, 16, 32, 67):
    row = f"  {m:3d}  "
    for level in noise_dbm_levels:
        row += f"  {curves[level].analysis.xi[m - 1]:11.3e}"
    print(row)

print()
for level in noise_dbm_levels:
    curve = curves[level]
    monotone = bool(np.all(np.diff(curve.analysis.xi) >= 0.0))
    print(
        f"noise {level:.0f} dBm: best sector count m = {curve.m_star}, "
        f"error non-decreasing in m: {monotone}"
    )

print()
print("Quieter receivers (lower noise) detect better at every sector count;")
print("log-scale the xi column to see the separation, e.g. at m = 1:")
for level in noise_dbm_levels:
    xi = curves[level].analysis.xi[0]
    print(f"  {level:.0f} dBm -> log10(xi) = {math.log10(xi):7.1f}")
