"""How many sectors should the warden sweep?

Splitting the suspicious angular range into more sectors narrows the beam,
which raises the SNR toward whichever sector the source occupies, but it
also shrinks the dwell time: the symbol budget is shared across sectors.
With a small budget the two effects trade off and an interior sector count
is optimal.

Run: python demos/01_sector_tradeoff.py
"""

from beamsweep import analyze_scenario, fig3_config, sweep_sectors

cfg = fig3_config()
print("Scenario: weak transmitter, 32 observed symbols")
print(f"  transmit power   {cfg.pa_watt * 1e3:.1f} mW")
print(f"  noise variance   {cfg.noise_watt:.1e} W")
print(f"  antennas         {cfg.n_antennas}")
print(f"  standoff         {cfg.d_aw:.0f} m")
print(f"  feasible sectors 1 .. {cfg.m_max}")
print()

curve = sweep_sectors(cfg)
# One array per quantity over m = 1..m_max; element m - 1 belongs to m.
a = curve.analysis

print("   m   samples/sector     SNR    alpha     beta      xi")
for m in (1, 2, 4, 8, 16, 24, 31, 40, 56, 67):
    i = m - 1
    marker = "  <-- optimum" if m == curve.m_star else ""
    print(
        f"  {m:3d}   {a.l_sector[i]:10.3f}   {a.phi_w[i]:8.4f}"
        f"  {a.alpha[i]:.4f}   {a.beta[i]:.4f}   {a.xi[i]:.4f}{marker}"
    )

print()
print(
    f"The detection error falls until m = {curve.m_star} "
    f"(xi = {curve.xi_star:.4f}) and rises beyond it: past the optimum, the"
)
print(
    "extra beamforming gain no longer compensates for having fewer than "
    f"{a.l_sector[curve.m_star - 1]:.1f} samples in each sector."
)
print()

# The same question at one fixed sector count, through the one-shot API:
result = analyze_scenario(cfg, curve.m_star)
print(f"analyze_scenario(cfg, {curve.m_star}) -> xi = {result.xi:.6f}, "
      f"KL divergence = {result.kl_exact:.4f} nats")
