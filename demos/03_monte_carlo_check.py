"""Checking the closed forms by simulation.

Each Monte Carlo trial draws the per-sector energy statistic directly in
beamspace and compares it to the fixed threshold; the empirical false-alarm
and miss rates should land within a few Wilson half-widths of the
closed-form values. Each chunk of trials is a substream keyed by the seed
and the chunk index, so rerunning with the same seed reproduces every digit.

One ``estimate_cells`` call checks the whole grid: both hypotheses count
from the same draws, and the cells that share a dwell l_s share its one
trial stream, so the nine cells draw three streams.

Run: python demos/03_monte_carlo_check.py
"""

from beamsweep import McConfig, estimate_cells, false_alarm, miss_detection

TRIALS = 200_000
SEED = 2024

# A cell is (l_s, phi_w), in the closed forms' argument order; one McConfig
# gives every cell of the call its trials and seed.
grid = [(l_s, phi_w) for l_s in (1, 4, 16) for phi_w in (0.1, 1.0, 10.0)]
mc = McConfig(trials=TRIALS, seed=SEED)
estimates = estimate_cells(grid, mc)

print(f"{TRIALS} trials per hypothesis, seed {SEED}")
print()
print("  l_s   phi_w    alpha (exact)  alpha_hat      beta (exact)  beta_hat")
for (l_s, phi_w), est in zip(grid, estimates):
    alpha = false_alarm(float(l_s), phi_w)
    beta = miss_detection(float(l_s), phi_w)
    print(
        f"  {l_s:3d}   {phi_w:5.1f}   {alpha:12.6f}   {est.alpha_hat:.6f}"
        f" +-{est.ci_halfwidth_alpha:.6f}"
        f"   {beta:10.6f}   {est.beta_hat:.6f} +-{est.ci_halfwidth_beta:.6f}"
    )

print()
(est_a,) = estimate_cells([(4, 1.0)], mc)
(est_b,) = estimate_cells([(4, 1.0)], mc)
print(f"rerun with the same seed is bit-identical: {est_a == est_b}")

(est_c,) = estimate_cells([(4, 1.0)], McConfig(trials=TRIALS, seed=SEED + 1))
print(f"a different seed moves the estimates:      {est_a != est_c}")
