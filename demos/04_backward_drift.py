"""Estimating the backward drift from forward sample paths.

Running time backwards, a diffusion keeps its noise amplitude but acquires
the drift b(x) - sigma^2 d/dx ln p_t(x). The score correction is invisible
in any single path; it emerges from conditional averages of backward
increments (X_t - X_{t-dt}) / dt given X_t. At stationarity under the
drift -x/2 the correction flips the sign: the backward drift is +x/2.

The script simulates a stationary ensemble, bins the increments, and
compares against the curve computed from the density, including the pooled
noise level the agreement should be judged at.
"""

import numpy as np

from varentropy_lab import (
    OUBenchmark,
    backward_drift_on_grid,
    backward_drift_target,
    estimate_backward_drift,
    invariant_density,
    make_uniform_grid,
    simulate_ensemble,
)

bench = OUBenchmark(0.25)
grid = make_uniform_grid(-8.0, 8.0, 801)
pbar = invariant_density(bench.model(), grid)

dt = 1e-3
paths = simulate_ensemble(bench.model(), pbar, dt=dt, t_end=0.05,
                          n_paths=100_000, seed=20240801)
bins = make_uniform_grid(-3.0, 3.0, 25)
est = estimate_backward_drift(paths[:, -2], paths[:, -1], dt, bins)
curve = backward_drift_on_grid(bench.model(), pbar)

print("stationary ensemble: binned backward-increment means vs x/2")
print(f"{'center':>8} {'count':>7} {'estimate':>10} {'target':>8} {'std err':>8}")
for c, n, v, se, d in zip(est.bin_centers, est.counts, est.values,
                          est.std_errors, est.defined):
    if d:
        target = float(np.interp(c, grid.x, curve))
        print(f"{c:>8.2f} {n:>7d} {v:>10.4f} {target:>8.4f} {se:>8.4f}")

residual = est.residual(backward_drift_target(est, bench.model(), pbar))
pooled = est.pooled_standard_error()
print(f"\ncount-weighted RMS misfit: {residual:.4f}")
print(f"pooled standard error:     {pooled:.4f}")
print(f"misfit / pooled SE:        {residual / pooled:.2f}  (pure noise sits near 1)")
