"""The varentropy rate formula, validated two independent ways.

The time derivative of the varentropy of p_t relative to the stationary
density equals

    sigma^2 * E[ (-logratio(X) - 1 + entropy) * slope(X)^2 ],

an expectation under p_t of a bracket with no definite sign. On the
Gaussian benchmark this must reproduce -(1 - v_t)^2 exactly; off the
Gaussian family no closed form exists, and the formula is checked against
a central finite difference of the varentropy along the solved trajectory.
"""

import numpy as np

from varentropy_lab import (
    OUBenchmark,
    SolverConfig,
    central_difference,
    double_well_drift,
    gaussian_density,
    invariant_density,
    make_uniform_grid,
    mixture_density,
    report,
    solve,
)

# Gaussian case: formula vs closed form
bench = OUBenchmark(0.25)
grid = make_uniform_grid(-8.0, 8.0, 801)
pbar = invariant_density(bench.model(), grid)
p0 = gaussian_density(grid, 0.0, 0.25)
traj = solve(p0, bench.model(), np.linspace(0, 3, 61), SolverConfig(dt=1e-3))
rep = report(traj, pbar, 1.0)

print("Gaussian benchmark: varentropy rate")
print(f"{'t':>6} {'formula':>12} {'closed form':>12} {'rel err':>10}")
for t, rate in zip(rep.time[::12].tolist(), rep.varentropy_rate[::12].tolist()):
    exact = bench.varentropy_rate(t)
    rel = abs(rate - exact) / abs(exact)
    print(f"{t:>6.2f} {rate:>12.6f} {exact:>12.6f} {rel:>10.2e}")

# double well: formula vs trajectory finite difference
model = double_well_drift()
grid_dw = make_uniform_grid(-3.5, 3.5, 701)
pbar_dw = invariant_density(model, grid_dw)
p0_dw = mixture_density(grid_dw, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)])
traj_dw = solve(p0_dw, model, np.linspace(0, 1.2, 121), SolverConfig(dt=1e-3))
rep_dw = report(traj_dw, pbar_dw, model.sigma)
rate, fd = rep_dw.varentropy_rate[1:-1], central_difference(rep_dw.varentropy, rep_dw.time)
rel = np.abs(rate - fd) / np.maximum(np.abs(fd), 1e-6)

print("\ndouble well: varentropy rate vs finite difference of the varentropy")
print(f"{'t':>6} {'formula':>12} {'finite diff':>12} {'rel err':>10}")
# interior sample k is entry k - 1 of the interior columns
for k in range(20, len(rep_dw) - 1, 20):
    print(f"{rep_dw.time[k]:>6.2f} {rate[k - 1]:>12.6f} {fd[k - 1]:>12.6f} {rel[k - 1]:>10.2e}")
print(f"\nworst relative mismatch over {len(fd)} interior times: {rel.max():.2e}")
