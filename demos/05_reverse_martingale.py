"""The stationary-to-current density ratio as a reverse-time martingale.

Along a relaxing diffusion the ratio pbar(X_t) / p_t(X_t) has constant
mean one, and conditioning on the state at a later time reproduces the
ratio there: looking backward in time it is a martingale. Both facts are
checked empirically: the mean at every stored time, and the binned
conditional means of the one-step-backward ratio against the current one.
"""

from varentropy_lab import (
    OUBenchmark,
    SolverConfig,
    ensemble_times,
    gaussian_density,
    invariant_density,
    make_uniform_grid,
    martingale_diagnostic,
    simulate_ensemble,
    solve,
)

bench = OUBenchmark(0.25)
grid = make_uniform_grid(-8.0, 8.0, 801)
p0 = gaussian_density(grid, 0.0, 0.25)
pbar = invariant_density(bench.model(), grid)

paths = simulate_ensemble(bench.model(), p0, dt=2.5e-3, t_end=0.25,
                          n_paths=40_000, seed=99)
traj = solve(p0, bench.model(), ensemble_times(2.5e-3, 0.25), SolverConfig(dt=1e-3))
rows = martingale_diagnostic(paths.T, traj, pbar, bins=make_uniform_grid(-3, 3, 25))

print("reverse-time martingale diagnostic, start N(0, 1/4)")
print(f"{'t':>7} {'mean ratio':>11} {'std err':>9} {'cond resid':>11} {'pooled se':>10}")
for r in rows[:: len(rows) // 10]:
    cond = f"{r.cond_residual:>11.5f}" if r.cond_residual is not None else f"{'-':>11}"
    pooled = f"{r.cond_pooled_se:>10.5f}" if r.cond_pooled_se is not None else f"{'-':>10}"
    print(f"{r.time:>7.4f} {r.mean_ratio:>11.5f} {r.se_ratio:>9.5f} {cond} {pooled}")

worst_mean = max(abs(r.mean_ratio - 1.0) / r.se_ratio for r in rows)
cond_rows = [r for r in rows if r.cond_residual is not None]
worst_cond = max(r.cond_residual / r.cond_pooled_se for r in cond_rows)
print(f"\nworst |mean - 1| / se:          {worst_mean:.2f}")
print(f"worst cond residual / pooled:   {worst_cond:.2f}")
print("(values near or below 1 are pure sampling noise; 3 is the test bound)")
print("\nnote: early on, p_t is much narrower than pbar, so the ratio is")
print("heavy-tailed and the mean's standard error is itself noisy; the")
print("binned conditional statistic does not suffer from this.")
