"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``-s`` or ``-rA`` to see them
all). The shipped scenario configs under ``configs/`` are the single source
of the scenario parameters; Monte Carlo criteria run at 3 standard errors
with frozen seeds.
"""

from pathlib import Path

import numpy as np
import pytest

from varentropy_lab import (
    OUBenchmark,
    ScenarioConfig,
    SolverConfig,
    SweepConfig,
    backward_drift_target,
    central_difference,
    ensemble_times,
    estimate_backward_drift,
    invariant_density,
    make_uniform_grid,
    martingale_diagnostic,
    mc_functionals,
    monotonicity_sweep,
    relative_entropy,
    report,
    simulate_ensemble,
    solve,
    varentropy,
    varentropy_rate,
)
from varentropy_lab.grids import gaussian_density

from harmonicity import reverse_harmonic_residual, weighted_residual_norm

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _announce(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def ou_case():
    cfg = ScenarioConfig.from_json(CONFIG_DIR / "ou_benchmark.json")
    p0 = cfg.initial_density()
    pbar = cfg.stationary_density()
    traj = solve(p0, cfg.model, cfg.time_samples(), cfg.solver)
    rep = report(traj, pbar, cfg.model.sigma)
    return cfg, p0, pbar, traj, rep


@pytest.fixture(scope="module")
def dw_case():
    cfg = ScenarioConfig.from_json(CONFIG_DIR / "double_well_relax.json")
    p0 = cfg.initial_density()
    pbar = cfg.stationary_density()
    traj = solve(p0, cfg.model, cfg.time_samples(), cfg.solver)
    rep = report(traj, pbar, cfg.model.sigma)
    return cfg, p0, pbar, traj, rep


class TestCriterion1GaussianVarentropyDecay:
    def test_varentropy_tracks_exponential_decay(self, ou_case):
        """Computed varentropy matches (1/2)(3/4)^2 e^{-2t} to 1e-3 relative
        at every sampled time of the benchmark run."""
        cfg, _, _, _, rep = ou_case
        bench = cfg.exact()
        exact = np.array([bench.varentropy(t) for t in rep.time.tolist()])
        worst = np.max(np.abs(rep.varentropy - exact) / exact)
        _announce(
            "criterion 1 (Gaussian varentropy decay)",
            worst <= 1e-3,
            f"max rel err = {worst:.3e} (tol 1e-3) over t in [0, {rep.time[-1]:g}]",
        )


class TestCriterion2GaussianVarentropyRate:
    def test_rate_formula_matches_closed_form(self, ou_case):
        cfg, _, _, _, rep = ou_case
        bench = cfg.exact()
        exact = np.array([bench.varentropy_rate(t) for t in rep.time.tolist()])
        worst = np.max(np.abs(rep.varentropy_rate - exact) / np.abs(exact))
        _announce(
            "criterion 2a (rate formula vs closed form)",
            worst <= 1e-3,
            f"max rel err = {worst:.3e} (tol 1e-3)",
        )

    def test_rate_formula_matches_finite_difference(self, ou_case):
        _, _, _, _, rep = ou_case
        fd = central_difference(rep.varentropy, rep.time)
        worst = np.max(np.abs(rep.varentropy_rate[1:-1] - fd) / np.abs(fd))
        _announce(
            "criterion 2b (rate formula vs finite difference, Gaussian)",
            worst <= 1e-2,
            f"max rel err = {worst:.3e} (tol 1e-2)",
        )


class TestCriterion3NonGaussianVarentropyRate:
    def test_rate_formula_matches_finite_difference(self, dw_case):
        """The core non-Gaussian check: no closed form exists, so the
        trajectory finite difference is the ground truth."""
        _, _, _, _, rep = dw_case
        fd = central_difference(rep.varentropy, rep.time)
        worst = np.max(np.abs(rep.varentropy_rate[1:-1] - fd) / np.maximum(np.abs(fd), 1e-6))
        _announce(
            "criterion 3 (rate formula vs finite difference, double well)",
            worst <= 1e-2,
            f"max rel err = {worst:.3e} (tol 1e-2) over {len(rep) - 2} interior times",
        )


class TestCriterion4FreeEnergyDecay:
    @pytest.mark.parametrize("case_name", ["ou_case", "dw_case"])
    def test_entropy_rate_matches_finite_difference(self, case_name, request):
        _, _, _, _, rep = request.getfixturevalue(case_name)
        entropy, times = rep.relative_entropy, rep.time
        fd = (entropy[2:] - entropy[:-2]) / (times[2:] - times[:-2])
        worst = np.max(np.abs(rep.entropy_rate[1:-1] - fd) / np.maximum(np.abs(fd), 1e-6))
        _announce(
            f"criterion 4a (entropy decay rate, {case_name[:2]})",
            worst <= 1e-2,
            f"max rel err = {worst:.3e} (tol 1e-2)",
        )

    @pytest.mark.parametrize("case_name", ["ou_case", "dw_case"])
    def test_entropy_rate_nonpositive(self, case_name, request):
        _, _, _, _, rep = request.getfixturevalue(case_name)
        worst = rep.entropy_rate.max()
        _announce(
            f"criterion 4b (entropy rate nonpositive, {case_name[:2]})",
            worst <= 0.0,
            f"max entropy rate = {worst:.3e}",
        )


class TestCriterion5Duality:
    def test_stationary_backward_drift(self):
        """Stationary ensemble, 1e5 paths, millisecond steps: the binned
        backward-increment means match the backward drift within noise."""
        bench = OUBenchmark(0.25)
        grid = make_uniform_grid(-8.0, 8.0, 801)
        pbar = invariant_density(bench.model(), grid)
        paths = simulate_ensemble(
            bench.model(), pbar, dt=1e-3, t_end=0.05, n_paths=100_000, seed=20240801
        )
        bins = make_uniform_grid(-3.0, 3.0, 25)
        est = estimate_backward_drift(paths[:, -2], paths[:, -1], 1e-3, bins)
        residual = est.residual(backward_drift_target(est, bench.model(), pbar))
        pooled = est.pooled_standard_error()
        _announce(
            "criterion 5 (backward-drift duality)",
            residual <= 3.0 * pooled,
            f"residual = {residual:.4f} vs 3 x pooled SE = {3 * pooled:.4f}",
        )


@pytest.fixture(scope="module")
def martingale_rows():
    bench = OUBenchmark(0.25)
    grid = make_uniform_grid(-8.0, 8.0, 801)
    p0 = gaussian_density(grid, 0.0, 0.25)
    pbar = invariant_density(bench.model(), grid)
    paths = simulate_ensemble(
        bench.model(), p0, dt=2.5e-3, t_end=0.25, n_paths=40_000, seed=99
    )
    traj = solve(p0, bench.model(), ensemble_times(2.5e-3, 0.25), SolverConfig(dt=1e-3))
    bins = make_uniform_grid(-3.0, 3.0, 25)
    return martingale_diagnostic(paths.T, traj, pbar, bins=bins)


class TestCriterion6ReverseMartingale:
    def test_mean_ratio_is_one(self, martingale_rows):
        worst = max(abs(r.mean_ratio - 1.0) / r.se_ratio for r in martingale_rows)
        _announce(
            "criterion 6a (martingale mean)",
            worst <= 3.0,
            f"worst |mean-1|/se = {worst:.2f} over {len(martingale_rows)} times",
        )

    def test_conditional_residual(self, martingale_rows):
        rows = [r for r in martingale_rows if r.cond_residual is not None]
        worst = max(r.cond_residual / r.cond_pooled_se for r in rows)
        _announce(
            "criterion 6b (martingale conditional residual)",
            worst <= 3.0,
            f"worst residual / pooled SE = {worst:.2f} over {len(rows)} times",
        )


class TestCriterion7ReverseHarmonicity:
    def test_second_order_convergence(self):
        """Weighted residual norm of the reverse-time harmonic identity
        shrinks by 3.2x to 4.8x under joint halving of the grid spacing and
        the trajectory sampling interval."""
        bench = OUBenchmark(0.25)
        norms = []
        for n, n_samples in ((201, 11), (401, 21), (801, 41)):
            grid = make_uniform_grid(-8.0, 8.0, n)
            p0 = gaussian_density(grid, 0.0, 0.25)
            pbar = invariant_density(bench.model(), grid)
            times = np.linspace(0.0, 1.25, n_samples)
            traj = solve(p0, bench.model(), times, SolverConfig(dt=1e-3))
            k = int(np.argmin(np.abs(times - 1.0)))
            res = reverse_harmonic_residual(traj, pbar, bench.model(), k)
            norms.append(weighted_residual_norm(res, traj[k]))
        r1, r2 = norms[0] / norms[1], norms[1] / norms[2]
        _announce(
            "criterion 7 (reverse-time harmonicity convergence)",
            3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8,
            f"norm reduction factors = {r1:.2f}, {r2:.2f} (window [3.2, 4.8])",
        )


class TestCriterion8SolverHygiene:
    @pytest.mark.parametrize("case_name", ["ou_case", "dw_case"])
    def test_mass_conservation(self, case_name, request):
        _, _, _, traj, _ = request.getfixturevalue(case_name)
        worst = max(abs(s.mass() - 1.0) for s in traj.states)
        _announce(
            f"criterion 8a (mass conservation, {case_name[:2]})",
            worst <= 1e-10,
            f"max |mass - 1| = {worst:.3e} (tol 1e-10)",
        )

    @pytest.mark.parametrize("case_name", ["ou_case", "dw_case"])
    def test_no_negative_values(self, case_name, request):
        _, _, _, traj, _ = request.getfixturevalue(case_name)
        low = min(float(s.values.min()) for s in traj.states)
        _announce(
            f"criterion 8b (positivity, {case_name[:2]})",
            low >= 0.0,
            f"min node value = {low:.3e}",
        )

    @pytest.mark.parametrize("case_name", ["ou_case", "dw_case"])
    def test_stationary_fixed_point(self, case_name, request):
        cfg, _, pbar, _, _ = request.getfixturevalue(case_name)
        out = solve(pbar, cfg.model, np.array([0.0, cfg.solver.dt]), cfg.solver)[1]
        err = float(np.max(np.abs(out.values - pbar.values)))
        _announce(
            f"criterion 8c (stationary fixed point, {case_name[:2]})",
            err <= 1e-8,
            f"sup |step(pbar) - pbar| = {err:.3e} (tol 1e-8)",
        )


class TestCriterion9MCQuadratureAgreement:
    @pytest.mark.parametrize("case_name,seed", [("ou_case", 424242), ("dw_case", 31415926)])
    def test_functionals_within_three_se(self, case_name, seed, request):
        """Sample-mean entropy, varentropy and rate agree with quadrature at
        t = 0, 1/2 and 1 within 3 standard errors."""
        cfg, p0, pbar, _, _ = request.getfixturevalue(case_name)
        paths = simulate_ensemble(
            cfg.model, p0, dt=1e-3, t_end=1.0, n_paths=100_000, seed=seed,
            store_every=500,
        )
        traj = solve(p0, cfg.model, ensemble_times(1e-3, 1.0, 500), cfg.solver)
        worst = 0.0
        for x, p_t in zip(paths.T, traj.states, strict=True):
            est = mc_functionals(x, p_t, pbar, cfg.model.sigma)
            for value, se, ref in (
                (est.relative_entropy, est.relative_entropy_se, relative_entropy(p_t, pbar)),
                (est.varentropy, est.varentropy_se, varentropy(p_t, pbar)),
                (est.varentropy_rate, est.varentropy_rate_se,
                 varentropy_rate(p_t, pbar, cfg.model.sigma)),
            ):
                worst = max(worst, abs(value - ref) / se)
        _announce(
            f"criterion 9 (MC vs quadrature, {case_name[:2]})",
            worst <= 3.0,
            f"worst |mc - quadrature|/se = {worst:.2f} at t in {{0, 0.5, 1}}",
        )


class TestCriterion10MonotonicitySweep:
    def test_sweep_records_sign_data(self, tmp_path):
        """The sweep is exploratory: it must complete over at least eight
        parameter values and record the rate sign data; no sign is asserted."""
        sweep = SweepConfig.from_json(CONFIG_DIR / "sweep_double_well.json")
        rows = monotonicity_sweep(sweep)
        from varentropy_lab.scenarios import write_sweep_csv

        write_sweep_csv(rows, tmp_path / "sweep.csv")
        complete = (
            len(rows) >= 8
            and all(np.isfinite(r.min_rate) and np.isfinite(r.max_rate) for r in rows)
        )
        flagged = sum(r.sign_change for r in rows)
        _announce(
            "criterion 10 (monotonicity sweep)",
            complete,
            f"{len(rows)} parameter values recorded, {flagged} with a rate "
            f"sign change; table at {tmp_path / 'sweep.csv'}",
        )
        for r in rows:
            print(f"    {r.label}: rate in [{r.min_rate:+.4f}, {r.max_rate:+.4f}]"
                  f" sign_change={r.sign_change} t_max={r.time_of_max}")
