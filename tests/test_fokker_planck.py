"""Forward solver: conservation, positivity, fixed point, convergence, and
the reverse-time harmonicity residual."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from varentropy_lab import (
    OUBenchmark,
    SolverConfig,
    gaussian_density,
    invariant_density,
    make_uniform_grid,
    mixture_density,
    relative_entropy,
    reverse_harmonic_residual,
    solve,
    weighted_residual_norm,
)
from varentropy_lab import fokker_planck
from varentropy_lab.fokker_planck import (
    _STEP_CACHE_SIZE,
    _advance_interval,
    _Generator,
    _bernoulli,
)
from varentropy_lab.scenarios import ScenarioConfig, run_scenario


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig(dt=1e-3)


def _one_step(p, model, cfg):
    """The state one nominal step ``cfg.dt`` after ``p``."""
    return solve(p, model, np.array([p.time, p.time + cfg.dt]), cfg)[1]


class TestStep:
    """One nominal step ``dt``, taken as a solve on ``[t, t + dt]``."""

    def test_stationary_fixed_point(self, wide_grid, ou_model, ou_stationary, cfg):
        out = _one_step(ou_stationary, ou_model, cfg)
        assert np.max(np.abs(out.values - ou_stationary.values)) < 1e-10

    def test_double_well_fixed_point(self, dw_model, dw_stationary, cfg):
        """The exponential-fitting weights make the sampled stationary density
        an exact fixed point for gradient drifts too."""
        out = _one_step(dw_stationary, dw_model, cfg)
        assert np.max(np.abs(out.values - dw_stationary.values)) < 1e-12

    def test_variance_growth_one_step(self, wide_grid, ou_model, narrow_gaussian, cfg):
        """d(variance)/dt = 1 - variance, so one millisecond step from
        variance 1/4 grows it by about 0.75e-3."""
        out = _one_step(narrow_gaussian, ou_model, cfg)
        grown = out.variance() - narrow_gaussian.variance()
        expected = OUBenchmark(0.25).variance(cfg.dt) - 0.25
        assert grown == pytest.approx(expected, rel=1e-2)

    def test_mass_preserved(self, wide_grid, ou_model, narrow_gaussian, cfg):
        out = _one_step(narrow_gaussian, ou_model, cfg)
        assert out.mass() == pytest.approx(narrow_gaussian.mass(), abs=1e-12)

    def test_time_advances(self, narrow_gaussian, ou_model, cfg):
        assert _one_step(narrow_gaussian, ou_model, cfg).time == pytest.approx(cfg.dt)


class TestSolve:
    def test_ou_variance_trajectory(self, wide_grid, ou_model, narrow_gaussian, cfg, bench):
        traj = solve(narrow_gaussian, ou_model, np.array([0.0, 1.0, 2.0, 3.0]), cfg)
        for t, state in zip(traj.times, traj.states):
            assert state.variance() == pytest.approx(bench.variance(t), rel=1e-4)

    def test_stationary_stays_put(self, ou_model, ou_stationary, cfg):
        traj = solve(ou_stationary, ou_model, np.linspace(0, 2, 9), cfg)
        for state in traj.states:
            assert np.max(np.abs(state.values - ou_stationary.values)) < 1e-8

    def test_entropy_decreases_double_well(self, dw_model, dw_grid, dw_stationary, cfg):
        p0 = mixture_density(dw_grid, [(0.5, -1.2, 0.09), (0.5, 1.2, 0.09)])
        traj = solve(p0, dw_model, np.linspace(0, 1.0, 11), cfg)
        entropies = [relative_entropy(s, dw_stationary) for s in traj.states]
        assert np.all(np.diff(entropies) < 0)

    def test_mass_conserved_along_trajectory(self, ou_model, narrow_gaussian, cfg):
        traj = solve(narrow_gaussian, ou_model, np.linspace(0, 3, 31), cfg)
        for state in traj.states:
            assert abs(state.mass() - 1.0) < 1e-10

    def test_positivity_chang_cooper(self, ou_model, narrow_gaussian, cfg):
        traj = solve(narrow_gaussian, ou_model, np.linspace(0, 3, 16), cfg)
        for state in traj.states:
            assert state.values.min() >= 0.0

    def test_t_grid_must_start_at_initial_time(self, ou_model, narrow_gaussian, cfg):
        with pytest.raises(ValueError, match="start"):
            solve(narrow_gaussian, ou_model, np.array([0.5, 1.0]), cfg)

    def test_t_grid_must_increase(self, ou_model, narrow_gaussian, cfg):
        with pytest.raises(ValueError, match="increasing"):
            solve(narrow_gaussian, ou_model, np.array([0.0, 1.0, 1.0]), cfg)

    def test_supremum_growth_bound(self, dw_model, dw_grid, cfg):
        """Loose comparison-principle surrogate: sup p_t stays below
        sup p_0 * exp(C t) with C the drift-derivative bound on the grid."""
        p0 = mixture_density(dw_grid, [(0.5, -1.0, 0.04), (0.5, 1.0, 0.04)])
        horizon = 0.5
        traj = solve(p0, dw_model, np.linspace(0, horizon, 6), cfg)
        # -b' = potential'' = 3 x^2 - 1 for the double well x^4/4 - x^2/2
        growth = np.max(np.maximum(3.0 * dw_grid.x**2 - 1.0, 0.0))
        bound = p0.values.max() * np.exp(growth * horizon)
        for state in traj.states:
            assert state.values.max() <= bound

    def test_second_order_convergence(self, bench):
        """Variance error at t = 1 shrinks about 4x when both the grid
        spacing and the time step are halved."""
        errs = []
        for n, dt in ((201, 4e-3), (401, 2e-3)):
            g = make_uniform_grid(-8, 8, n)
            p0 = gaussian_density(g, 0.0, 0.25)
            traj = solve(p0, bench.model(), np.array([0.0, 1.0]), SolverConfig(dt=dt))
            errs.append(abs(traj[1].variance() - bench.variance(1.0)))
        assert 3.0 < errs[0] / errs[1] < 5.2


def _with_node(index, value):
    """A fault that sets one node of a produced state."""
    def fault(values):
        out = values.copy()
        out[index] = value
        return out
    return fault


class TestSolveValidation:
    """``solve`` checks every produced row in one pass after stepping and
    names the first bad output time."""

    TIMES = np.linspace(0.0, 0.6, 7)

    def _solve_with_faults(self, monkeypatch, faults, p0, model, cfg):
        """Solve on TIMES with ``faults[k]`` applied to the state produced
        for ``TIMES[k]``: with dt = 0.1 each output interval is one
        ``_advance_interval`` call."""
        real = fokker_planck._advance_interval
        calls = []

        def faulty(values, gen, dt, solver_cfg):
            out = real(values, gen, dt, solver_cfg)
            calls.append(dt)
            fault = faults.get(len(calls))
            return out if fault is None else fault(out)

        monkeypatch.setattr(fokker_planck, "_advance_interval", faulty)
        return solve(p0, model, self.TIMES, cfg)

    def test_clean_solve_passes(self, monkeypatch, ou_model, narrow_gaussian):
        traj = self._solve_with_faults(monkeypatch, {}, narrow_gaussian, ou_model,
                                       SolverConfig(dt=0.1))
        assert len(traj) == len(self.TIMES)

    def test_mass_drift_names_its_time(self, monkeypatch, ou_model, narrow_gaussian):
        with pytest.raises(RuntimeError, match=r"t=0\.3: density mass .* outside 1 \+/- 1e-10"):
            self._solve_with_faults(monkeypatch, {3: lambda v: v * (1.0 + 1e-9)},
                                    narrow_gaussian, ou_model, SolverConfig(dt=0.1))

    def test_default_mass_tolerance_also_applies(self, monkeypatch, ou_model, narrow_gaussian):
        """A loose ``cfg.mass_tol`` does not admit a row that no Density
        would accept."""
        with pytest.raises(RuntimeError, match=r"t=0\.5: density mass .* outside 1 \+/- 1e-06"):
            self._solve_with_faults(monkeypatch, {5: lambda v: v * (1.0 + 1e-5)},
                                    narrow_gaussian, ou_model, SolverConfig(dt=0.1, mass_tol=1e-3))

    def test_negative_value_names_the_first_bad_time(self, monkeypatch, ou_model, narrow_gaussian):
        """The negative node at t = 0.2 is reported, not the mass drift
        that follows at t = 0.4."""
        faults = {2: _with_node(0, -1e-300), 4: lambda v: v * (1.0 + 1e-9)}
        with pytest.raises(RuntimeError, match=r"t=0\.2: density has negative values"):
            self._solve_with_faults(monkeypatch, faults, narrow_gaussian, ou_model,
                                    SolverConfig(dt=0.1))

    def test_non_finite_value_names_its_time(self, monkeypatch, ou_model, narrow_gaussian):
        with pytest.raises(RuntimeError, match=r"t=0\.1: density has non-finite values"):
            self._solve_with_faults(monkeypatch, {1: _with_node(400, np.nan)},
                                    narrow_gaussian, ou_model, SolverConfig(dt=0.1))


class TestGeneratorInternals:
    def test_positivity_substep_bound(self, wide_grid, ou_model):
        gen = _Generator(wide_grid, ou_model)
        dt_pos = gen.positivity_dt(0.5)
        assert 0.0 < dt_pos < 1e-3  # the nominal millisecond step gets split

    def test_fully_implicit_needs_no_substeps(self, wide_grid, ou_model):
        gen = _Generator(wide_grid, ou_model)
        assert gen.positivity_dt(1.0) == np.inf


class TestBernoulliWeight:
    def test_large_drop_gives_zero_weight(self):
        """e^z overflows to inf for a large potential drop; the weight is
        the limit z / inf = 0, exactly."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = _bernoulli(np.array([800.0, 1e5, -800.0]))
        assert weights[0] == 0.0 and weights[1] == 0.0
        assert weights[2] == 800.0

    def test_steep_quartic_runs_without_warnings(self):
        """A steep quartic at sigma 0.5 on a wide coarse grid drops the
        potential by far more than sigma^2 across the outer cells."""
        cfg = ScenarioConfig.from_dict({
            "name": "steep_quartic",
            "drift": {"kind": "gradient", "coeffs": [0, 0, 0, 0, 1], "sigma": 0.5},
            "initial": {"kind": "gaussian", "mean": 0.0, "variance": 0.25},
            "grid": {"lo": -7.0, "hi": 7.0, "n": 101},
            "solver": {"dt": 1e-2},
            "time": {"t_end": 0.1, "n_samples": 11},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_scenario(cfg)
        solver_checks = {c.name: c.passed for c in result.checks}
        assert solver_checks["mass_conservation"] and solver_checks["positivity"]
        assert solver_checks["stationary_fixed_point"]


def _reference_advance(gen, values, dt, theta):
    """The theta step assembled from the generator's diagonals and solved by
    scipy's banded solver, with no factorization reused."""
    rhs = values * (1.0 + (1.0 - theta) * dt * gen.diag)
    rhs[1:] += (1.0 - theta) * dt * gen.lower[1:] * values[:-1]
    rhs[:-1] += (1.0 - theta) * dt * gen.upper[:-1] * values[1:]
    ab = np.zeros((3, len(values)))
    ab[0, 1:] = -theta * dt * gen.upper[:-1]
    ab[1, :] = 1.0 - theta * dt * gen.diag
    ab[2, :-1] = -theta * dt * gen.lower[1:]
    return solve_banded((1, 1), ab, rhs)


class TestFactoredStep:
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_bit_identical_to_unfactored_solve(self, dw_model, dw_grid, theta):
        """Reusing the cached factors changes no bit of any state over
        1200 steps cycling through three substep sizes."""
        gen = _Generator(dw_grid, dw_model)
        values = mixture_density(dw_grid, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)]).values
        sizes = (1e-3 / 8, 1e-4, 1e-3 / 9)
        for k in range(1200):
            dt = sizes[k % len(sizes)]
            new = gen.advance(values, dt, theta)
            assert np.array_equal(new, _reference_advance(gen, values, dt, theta)), k
            values = new

    def test_cache_stays_bounded(self, dw_model, dw_grid, dw_stationary):
        gen = _Generator(dw_grid, dw_model)
        sizes = [1e-4 * (1.0 + k / 64) for k in range(2 * _STEP_CACHE_SIZE + 3)]
        values = dw_stationary.values
        for dt in sizes:
            values = gen.advance(values, dt, 0.5)
            assert len(gen._steps) <= _STEP_CACHE_SIZE
        # an evicted size is factored again and still matches the reference
        assert (sizes[0], 0.5) not in gen._steps
        again = gen.advance(values, sizes[0], 0.5)
        assert np.array_equal(again, _reference_advance(gen, values, sizes[0], 0.5))

    def test_singular_step_raises(self, dw_model, dw_grid):
        gen = _Generator(dw_grid, dw_model)
        gen.lower = np.zeros(dw_grid.n)
        gen.upper = np.zeros(dw_grid.n)
        gen.diag = np.ones(dw_grid.n)  # I - 1 * 1 * L is the zero matrix
        with pytest.raises(RuntimeError, match="factorization failed"):
            gen.advance(np.ones(dw_grid.n), 1.0, 1.0)


class TestSubstepKernel:
    """One nominal step runs all its positivity substeps in place in the
    generator's padded buffer; the states equal a chain of independently
    assembled steps."""

    def _start(self, dw_grid):
        return mixture_density(dw_grid, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)]).values

    def test_interval_equals_chain_of_reference_steps(self, dw_model, dw_grid):
        """theta = 1/2: each 1 ms interval takes several substeps, and 40
        intervals chained through the kernel's own buffer keep every bit."""
        cfg = SolverConfig(dt=1e-3, theta=0.5)
        gen = _Generator(dw_grid, dw_model)
        n_sub = math.ceil(cfg.dt / gen.positivity_dt(cfg.theta) - 1e-12)
        assert n_sub >= 2
        values = reference = self._start(dw_grid)
        for k in range(40):
            values = _advance_interval(values, gen, cfg.dt, cfg)
            for _ in range(n_sub):
                reference = _reference_advance(gen, reference, cfg.dt / n_sub, cfg.theta)
            assert np.array_equal(values, reference), k

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_run_equals_chain_of_reference_steps(self, dw_model, dw_grid, theta):
        """Several substeps per kernel call at theta = 1/2 and theta = 1, which
        needs no positivity substeps of its own."""
        gen = _Generator(dw_grid, dw_model)
        values = reference = self._start(dw_grid)
        for k, (dt, n_steps) in enumerate([(1e-4, 5), (1e-3 / 9, 9), (1e-4, 3)] * 4):
            values = gen.run(values, dt, theta, n_steps)
            for _ in range(n_steps):
                reference = _reference_advance(gen, reference, dt, theta)
            assert np.array_equal(values, reference), k

    def test_fully_implicit_interval_is_one_substep(self, dw_model, dw_grid):
        cfg = SolverConfig(dt=1e-3, theta=1.0)
        gen = _Generator(dw_grid, dw_model)
        values = self._start(dw_grid)
        out = _advance_interval(values, gen, cfg.dt, cfg)
        assert np.array_equal(out, _reference_advance(gen, values, cfg.dt, 1.0))
        assert list(gen._steps) == [(cfg.dt, 1.0)]


class TestReverseHarmonicResidual:
    def _traj(self, n, n_samples, bench, t_eval=1.0, dt=1e-3):
        g = make_uniform_grid(-8, 8, n)
        p0 = gaussian_density(g, 0.0, 0.25)
        pbar = invariant_density(bench.model(), g)
        times = np.linspace(0.0, 1.25 * t_eval, n_samples)
        traj = solve(p0, bench.model(), times, SolverConfig(dt=dt))
        k = int(np.argmin(np.abs(times - t_eval)))
        return traj, pbar, k

    def test_stationary_trajectory_zero(self, ou_model, ou_stationary):
        times = np.linspace(0, 0.5, 6)
        traj = solve(ou_stationary, ou_model, times, SolverConfig(dt=1e-3))
        res = reverse_harmonic_residual(traj, ou_stationary, ou_model, 2)
        assert np.max(np.abs(res)) < 1e-6

    def test_second_order_convergence(self, bench):
        """Weighted residual norm drops about 4x per joint halving of the
        grid spacing and the trajectory sampling interval."""
        norms = []
        for n, n_samples in ((201, 11), (401, 21), (801, 41)):
            traj, pbar, k = self._traj(n, n_samples, bench)
            res = reverse_harmonic_residual(traj, pbar, bench.model(), k)
            norms.append(weighted_residual_norm(res, traj[k]))
        assert 3.2 < norms[0] / norms[1] < 4.8
        assert 3.2 < norms[1] / norms[2] < 4.8

    def test_wrong_backward_drift_detected(self, bench):
        """Replacing the backward drift by the forward drift leaves the
        finite correction term, so the residual stays bounded away from 0."""
        traj, pbar, k = self._traj(401, 21, bench)
        model = bench.model()
        good = weighted_residual_norm(
            reverse_harmonic_residual(traj, pbar, model, k), traj[k]
        )

        from varentropy_lab.grids import gradient, laplacian, support_mask

        g = traj.grid
        ratio = lambda p: pbar.values / np.maximum(p.values, 1e-300)
        dr = (ratio(traj[k + 1]) - ratio(traj[k - 1])) / (traj.times[k + 1] - traj.times[k - 1])
        b_wrong = model.drift(g.x)
        res_wrong = dr + b_wrong * gradient(ratio(traj[k]), g) - 0.5 * laplacian(ratio(traj[k]), g)
        res_wrong = np.where(support_mask(traj[k]), res_wrong, 0.0)
        bad = weighted_residual_norm(res_wrong, traj[k])
        assert bad > 50 * good
        assert bad > 0.1

    def test_interior_index_required(self, ou_model, ou_stationary):
        times = np.linspace(0, 0.5, 6)
        traj = solve(ou_stationary, ou_model, times, SolverConfig(dt=1e-3))
        with pytest.raises(IndexError, match="interior"):
            reverse_harmonic_residual(traj, ou_stationary, ou_model, 0)
        with pytest.raises(IndexError, match="interior"):
            reverse_harmonic_residual(traj, ou_stationary, ou_model, len(traj) - 1)
