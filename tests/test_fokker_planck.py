"""Forward solver: conservation, positivity, fixed point, convergence, and
the reverse-time harmonicity residual."""

import ctypes
import math
import re
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.linalg.lapack import dptsv

from varentropy_lab import (
    Density,
    DensityTrajectory,
    GradientDrift,
    OUBenchmark,
    SolverConfig,
    SweepConfig,
    double_well_drift,
    gaussian_density,
    invariant_density,
    make_uniform_grid,
    mixture_density,
    monotonicity_sweep,
    relative_entropy,
    report,
    solve,
)
from varentropy_lab import fokker_planck
from varentropy_lab.fokker_planck import (
    _STEP_CACHE_SIZE,
    SolveError,
    _Generator,
    _bernoulli,
    solved_chunks,
    substep_plan,
)
from varentropy_lab.scenarios import ScenarioConfig, run_scenario

from harmonicity import laplacian, reverse_harmonic_residual, weighted_residual_norm


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: A steep quartic at sigma 0.5 on a wide coarse grid: the potential drops by
#: far more than sigma^2 across the outer cells, so their coupling is one-way
#: and the generator steps on the LU path.
STEEP_QUARTIC = {
    "name": "steep_quartic",
    "drift": {"kind": "gradient", "coeffs": [0, 0, 0, 0, 1], "sigma": 0.5},
    "initial": {"kind": "gaussian", "mean": 0.0, "variance": 0.25},
    "grid": {"lo": -7.0, "hi": 7.0, "n": 101},
    "solver": {"dt": 1e-2},
    "time": {"t_end": 0.1, "n_samples": 11},
}
_STEEP = ScenarioConfig.from_dict(STEEP_QUARTIC)

#: The grid and drift of each solver path: the double well of the shipped
#: configs takes the symmetric path, the steep quartic the LU path.
PATHS = {
    "double_well": (make_uniform_grid(-3.5, 3.5, 701), double_well_drift(sigma=1.0)),
    "steep_quartic": (_STEEP.grid, _STEEP.model),
}


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig(dt=1e-3)


def _one_step(p, model, cfg):
    """The state one nominal step ``cfg.dt`` after ``p``."""
    return solve(p, model, np.array([0.0, cfg.dt]), cfg)[1]


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
        """The step's time is the trajectory's, and its state has moved."""
        traj = solve(narrow_gaussian, ou_model, np.array([0.0, cfg.dt]), cfg)
        assert traj.times.tolist() == [0.0, cfg.dt]
        assert not np.array_equal(traj[1].values, narrow_gaussian.values)


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

    def test_t_grid_may_start_at_any_time(self, ou_model, narrow_gaussian, cfg):
        """A density holds no time: the start is the state at ``t_grid[0]``,
        and the drift does not depend on time, so a solve on [0.5, 1] steps
        as one on [0, 0.5] does, bit for bit."""
        late = solve(narrow_gaussian, ou_model, np.array([0.5, 1.0]), cfg)
        early = solve(narrow_gaussian, ou_model, np.array([0.0, 0.5]), cfg)
        assert late.times.tolist() == [0.5, 1.0]
        assert late.values.tobytes() == early.values.tobytes()

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
    """A fault that sets one node of a produced block of states."""
    def fault(values):
        out = values.copy()
        out[..., index] = value
        return out
    return fault


class TestSolveValidation:
    """``solve`` checks every produced row in one pass after stepping and
    names the first bad output time."""

    TIMES = np.linspace(0.0, 0.6, 7)

    def _solve_with_faults(self, monkeypatch, faults, p0, model, cfg):
        """Solve on TIMES with ``faults[k]`` applied to the state produced
        for ``TIMES[k]``: each output interval is one ``_Generator.run``
        call."""
        real = _Generator.run
        calls = []

        def faulty(gen, values, dt, n_steps):
            out = real(gen, values, dt, n_steps)
            calls.append(dt)
            fault = faults.get(len(calls))
            return out if fault is None else fault(out)

        monkeypatch.setattr(_Generator, "run", faulty)
        return solve(p0, model, self.TIMES, cfg)

    def test_clean_solve_passes(self, monkeypatch, ou_model, narrow_gaussian):
        traj = self._solve_with_faults(monkeypatch, {}, narrow_gaussian, ou_model,
                                       SolverConfig(dt=0.1))
        assert len(traj) == len(self.TIMES)

    def test_mass_drift_names_its_time(self, monkeypatch, ou_model, narrow_gaussian):
        with pytest.raises(RuntimeError, match=r"t=0\.3: density mass .* outside 1 \+/- 1e-10"):
            self._solve_with_faults(monkeypatch, {3: lambda v: v * (1.0 + 1e-9)},
                                    narrow_gaussian, ou_model, SolverConfig(dt=0.1))

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
        dt_pos = gen.positivity_dt()
        assert 0.0 < dt_pos < 1e-3  # the nominal millisecond step gets split


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
        cfg = ScenarioConfig.from_dict(STEEP_QUARTIC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_scenario(cfg)
        solver_checks = {c.name: c.passed for c in result.checks}
        assert solver_checks["stationary_fixed_point"]


def _reference_advance(gen, values, dt, theta):
    """The theta step (Crank-Nicolson at theta = 1/2) assembled from the
    generator's diagonals and solved by scipy's banded solver, with no factorization reused: the reference of
    the LU path."""
    rhs = values * (1.0 + (1.0 - theta) * dt * gen.diag)
    rhs[1:] += (1.0 - theta) * dt * gen.lower[1:] * values[:-1]
    rhs[:-1] += (1.0 - theta) * dt * gen.upper[:-1] * values[1:]
    ab = np.zeros((3, len(values)))
    ab[0, 1:] = -theta * dt * gen.upper[:-1]
    ab[1, :] = 1.0 - theta * dt * gen.diag
    ab[2, :-1] = -theta * dt * gen.lower[1:]
    return solve_banded((1, 1), ab, rhs)


def _reference_advance_symmetric(grid, model, values, dt, theta, n_steps=1):
    """``n_steps`` theta steps in the detailed-balance basis, the reference of
    the symmetric path, with no factorization reused. ``S = D^-1 L D`` is
    assembled from the generator's diagonals, with off-diagonal
    ``sqrt(upper_i lower_i+1)``, and ``d = exp(-Phi / sigma^2) / sqrt(width)``
    centred in log space from the potential. The state is divided by ``d``;
    each step sums its explicit stage on ``S`` left to right and solves its
    implicit one with scipy's ``dptsv``; the result is multiplied by ``d``."""
    gen = _Generator(grid, model)
    coupling = np.sqrt(gen.upper[:-1] * gen.lower[1:])
    widths = np.full(grid.n, grid.dx)
    widths[0] = widths[-1] = 0.5 * grid.dx
    log_d = -model.potential(grid.x) / model.sigma**2 - 0.5 * np.log(widths)
    d = np.exp(log_d - 0.5 * (log_d.max() + log_d.min()))
    side, centre = (1.0 - theta) * dt * coupling, 1.0 + (1.0 - theta) * dt * gen.diag
    u = values / d
    for _ in range(n_steps):
        rhs = np.empty_like(u)
        rhs[0] = centre[0] * u[0] + side[0] * u[1]
        rhs[1:-1] = (side[:-1] * u[:-2] + centre[1:-1] * u[1:-1]) + side[1:] * u[2:]
        rhs[-1] = side[-1] * u[-2] + centre[-1] * u[-1]
        *_, u, info = dptsv(1.0 - theta * dt * gen.diag, -theta * dt * coupling, rhs)
        assert info == 0
    return u * d


def _reference_chain(grid, model, values, dt, theta, n_steps=1):
    """``n_steps`` reference steps on the path that the generator of ``grid``
    and ``model`` takes, as one ``run`` call steps them."""
    gen = _Generator(grid, model)
    if gen.symmetric:
        return _reference_advance_symmetric(grid, model, values, dt, theta, n_steps)
    for _ in range(n_steps):
        values = _reference_advance(gen, values, dt, theta)
    return values


def _each_path(*values):
    """Parameters ``(path, value)``: the double well's keep the ids of
    ``values`` alone, the steep quartic's are prefixed with its name."""
    return [pytest.param(path, value, id=str(value) if path == "double_well"
                         else f"{path}-{value}")
            for path in PATHS for value in values]


class TestFactoredStep:
    @pytest.mark.parametrize("path, theta", _each_path(0.5))
    def test_bit_identical_to_unfactored_solve(self, path, theta):
        """Reusing the cached factors changes no bit of any state over
        1200 steps cycling through three substep sizes, on either path: each
        step equals the reference step at theta = 1/2, Crank-Nicolson."""
        grid, model = PATHS[path]
        gen = _Generator(grid, model)
        values = mixture_density(grid, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)]).values
        sizes = (1e-3 / 8, 1e-4, 1e-3 / 9)
        for k in range(1200):
            dt = sizes[k % len(sizes)]
            new = gen.run(values, dt, 1).copy()
            assert np.array_equal(new, _reference_chain(grid, model, values, dt, theta)), k
            values = new

    def test_cache_stays_bounded(self, dw_model, dw_grid, dw_stationary):
        gen = _Generator(dw_grid, dw_model)
        sizes = [1e-4 * (1.0 + k / 64) for k in range(2 * _STEP_CACHE_SIZE + 3)]
        values = dw_stationary.values
        for dt in sizes:
            values = gen.run(values, dt, 1).copy()
            assert len(gen._steps) <= _STEP_CACHE_SIZE
        # an evicted size is factored again and still matches the reference
        assert sizes[0] not in gen._steps
        again = gen.run(values, sizes[0], 1).copy()
        assert np.array_equal(again, _reference_chain(dw_grid, dw_model, values, sizes[0], 0.5))

    @pytest.mark.parametrize("block_width", [1, 3])
    def test_run_refuses_a_block_of_another_width(self, dw_model, dw_grid, dw_stationary,
                                                  block_width):
        """A generator steps blocks of the width it was built for: one state
        is not broadcast into every row, and a wider block is not cut."""
        gen = _Generator(dw_grid, dw_model, width=2)
        block = np.tile(dw_stationary.values, (block_width, 1))
        with pytest.raises(ValueError, match=f"width 2 cannot step a block of width {block_width}"):
            gen.run(block, 1e-4, 1)
        assert not gen._steps  # refused before any factorization

    def test_singular_step_raises(self, dw_model, dw_grid):
        gen = _Generator(dw_grid, dw_model)
        gen.lower = np.zeros(dw_grid.n)
        gen.upper = np.zeros(dw_grid.n)
        gen.coupling = np.zeros(dw_grid.n - 1)
        gen.diag = np.full(dw_grid.n, 2.0)  # I - 1 * L / 2 is the zero matrix
        with pytest.raises(RuntimeError, match="factorization failed"):
            gen.run(np.ones(dw_grid.n), 1.0, 1).copy()


class TestSolverPath:
    """The generator steps in the detailed-balance basis with ``dpttrf`` and
    ``dpttrs`` wherever that form can be represented, and with the pivoted
    LU otherwise."""

    def test_shipped_configs_take_the_symmetric_path(self):
        configs = [ScenarioConfig.from_json(CONFIGS / f"{name}.json")
                   for name in ("ou_benchmark", "double_well_relax")]
        configs += [member for _, member in
                    SweepConfig.from_json(CONFIGS / "sweep_double_well.json").members()]
        assert len(configs) == 10
        for config in configs:
            assert _Generator(config.grid, config.model).symmetric, config.name

    def test_steep_quartic_takes_the_lu_path(self, monkeypatch):
        """Its centred log scale is far wider than the symmetric path takes,
        and even without that bound its one-way outer cells keep it on the LU."""
        grid, model = PATHS["steep_quartic"]
        gen = _Generator(grid, model)
        assert not gen.symmetric and np.all(gen.scale == 1.0)
        assert np.any(gen.coupling == 0.0)
        monkeypatch.setattr(fokker_planck, "_MAX_LOG_SCALE_SPREAD", math.inf)
        assert not _Generator(grid, model).symmetric

    def test_wide_log_scale_takes_the_lu_path(self, monkeypatch):
        """``x^4`` at sigma 0.5 on [-3, 3]: every cell couples both ways, but
        ``ln d`` spreads over 324, wider than the symmetric path takes."""
        grid, model = make_uniform_grid(-3.0, 3.0, 301), GradientDrift((0, 0, 0, 0, 1), 0.5)
        gen = _Generator(grid, model)
        assert not gen.symmetric and np.all(gen.coupling > 0.0)
        monkeypatch.setattr(fokker_planck, "_MAX_LOG_SCALE_SPREAD", 325.0)
        assert _Generator(grid, model).symmetric

    def test_symmetric_form_is_similar_to_the_generator(self, dw_model, dw_grid):
        """``d_i S_ij / d_j`` is ``L_ij`` to rounding on both off-diagonals."""
        gen = _Generator(dw_grid, dw_model)
        d = gen.scale
        np.testing.assert_allclose(d[:-1] * gen.coupling / d[1:], gen.upper[:-1], rtol=1e-12)
        np.testing.assert_allclose(d[1:] * gen.coupling / d[:-1], gen.lower[1:], rtol=1e-12)

    def test_paths_agree_to_rounding(self, monkeypatch):
        """A full solve of the shipped double well on each path: every node
        above 1e-200 agrees to rounding, and the LU solve's rows are not
        the symmetric one's."""
        config = ScenarioConfig.from_json(CONFIGS / "double_well_relax.json")
        p0, times = config.initial_density(), config.time_samples()
        symmetric = solve(p0, config.model, times, config.solver).values
        monkeypatch.setattr(fokker_planck, "_MAX_LOG_SCALE_SPREAD", -1.0)
        assert not _Generator(config.grid, config.model).symmetric
        lu = solve(p0, config.model, times, config.solver).values
        assert not np.array_equal(symmetric, lu)
        above = lu > 1e-200
        assert np.array_equal(above, symmetric > 1e-200)
        assert np.max(np.abs(symmetric - lu)[above] / lu[above]) < 1e-12


class TestLapackSources:
    """The solver takes ``dgttrf``, ``dgttrs``, ``dpttrf``, ``dpttrs`` and
    ``dlagtm`` from numpy's bundled OpenBLAS, else from scipy's Cython LAPACK
    module loaded as a file. Each source gives every trajectory row bit for
    bit on either path, the sign of a zero included, and each lookup runs
    once per cache."""

    TIMES = np.linspace(0.0, 0.05, 11)

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        fokker_planck._lapack_routines.cache_clear()
        yield
        fokker_planck._lapack_routines.cache_clear()

    def _solve(self, monkeypatch, grid, model, *, openblas=True):
        """Rows of a solve from a start with exact zero nodes, with numpy's
        OpenBLAS found only if ``openblas``, and the number of calls of each
        lookup."""
        lookups = {"openblas": 0, "cython": 0}

        def counted(name, lookup, found=True):
            def wrapper():
                lookups[name] += 1
                return lookup() if found else None
            return wrapper

        monkeypatch.setattr(fokker_planck, "_openblas_addresses",
                            counted("openblas", fokker_planck._openblas_addresses, openblas))
        monkeypatch.setattr(fokker_planck, "_cython_lapack",
                            counted("cython", fokker_planck._cython_lapack))
        p0 = gaussian_density(grid, 1.0, 1e-4)
        assert np.any(p0.values == 0.0)
        rows = [solve(p0, model, self.TIMES, SolverConfig(dt=1e-3)).values for _ in range(2)]
        assert rows[0].tobytes() == rows[1].tobytes()
        return rows[0], lookups

    def test_numpy_openblas_where_numpy_bundles_it(self, monkeypatch, dw_model, dw_grid):
        """Where numpy bundles OpenBLAS (as CI's wheel does) the solver takes
        it, so a silent fallback fails. The rows equal a chain of
        independently assembled steps of the symmetric path."""
        if fokker_planck._openblas_addresses() is None:
            pytest.skip("this numpy bundles no OpenBLAS with the scipy_*_64_ LAPACK symbols")
        rows, lookups = self._solve(monkeypatch, dw_grid, dw_model)
        assert lookups == {"openblas": 1, "cython": 0}
        assert fokker_planck._lapack_routines()[-2] is ctypes.c_int64
        gen = _Generator(dw_grid, dw_model)
        assert gen.symmetric
        reference = rows[0]
        n_pos = math.ceil(1e-3 / gen.positivity_dt() - 1e-12)
        for k in range(1, len(self.TIMES)):
            substep = (self.TIMES[k] - self.TIMES[k - 1]) / 5 / n_pos
            reference = _reference_chain(dw_grid, dw_model, reference, substep, 0.5, 5 * n_pos)
            assert np.array_equal(rows[k], reference), k

    def test_cython_lapack_file_where_numpy_has_none(self, monkeypatch, dw_model, dw_grid):
        expected, _ = self._solve(monkeypatch, dw_grid, dw_model)
        fokker_planck._lapack_routines.cache_clear()
        rows, lookups = self._solve(monkeypatch, dw_grid, dw_model, openblas=False)
        assert lookups == {"openblas": 1, "cython": 1}
        assert fokker_planck._lapack_routines()[-2] is ctypes.c_int32
        assert rows.tobytes() == expected.tobytes()

    def test_sources_agree_on_the_lu_path(self, monkeypatch):
        """The steep quartic steps with ``dgttrf`` and ``dgttrs``: both
        sources give its rows with the same bytes."""
        grid, model = PATHS["steep_quartic"]
        expected, _ = self._solve(monkeypatch, grid, model)
        fokker_planck._lapack_routines.cache_clear()
        rows, lookups = self._solve(monkeypatch, grid, model, openblas=False)
        assert lookups == {"openblas": 1, "cython": 1}
        assert rows.tobytes() == expected.tobytes()


def _chunked(starts, model, times, cfg, rows):
    """The ``(starts, times, n)`` rows of :func:`solved_chunks` with chunks
    of ``rows`` output times, joined, with the first index of every chunk."""
    joined = [(base, values.copy()) for base, values
              in solved_chunks(starts, model, times, cfg, rows)]
    bases, values = zip(*joined)
    return np.concatenate(values, axis=1), list(bases)


class TestKeptGenerator:
    """A solve keeps its generator, with its factored steps, for itself
    alone: solves one after another on equal or different grids and drifts
    carry nothing from one to the next."""

    TIMES = np.linspace(0.0, 0.05, 11)

    def _fresh_chain(self, p0, model, cfg):
        """The rows of ``solve(p0, model, TIMES, cfg)`` stepped by a generator
        of their own, one ``run`` per interval as ``solve`` plans it."""
        gen = _Generator(p0.grid, model)
        n_pos = math.ceil(cfg.dt / gen.positivity_dt() - 1e-12)
        rows = [p0.values]
        for a, b in zip(self.TIMES[:-1], self.TIMES[1:]):
            rows.append(gen.run(rows[-1], (b - a) / 5 / n_pos, 5 * n_pos).copy())
        return np.array(rows)

    def test_interleaved_solves_equal_fresh_chains(self, dw_model, dw_grid):
        """Two double-well solves, one on another grid, one with another
        drift, the double well again (on an equal grid built anew), then
        grouped solves of 3 and of 2 starts around a solo one: each start
        gives the rows of a fresh generator bit for bit."""
        cfg = SolverConfig(dt=1e-3)
        other_grid = make_uniform_grid(-3.5, 3.5, 601)
        dw_again = (make_uniform_grid(-3.5, 3.5, 701), double_well_drift(sigma=1.0))
        runs = [(dw_grid, dw_model, 1), (dw_grid, dw_model, 1), (other_grid, dw_model, 1),
                (dw_grid, double_well_drift(sigma=0.9), 1), (*dw_again, 1), (*dw_again, 3),
                (*dw_again, 1), (*dw_again, 2)]
        for grid, model, width in runs:
            starts = [mixture_density(grid, [(0.5, -mean, 0.09), (0.5, mean, 0.09)])
                      for mean in (1.0, 1.2, 0.8)[:width]]
            if width == 1:
                solved = [solve(starts[0], model, self.TIMES, cfg).values]
            else:
                solved = _chunked(starts, model, self.TIMES, cfg, 4)[0]
            for p0, rows in zip(starts, solved, strict=True):
                assert rows.tobytes() == self._fresh_chain(p0, model, cfg).tobytes()

    def test_shipped_sweep_factors_each_substep_size_once(self, monkeypatch):
        """The shipped sweep solves its 8 members as one group and then the
        group's one-step fixed-point solve: 2 generators, each of which
        factors each substep size it meets once, within the step cache."""
        real = _Generator._factored_step
        factored = {}  # generator -> the substep sizes it factored, in order

        def counting(gen, dt):
            factored.setdefault(gen, []).append(dt)
            return real(gen, dt)

        monkeypatch.setattr(_Generator, "_factored_step", counting)
        configs = Path(__file__).resolve().parent.parent / "configs"
        monotonicity_sweep(SweepConfig.from_json(configs / "sweep_double_well.json"))
        assert len(factored) == 2
        for sizes in factored.values():
            assert len(sizes) == len(set(sizes)) <= _STEP_CACHE_SIZE


class TestSolveGroup:
    """``solved_chunks`` steps several starts on one grid as one block and
    yields their checked rows a chunk of output times at a time; each
    start's rows are its solve alone, and a failure names its start."""

    TIMES = np.linspace(0.0, 0.05, 11)

    def _starts(self, grid):
        # the narrow start has exact zero nodes
        return [mixture_density(grid, [(0.5, -1.1, 0.09), (0.5, 1.1, 0.09)]),
                gaussian_density(grid, 1.0, 1e-4),
                mixture_density(grid, [(0.3, -0.8, 0.05), (0.7, 1.3, 0.2)])]

    @staticmethod
    def _inject_nans(monkeypatch, faults):
        """Make ``_Generator.run`` write a NaN into the state of start
        ``member`` at output ``k``, for each ``(member, k)`` of ``faults``;
        returns the list of its calls."""
        real = _Generator.run
        calls = []

        def faulty(gen, values, dt, n_steps):
            out = real(gen, values, dt, n_steps)
            calls.append(dt)
            for member, at in faults:
                if len(calls) == at:
                    out = out.copy()
                    out[member, 200] = np.nan
            return out

        monkeypatch.setattr(_Generator, "run", faulty)
        return calls

    def test_rows_equal_solo_solves(self, dw_model, dw_grid):
        """In chunks of 1, 7 (7 + 4) and all 11 output times, the narrow
        start with exact zero nodes included."""
        cfg = SolverConfig(dt=1e-3)
        starts = self._starts(dw_grid)
        assert np.count_nonzero(starts[1].values == 0.0) > 100
        alone = [solve(p0, dw_model, self.TIMES, cfg) for p0 in starts]
        for rows, bases in ((1, list(range(11))), (7, [0, 7]), (11, [0])):
            values, seen = _chunked(starts, dw_model, self.TIMES, cfg, rows)
            assert seen == bases
            for got, traj in zip(values, alone, strict=True):
                assert got.tobytes() == traj.values.tobytes()

    def test_failing_start_is_named(self, dw_model, dw_grid, monkeypatch):
        """A non-finite node in the second start's state at the third output
        time fails that start, with the time in the message; the first start
        stays clean."""
        self._inject_nans(monkeypatch, [(1, 3)])
        chunks = solved_chunks(self._starts(dw_grid), dw_model, self.TIMES,
                               SolverConfig(dt=1e-3), len(self.TIMES))
        with pytest.raises(SolveError, match=r"t=0\.015: density has non-finite values") as err:
            list(chunks)
        assert err.value.start == 1

    def test_first_failing_start_is_named_across_chunks(self, dw_model, dw_grid, monkeypatch):
        """The third start fails in the second chunk of 3 output times, the
        second start only in the third: the solve raises at the end of the
        second chunk, naming the third start at its first bad time, and
        steps no interval past that chunk."""
        calls = self._inject_nans(monkeypatch, [(2, 4), (1, 8)])
        yielded = []
        with pytest.raises(SolveError, match=r"t=0\.02: density has non-finite values") as err:
            for base, _ in solved_chunks(self._starts(dw_grid), dw_model, self.TIMES,
                                         SolverConfig(dt=1e-3), 3):
                yielded.append(base)
        assert err.value.start == 2
        assert yielded == [0]
        assert len(calls) == 5

    @pytest.mark.parametrize("change, message", [
        (lambda starts: [], "at least one start"),
        (lambda starts: starts[:1] + [gaussian_density(make_uniform_grid(-3.5, 3.5, 601), 0.0,
                                                       0.1)], "share one grid"),
    ], ids=["empty", "other_grid"])
    def test_refuses_starts_it_cannot_step_together(self, dw_model, dw_grid, change, message):
        """Refused when called, before any chunk is drawn."""
        starts = change(self._starts(dw_grid))
        with pytest.raises(ValueError, match=re.escape(message)):
            solved_chunks(starts, dw_model, self.TIMES, SolverConfig(dt=1e-3), 4)


class TestConcurrentSolves:
    def test_threads_equal_solves_alone(self):
        """Two threads solve the double well on equal grids and drifts from
        different starts, five times over, and each result equals its solve
        alone. ``ctypes`` releases the GIL inside LAPACK, so their substeps
        interleave, and any state the solves shared would show."""
        cfg = SolverConfig(dt=1e-3)
        times = np.linspace(0.0, 0.2, 41)

        def problem(mean):  # a grid and a drift of its own, equal to the other's
            grid = make_uniform_grid(-3.5, 3.5, 701)
            start = mixture_density(grid, [(0.5, -mean, 0.09), (0.5, mean, 0.09)])
            return start, double_well_drift(sigma=1.0)

        problems = [problem(0.8), problem(1.3)]
        alone = [solve(p0, model, times, cfg).values for p0, model in problems]
        together = threading.Barrier(len(problems))

        def solve_together(p0_model):
            together.wait(timeout=60)
            return solve(*p0_model, times, cfg).values

        with ThreadPoolExecutor(max_workers=len(problems)) as pool:
            for attempt in range(5):
                for got, expected in zip(pool.map(solve_together, problems), alone, strict=True):
                    assert np.array_equal(got, expected), attempt


def _exact_rows(p0, model, times):
    """The states of the semi-discrete system dp/dt = L p at ``times``, exact
    in time. The Chang-Cooper L is tridiagonal with positive off-diagonals
    and in detailed balance, so ``S = D^-1 L D`` is symmetric with
    off-diagonals ``sqrt(lower * upper)`` (Risken, The Fokker-Planck
    Equation, 1989, sec. 5.4), and ``p(t) = D V exp(t Lambda) V^T D^-1 p0``
    with ``S = V Lambda V^T``."""
    gen = _Generator(p0.grid, model)
    lower, upper = gen.lower[1:], gen.upper[:-1]
    # d[i + 1] / d[i] = sqrt(L[i + 1, i] / L[i, i + 1]), scaled so that max(d) = 1
    log_d = np.concatenate([[0.0], np.cumsum(0.5 * np.log(lower / upper))])
    d = np.exp(log_d - log_d.max())
    eigenvalues, vectors = eigh_tridiagonal(gen.diag, np.sqrt(lower * upper))
    modes = vectors.T @ (p0.values / d)
    return d * ((np.exp(np.outer(times, eigenvalues)) * modes) @ vectors.T)


class TestExactInTime:
    """The Crank-Nicolson solve against the eigen-expansion of its own generator:
    what is left is the time-stepping error alone, for any drift."""

    @pytest.mark.parametrize("name", ["ou_benchmark", "double_well_relax"])
    def test_varentropy_matches_exact_in_time(self, name):
        config = ScenarioConfig.from_json(
            Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
        p0, times, sigma = config.initial_density(), config.time_samples(), config.model.sigma
        rows = _exact_rows(p0, config.model, times)
        # the expansion rounds the far tails to within 1e-15 of zero, either side
        assert rows.min() > -1e-15
        exact = DensityTrajectory(times, [Density(config.grid, np.maximum(row, 0.0))
                                          for row in rows])
        pbar = config.stationary_density()
        expected = report(exact, pbar, sigma).varentropy
        got = report(solve(p0, config.model, times, config.solver), pbar, sigma).varentropy
        assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-6


class TestSubstepKernel:
    """One output interval runs all its substeps in one kernel call, back and
    forth between the generator's two state buffers; the states equal a chain
    of independently assembled steps."""

    def _start(self, dw_grid):
        return mixture_density(dw_grid, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)])

    def _count_runs(self, monkeypatch):
        """Record ``(dt, n_steps)`` of every ``_Generator.run`` call."""
        real = _Generator.run
        calls = []

        def counting(gen, values, dt, n_steps):
            calls.append((dt, n_steps))
            return real(gen, values, dt, n_steps)

        monkeypatch.setattr(_Generator, "run", counting)
        return calls

    def test_interval_equals_chain_of_reference_steps(self, dw_model, dw_grid, monkeypatch):
        """dt = 1 ms and 10 ms output intervals: each interval is one
        ``run`` call of 10 nominal steps times several positivity substeps,
        and every row keeps every bit of the chained Crank-Nicolson
        reference of the symmetric path."""
        cfg = SolverConfig(dt=1e-3)
        gen = _Generator(dw_grid, dw_model)
        n_nominal = 10
        n_pos = math.ceil(1e-2 / n_nominal / gen.positivity_dt() - 1e-12)
        assert n_pos >= 2
        calls = self._count_runs(monkeypatch)
        times = np.linspace(0.0, 0.1, 11)
        p0 = self._start(dw_grid)
        traj = solve(p0, dw_model, times, cfg)
        assert [n_steps for _, n_steps in calls] == [n_nominal * n_pos] * (len(times) - 1)
        reference = p0.values
        for k in range(1, len(times)):
            substep = (times[k] - times[k - 1]) / n_nominal / n_pos
            reference = _reference_chain(dw_grid, dw_model, reference, substep, 0.5,
                                         n_nominal * n_pos)
            assert np.array_equal(traj.values[k], reference), k

    def test_plan_is_what_the_solve_steps(self, dw_model, dw_grid, monkeypatch):
        """Each output interval of an irregular mesh is one ``run`` call of
        the size and count that ``substep_plan`` gives it: nominal steps no
        longer than ``dt``, split into positivity substeps, computed here in
        Python floats."""
        cfg = SolverConfig(dt=1e-3)
        times = np.array([0.0, 1e-4, 2.5e-3, 3e-3, 0.0301, 0.05])
        dt_pos = _Generator(dw_grid, dw_model).positivity_dt()
        expected = []
        for width in np.diff(times).tolist():
            n_nominal = math.ceil(width / cfg.dt - 1e-12)
            n_pos = math.ceil(width / n_nominal / dt_pos - 1e-12)
            expected.append((width / n_nominal / n_pos, n_nominal * n_pos))
        calls = self._count_runs(monkeypatch)
        solve(self._start(dw_grid), dw_model, times, cfg)
        assert calls == substep_plan(dw_grid, dw_model, times, cfg) == expected

    def test_too_long_solve_refused_before_stepping(self, dw_model, dw_grid, monkeypatch):
        """A solve of more node-substeps than ``MAX_NODE_SUBSTEPS`` raises
        ``SolveError`` when ``solved_chunks`` is called, before any factor
        is built; one of exactly that many is stepped."""
        cfg = SolverConfig(dt=1e-3)
        times = np.linspace(0.0, 0.05, 6)
        work = dw_grid.n * sum(count for _, count in substep_plan(dw_grid, dw_model, times, cfg))
        monkeypatch.setattr(fokker_planck, "MAX_NODE_SUBSTEPS", work - 1)
        monkeypatch.setattr(_Generator, "_factored_step", None)
        message = f"make {work:.3g} node-substeps, more than the {work - 1:g} a solve may take"
        with pytest.raises(SolveError, match=re.escape(message) + "$"):
            solved_chunks([self._start(dw_grid)], dw_model, times, cfg, 2)
        monkeypatch.undo()
        monkeypatch.setattr(fokker_planck, "MAX_NODE_SUBSTEPS", work)
        assert len(solve(self._start(dw_grid), dw_model, times, cfg)) == len(times)

    @pytest.mark.parametrize("path, theta", _each_path(0.5))
    def test_run_equals_chain_of_reference_steps(self, path, theta):
        """Several substeps per kernel call equal as many reference steps at
        theta = 1/2, Crank-Nicolson, on either path. Odd and even counts end
        a call in either state buffer."""
        grid, model = PATHS[path]
        gen = _Generator(grid, model)
        values = reference = self._start(grid).values
        calls = [(1e-4, 5), (1e-3 / 9, 9), (1e-4, 2), (1e-3 / 8, 8), (1e-4, 3)]
        for k, (dt, n_steps) in enumerate(calls * 4):
            values = gen.run(values, dt, n_steps)
            reference = _reference_chain(grid, model, reference, dt, theta, n_steps)
            assert np.array_equal(values, reference), k

    @pytest.mark.parametrize("grid, model, components", [
        (*PATHS["double_well"], [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)]),
        (make_uniform_grid(-8.0, 8.0, 801), OUBenchmark(0.25).model(), [(1.0, 0.0, 0.25)]),
        (*PATHS["steep_quartic"], [(1.0, 0.0, 0.25)]),
    ], ids=["double_well", "ou", "steep_quartic"])
    def test_explicit_step_rounds_as_three_point_sum(self, grid, model, components):
        """The explicit stage of a step, its ``dlagtm`` call alone, rounds
        every node of the scaled state ``u = v / d`` as ``(l u[i-1] + c u[i])
        + r u[i+1]`` evaluated left to right, the diagonals being those of
        ``I + dt A / 2``: with the symmetric form's off-diagonals on the
        symmetric path, and with L's and ``d = 1`` on the LU path."""
        gen = _Generator(grid, model)
        v = mixture_density(grid, components).values
        half = 0.5 * (0.5 * gen.positivity_dt())
        if gen.symmetric:
            lower = upper = half * gen.coupling
        else:
            lower, upper = half * gen.lower[1:], half * gen.upper[:-1]
            assert np.all(gen.scale == 1.0)
        centre = 1.0 + half * gen.diag
        u = v / gen.scale
        expected = np.empty(grid.n)
        expected[0] = centre[0] * u[0] + upper[0] * u[1]
        expected[1:-1] = (lower[:-1] * u[:-2] + centre[1:-1] * u[1:-1]) + upper[1:] * u[2:]
        expected[-1] = lower[-1] * u[-2] + centre[-1] * u[-1]
        dlagtm, _, calls, _ = gen._factored_step(2.0 * half)
        gen._buffers[0, 0] = u
        dlagtm(*calls[0][0])  # buffer 0 into buffer 1
        assert gen._buffers[1, 0].tobytes() == expected.tobytes()


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

        from varentropy_lab.grids import gradient, support_mask

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
