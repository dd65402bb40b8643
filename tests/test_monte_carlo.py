"""Path ensembles and the statistical estimators built on them.

Monte Carlo assertions run at 3 standard errors with frozen seeds; the
standard errors come from the estimators themselves, so a wrong
implementation fails systematically rather than marginally.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varentropy_lab import (
    MartingaleRow,
    MCFunctionals,
    SolverConfig,
    backward_drift_on_grid,
    duality_residual,
    ensemble_columns,
    ensemble_times,
    estimate_backward_drift,
    gaussian_density,
    invariant_density,
    make_uniform_grid,
    martingale_diagnostic,
    mc_functionals,
    mixture_density,
    relative_entropy,
    simulate_ensemble,
    solve,
    varentropy,
    varentropy_rate,
)
from varentropy_lab.grids import DEFAULT_LOG_FLOOR, gradient, safe_log_ratio
from varentropy_lab.monte_carlo import _bin_statistics, _interp, _locate, _nodes_at_or_below


def _first_two(paths, dt):
    """The first two stored columns and their spacing, for
    ``estimate_backward_drift``."""
    return paths[:, 0], paths[:, 1], dt


def _last_two(paths, dt):
    """The last two stored columns and their spacing."""
    return paths[:, -2], paths[:, -1], dt


#: Step of the stationary ensemble, which stores every step.
STATIONARY_DT = 1e-3


@pytest.fixture(scope="module")
def stationary_ensemble(ou_model, ou_stationary):
    return simulate_ensemble(
        ou_model, ou_stationary, dt=STATIONARY_DT, t_end=0.05, n_paths=100_000, seed=20240801
    )


class TestSimulateEnsemble:
    def test_seed_determinism(self, ou_model, narrow_gaussian):
        kw = dict(dt=1e-2, t_end=0.1, n_paths=64, seed=42)
        a = simulate_ensemble(ou_model, narrow_gaussian, **kw)
        b = simulate_ensemble(ou_model, narrow_gaussian, **kw)
        assert np.array_equal(a, b)

    def test_single_path_repeatable(self, ou_model, narrow_gaussian):
        kw = dict(dt=1e-2, t_end=0.2, n_paths=1, seed=7)
        a = simulate_ensemble(ou_model, narrow_gaussian, **kw)
        b = simulate_ensemble(ou_model, narrow_gaussian, **kw)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, ou_model, narrow_gaussian):
        a = simulate_ensemble(ou_model, narrow_gaussian, 1e-2, 0.1, 64, seed=1)
        b = simulate_ensemble(ou_model, narrow_gaussian, 1e-2, 0.1, 64, seed=2)
        assert not np.array_equal(a, b)

    def test_stationary_variance(self, stationary_ensemble):
        """Sample variance stays at 1 within 3 standard errors at every time."""
        n = stationary_ensemble.shape[0]
        for k in range(0, stationary_ensemble.shape[1], 10):
            sample = stationary_ensemble[:, k]
            se = sample.var(ddof=1) * np.sqrt(2.0 / n)
            assert abs(sample.var(ddof=1) - 1.0) < 3 * se + 1e-3

    def test_transient_variance(self, ou_model, narrow_gaussian, bench):
        paths = simulate_ensemble(
            ou_model, narrow_gaussian, dt=1e-3, t_end=1.0, n_paths=100_000,
            seed=1234, store_every=1000,
        )
        sample = paths[:, -1]
        expected = bench.variance(1.0)
        se = sample.var(ddof=1) * np.sqrt(2.0 / len(sample))
        # 3 SE plus the O(dt) weak bias allowance
        assert abs(sample.var(ddof=1) - expected) < 3 * se + 1e-3

    def test_initial_law_matches_density(self, ou_model, narrow_gaussian):
        x0 = simulate_ensemble(ou_model, narrow_gaussian, 1e-2, 0.01, 200_000, seed=5)[:, 0]
        assert x0.mean() == pytest.approx(0.0, abs=4 * 0.5 / np.sqrt(len(x0)))
        assert x0.var(ddof=1) == pytest.approx(0.25, rel=2e-2)

    def test_store_every(self, ou_model, narrow_gaussian):
        paths = simulate_ensemble(
            ou_model, narrow_gaussian, dt=1e-2, t_end=0.1, n_paths=8, seed=3,
            store_every=5,
        )
        assert_allclose(ensemble_times(1e-2, 0.1, 5), [0.0, 0.05, 0.1])
        assert paths.shape == (8, 3)

    def test_invalid_step_rejected(self, ou_model, narrow_gaussian):
        with pytest.raises(ValueError, match="invalid step"):
            simulate_ensemble(ou_model, narrow_gaussian, -1e-3, 0.1, 8, seed=0)
        with pytest.raises(ValueError, match="invalid step"):
            simulate_ensemble(ou_model, narrow_gaussian, 3e-3, 0.01, 8, seed=0)

    def test_weak_bias_linear_in_dt(self, ou_model, ou_stationary):
        """The discrete chain equilibrates to variance 1/(1 - dt/4); running
        long from the continuous stationary law exposes the O(dt) bias, which
        halves when dt does."""
        biases = []
        for dt, seed in ((0.2, 11), (0.1, 12)):
            paths = simulate_ensemble(
                ou_model, ou_stationary, dt=dt, t_end=2.0, n_paths=400_000,
                seed=seed, store_every=int(round(2.0 / dt)),
            )
            biases.append(paths[:, -1].var(ddof=1) - 1.0)
        assert 1.4 < biases[0] / biases[1] < 2.9


class TestBackwardDrift:
    def test_stationary_value_near_two(self, stationary_ensemble, ou_model, ou_stationary):
        """At stationarity the backward drift is +x/2: the forward drift
        -x/2 plus the stationary score correction +x."""
        bins = make_uniform_grid(-3.0, 3.0, 13)
        est = estimate_backward_drift(*_last_two(stationary_ensemble, STATIONARY_DT), bins)
        k = int(np.argmin(np.abs(est.bin_centers - 2.0)))
        assert est.defined[k]
        expected = est.bin_centers[k] / 2.0
        assert abs(est.values[k] - expected) < 3 * est.std_errors[k]

    def test_sparse_bins_undefined(self, stationary_ensemble):
        bins = make_uniform_grid(-8.0, 8.0, 65)
        est = estimate_backward_drift(*_first_two(stationary_ensemble, STATIONARY_DT), bins)
        far = np.abs(est.bin_centers) > 5.0
        assert not est.defined[far].any()
        assert np.isnan(est.values[far]).all()

    def test_flat_density_region_backward_equals_forward(self, dw_model, dw_grid):
        """Where the density is locally flat the score term vanishes and the
        backward drift coincides with the forward drift."""
        flat = gaussian_density(dw_grid, 0.0, 25.0, time=0.0)
        # grid truncation makes this "flat" density wide, not literally flat;
        # check at the origin where its score is zero by symmetry
        x = dw_grid.x
        curve = backward_drift_on_grid(dw_model, flat)
        mid = dw_grid.n // 2
        assert curve[mid] == pytest.approx(dw_model.drift(0.0), abs=1e-8)

    def test_column_shapes_validated(self, stationary_ensemble):
        bins = make_uniform_grid(-3, 3, 13)
        before, here, dt = _last_two(stationary_ensemble, STATIONARY_DT)
        with pytest.raises(ValueError, match="same paths"):
            estimate_backward_drift(before[:-1], here, dt, bins)
        with pytest.raises(ValueError, match="same paths"):
            estimate_backward_drift(stationary_ensemble, stationary_ensemble, dt, bins)


class TestDuality:
    def test_stationary_residual_within_noise(self, stationary_ensemble, ou_model, ou_stationary):
        bins = make_uniform_grid(-3.0, 3.0, 25)
        est = estimate_backward_drift(*_last_two(stationary_ensemble, STATIONARY_DT), bins)
        residual = duality_residual(est, ou_model, ou_stationary)
        assert residual <= 3.0 * est.pooled_standard_error()

    def test_stationary_target_is_minus_forward_drift(self, ou_model, ou_stationary):
        """For gradient drifts the zero-flux identity turns the backward
        drift into the negated forward drift at stationarity."""
        curve = backward_drift_on_grid(ou_model, ou_stationary)
        x = ou_stationary.grid.x
        inner = np.abs(x) < 4.0
        assert_allclose(curve[inner], -ou_model.drift(x)[inner], atol=1e-6)

    def test_wrong_target_detected(self, ou_model, narrow_gaussian):
        """Off stationarity, scoring the increments against the forward
        drift must fail by a wide statistical margin."""
        paths = simulate_ensemble(
            ou_model, narrow_gaussian, dt=1e-3, t_end=0.1, n_paths=200_000, seed=77
        )
        traj = solve(narrow_gaussian, ou_model, ensemble_times(1e-3, 0.1), SolverConfig(dt=1e-3))
        bins = make_uniform_grid(-2.5, 2.5, 21)
        last = len(traj) - 1
        est = estimate_backward_drift(*_last_two(paths, 1e-3), bins)
        pooled = est.pooled_standard_error()

        good = duality_residual(est, ou_model, traj[last])
        assert good <= 3.0 * pooled

        defined = est.defined
        wrong_target = ou_model.drift(est.bin_centers[defined])
        counts = est.counts[defined]
        wrong = np.sqrt(
            np.sum(counts * (est.values[defined] - wrong_target) ** 2) / counts.sum()
        )
        assert wrong > 3.0 * pooled

    def test_no_defined_bins_raises(self, stationary_ensemble, ou_model, ou_stationary):
        bins = make_uniform_grid(6.0, 8.0, 5)
        est = estimate_backward_drift(*_first_two(stationary_ensemble, STATIONARY_DT), bins)
        with pytest.raises(ValueError, match="minimum count"):
            duality_residual(est, ou_model, ou_stationary)


@pytest.fixture(scope="module")
def diag(ou_model, narrow_gaussian, wide_grid):
    paths = simulate_ensemble(
        ou_model, narrow_gaussian, dt=2.5e-3, t_end=0.25, n_paths=40_000, seed=99
    )
    traj = solve(narrow_gaussian, ou_model, ensemble_times(2.5e-3, 0.25), SolverConfig(dt=1e-3))
    pbar = invariant_density(ou_model, wide_grid)
    bins = make_uniform_grid(-3.0, 3.0, 25)
    return martingale_diagnostic(paths.T, traj, pbar, bins=bins)


class TestMartingale:
    def test_mean_ratio_is_one(self, diag):
        for row in diag:
            assert abs(row.mean_ratio - 1.0) <= 3.0 * row.se_ratio

    def test_conditional_residual_within_noise(self, diag):
        rows = [r for r in diag if r.cond_residual is not None]
        assert rows, "no conditional rows produced"
        for row in rows:
            assert row.cond_residual <= 3.0 * row.cond_pooled_se

    def test_stationary_ratio_identically_one(self, ou_model, ou_stationary):
        paths = simulate_ensemble(
            ou_model, ou_stationary, dt=1e-2, t_end=0.05, n_paths=2_000, seed=13
        )
        traj = solve(ou_stationary, ou_model, ensemble_times(1e-2, 0.05), SolverConfig(dt=1e-2))
        rows = martingale_diagnostic(paths.T, traj, ou_stationary)
        for row in rows:
            assert row.mean_ratio == pytest.approx(1.0, abs=1e-7)
            if row.cond_residual is not None:
                assert row.cond_residual < 1e-7

    def test_time_mesh_mismatch_rejected(self, ou_model, narrow_gaussian, ou_stationary):
        paths = simulate_ensemble(ou_model, narrow_gaussian, 1e-2, 0.1, 100, seed=1)
        traj = solve(narrow_gaussian, ou_model, np.linspace(0, 0.2, 21), SolverConfig(dt=1e-2))
        with pytest.raises(ValueError, match="time mesh"):
            martingale_diagnostic(paths.T, traj, ou_stationary)


@pytest.fixture(scope="module")
def transient(ou_model, narrow_gaussian):
    paths = simulate_ensemble(
        ou_model, narrow_gaussian, dt=1e-3, t_end=1.0, n_paths=100_000,
        seed=12345, store_every=500,
    )
    traj = solve(narrow_gaussian, ou_model, ensemble_times(1e-3, 1.0, 500), SolverConfig(dt=1e-3))
    return paths, traj


class TestMCFunctionals:
    def test_stationary_estimates_vanish(self, ou_model, ou_stationary):
        paths = simulate_ensemble(
            ou_model, ou_stationary, dt=1e-3, t_end=0.01, n_paths=50_000, seed=3
        )
        est = mc_functionals(paths[:, 0], ou_stationary, ou_stationary, ou_model.sigma)
        assert abs(est.relative_entropy) <= 3 * est.relative_entropy_se + 1e-9
        assert est.varentropy <= 3 * est.varentropy_se + 1e-9
        assert abs(est.varentropy_rate) <= 3 * est.varentropy_rate_se + 1e-9

    def test_initial_time_closed_forms(self, transient, ou_stationary, ou_model, bench):
        paths, traj = transient
        est = mc_functionals(paths[:, 0], traj[0], ou_stationary, ou_model.sigma)
        assert abs(est.relative_entropy - bench.relative_entropy(0.0)) <= 3 * est.relative_entropy_se
        assert abs(est.varentropy - bench.varentropy(0.0)) <= 3 * est.varentropy_se

    def test_agreement_with_quadrature(self, transient, ou_stationary, ou_model):
        paths, traj = transient
        for x, p in zip(paths.T, traj.states, strict=True):
            est = mc_functionals(x, p, ou_stationary, ou_model.sigma)
            assert est.time == p.time
            assert abs(est.relative_entropy - relative_entropy(p, ou_stationary)) <= (
                3 * est.relative_entropy_se
            )
            assert abs(est.varentropy - varentropy(p, ou_stationary)) <= 3 * est.varentropy_se
            assert abs(
                est.varentropy_rate - varentropy_rate(p, ou_stationary, ou_model.sigma)
            ) <= 3 * est.varentropy_rate_se

    def test_error_shrinks_with_ensemble_size(self, ou_model, narrow_gaussian, ou_stationary, bench):
        """Mean absolute entropy error over seed replicates drops by about
        sqrt(2) when the ensemble size doubles."""
        exact = bench.relative_entropy(0.0)

        def mean_abs_error(n_paths):
            errs = []
            for seed in range(8):
                paths = simulate_ensemble(
                    ou_model, narrow_gaussian, 1e-2, 0.01, n_paths, seed=seed
                )
                est = mc_functionals(paths[:, 0], narrow_gaussian, ou_stationary, ou_model.sigma)
                errs.append(abs(est.relative_entropy - exact))
            return np.mean(errs)

        ratio = mean_abs_error(5_000) / mean_abs_error(20_000)
        assert 1.4 < ratio < 2.9  # expect about 2 for a fourfold size increase


# ---------------------------------------------------------------------------
# the uniform-grid kernels and the in-place loop against the plain numpy forms
# ---------------------------------------------------------------------------


def _probe_points(grid, rng):
    """Random points, every node, both floating-point neighbours of every
    node, and points beyond both ends."""
    x = grid.x
    return np.concatenate([
        rng.uniform(grid.lo, grid.hi, 20_000),
        x,
        np.nextafter(x, -np.inf),
        np.nextafter(x, np.inf),
        [grid.lo, grid.hi, grid.lo - 1e-300, grid.lo - 1.0, grid.hi + 1.0],
        rng.uniform(grid.lo - 2.0, grid.hi + 2.0, 2_000),
    ])


GRIDS = [(-3.5, 3.5, 701), (-8.0, 8.0, 801), (-2.9, 2.9, 29), (0.1, 0.7, 7)]


class TestUniformGridKernel:
    @pytest.mark.parametrize("lo, hi, n", GRIDS)
    def test_interp_equals_numpy(self, lo, hi, n):
        rng = np.random.default_rng(n)
        grid = make_uniform_grid(lo, hi, n)
        x = _probe_points(grid, rng)
        cells = _locate(x, grid)
        for fp in (rng.normal(size=n), np.exp(-grid.x**2), 1e-300 * rng.uniform(size=n)):
            assert np.array_equal(_interp(cells, fp, grid), np.interp(x, grid.x, fp))

    @pytest.mark.parametrize("lo, hi, n", GRIDS)
    def test_bin_index_equals_searchsorted(self, lo, hi, n):
        grid = make_uniform_grid(lo, hi, n)
        x = _probe_points(grid, np.random.default_rng(n))
        expected = np.searchsorted(grid.x, x, side="right")
        assert np.array_equal(_nodes_at_or_below(x, grid), expected)

    def test_buffers_are_filled_in_place(self):
        grid = make_uniform_grid(-3.0, 3.0, 61)
        x = _probe_points(grid, np.random.default_rng(1))
        fp = np.sin(grid.x)
        j, offset, out, scratch = (np.empty(len(x), dtype=np.intp), np.empty(len(x)),
                                   np.empty(len(x)), np.empty(len(x)))
        cells = _locate(x, grid, j, offset)
        assert cells[0] is j and cells[1] is offset
        assert _interp(cells, fp, grid, out=out, scratch=scratch) is out
        assert np.array_equal(out, np.interp(x, grid.x, fp))

    def test_bin_statistics_equal_filtered_bincount(self):
        """The arithmetic binning gives the counts, means and standard
        errors of the searchsorted-and-filter form, bit for bit."""
        rng = np.random.default_rng(3)
        bins = make_uniform_grid(-2.9, 2.9, 29)
        positions = np.concatenate([rng.normal(scale=1.5, size=50_000), bins.x, [-9.0, 9.0]])
        samples = rng.normal(size=len(positions))
        n_bins = bins.n - 1
        idx = np.searchsorted(bins.x, positions, side="right") - 1
        ok = (idx >= 0) & (idx < n_bins)
        counts = np.bincount(idx[ok], minlength=n_bins)
        sums = np.bincount(idx[ok], weights=samples[ok], minlength=n_bins)
        squares = np.bincount(idx[ok], weights=samples[ok] ** 2, minlength=n_bins)
        safe = np.maximum(counts, 1)
        means = sums / safe
        ses = np.sqrt(np.maximum(squares / safe - means**2, 0.0) / np.maximum(counts - 1, 1))
        defined = counts >= 50
        got_counts, got_means, got_ses = _bin_statistics(positions, samples, bins)
        assert np.array_equal(got_counts, counts)
        assert np.array_equal(got_means[defined], means[defined])
        assert np.array_equal(got_ses[defined], ses[defined])
        assert np.isnan(got_means[~defined]).all() and np.isnan(got_ses[~defined]).all()


def _reference_ensemble(model, init, dt, t_end, n_paths, seed, store_every):
    """Euler-Maruyama in its plain form: a new array per operation, a copy
    per stored step, ``np.where`` reflection and ``column_stack``. Returns
    the paths and the number of reflected positions."""
    rng = np.random.default_rng(seed)
    lo, hi = init.grid.lo, init.grid.hi
    cell_mass = 0.5 * init.grid.dx * (init.values[1:] + init.values[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(cell_mass)])
    cdf /= cdf[-1]
    x = np.interp(rng.uniform(size=n_paths), cdf, init.grid.x)
    stored = [x.copy()]
    reflected = 0
    root_dt = math.sqrt(dt)
    for k in range(1, int(round(t_end / dt)) + 1):
        x = x + model.drift(x) * dt + model.sigma * root_dt * rng.standard_normal(n_paths)
        while True:
            below, above = x < lo, x > hi
            if not (below.any() or above.any()):
                break
            reflected += int(below.sum() + above.sum())
            x = np.where(below, 2.0 * lo - x, x)
            x = np.where(above, 2.0 * hi - x, x)
        if k % store_every == 0:
            stored.append(x.copy())
    return np.column_stack(stored), reflected


class TestInPlaceEnsemble:
    @pytest.mark.parametrize("start", [-1.0, 1.0])
    @pytest.mark.parametrize("drift", ["ou", "double_well"])
    def test_equals_reference_loop(self, drift, start, ou_model, dw_model):
        """Same draws, same rounding: the in-place loop reproduces the plain
        loop bit for bit, with reflections firing on a narrow grid at the
        boundary the start is next to."""
        model = ou_model if drift == "ou" else dw_model
        grid = make_uniform_grid(-1.6, 1.6, 161)
        init = gaussian_density(grid, start, 0.09)
        kw = dict(dt=1e-2, t_end=0.6, n_paths=3_000, seed=8, store_every=3)
        paths = simulate_ensemble(model, init, **kw)
        expected, reflected = _reference_ensemble(model, init, **kw)
        assert reflected > 100
        assert paths.shape == expected.shape == (3_000, 21)
        assert np.array_equal(paths, expected)

    def test_stored_columns_contiguous_and_read_only(self, ou_model, narrow_gaussian):
        paths = simulate_ensemble(ou_model, narrow_gaussian, 1e-2, 0.1, 500, seed=4)
        assert paths.shape == (500, len(ensemble_times(1e-2, 0.1)))
        assert paths.flags.f_contiguous and not paths.flags.writeable
        for k in range(paths.shape[1]):
            assert paths[:, k].flags.c_contiguous


class TestEnsembleColumns:
    @pytest.mark.parametrize("store_every", [1, 3])
    @pytest.mark.parametrize("start", [0.0, 1.0])
    def test_stored_ensemble_equals_stacked_columns(self, store_every, start, dw_model):
        """The stream and the stored ensemble are one loop: same draws,
        same rounding, reflections included (the start at 1 sits next to
        the boundary of a narrow grid)."""
        grid = make_uniform_grid(-1.6, 1.6, 161)
        init = gaussian_density(grid, start, 0.09)
        kw = dict(dt=1e-2, t_end=0.6, n_paths=2_000, seed=8, store_every=store_every)
        paths = simulate_ensemble(dw_model, init, **kw)
        # each yielded column is the live buffer: copy on arrival
        stream = [(k, x.copy()) for k, x in ensemble_columns(dw_model, init, **kw)]
        assert [k for k, _ in stream] == list(range(paths.shape[1]))
        assert np.array_equal(paths, np.column_stack([x for _, x in stream]))
        if start == 1.0:
            _, reflected = _reference_ensemble(dw_model, init, **kw)
            assert reflected > 100

    def test_invalid_arguments_rejected_on_call(self, ou_model, narrow_gaussian):
        with pytest.raises(ValueError, match="invalid step"):
            ensemble_columns(ou_model, narrow_gaussian, 3e-3, 0.01, 8, seed=0)
        with pytest.raises(ValueError, match="store_every"):
            ensemble_columns(ou_model, narrow_gaussian, 1e-2, 0.1, 8, seed=0, store_every=3)
        with pytest.raises(ValueError, match="at least one path"):
            ensemble_columns(ou_model, narrow_gaussian, 1e-2, 0.1, 0, seed=0)


class TestStreamedMartingale:
    KW = dict(dt=2e-3, t_end=0.04, n_paths=5_000, seed=17)

    @pytest.fixture(scope="class")
    def case(self, dw_model, dw_grid, dw_stationary):
        p0 = mixture_density(dw_grid, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)])
        paths = simulate_ensemble(dw_model, p0, **self.KW)
        times = ensemble_times(self.KW["dt"], self.KW["t_end"])
        traj = solve(p0, dw_model, times, SolverConfig(dt=1e-3))
        return dw_model, p0, paths, traj, dw_stationary

    def _stream(self, model, p0):
        return (x for _, x in ensemble_columns(model, p0, **self.KW))

    def test_rows_equal_stored_ensemble(self, case):
        model, p0, paths, traj, pbar = case
        bins = make_uniform_grid(-2.9, 2.9, 29)
        streamed = martingale_diagnostic(self._stream(model, p0), traj, pbar, bins=bins)
        assert streamed == martingale_diagnostic(paths.T, traj, pbar, bins=bins)
        assert len(streamed) == len(traj)

    def test_short_stream_rejected(self, case):
        model, p0, paths, traj, pbar = case
        short = itertools.islice(self._stream(model, p0), len(traj) - 1)
        with pytest.raises(ValueError, match="time mesh mismatch"):
            martingale_diagnostic(short, traj, pbar)
        with pytest.raises(ValueError, match="time mesh mismatch"):
            martingale_diagnostic(paths.T[:-1], traj, pbar)

    def test_long_stream_rejected(self, case):
        model, p0, paths, traj, pbar = case
        long = itertools.chain(self._stream(model, p0), [paths[:, -1]])
        with pytest.raises(ValueError, match="time mesh mismatch"):
            martingale_diagnostic(long, traj, pbar)
        with pytest.raises(ValueError, match="time mesh mismatch"):
            martingale_diagnostic(np.vstack([paths.T, paths.T[-1:]]), traj, pbar)


def _reference_martingale(paths, traj, pbar, bins, min_count=50):
    """martingale_diagnostic written with ``np.interp``, ``searchsorted`` and
    a list of every stored ratio."""
    ratios = []
    for k in range(len(traj)):
        x = paths[:, k]
        num = np.interp(x, traj.grid.x, pbar.values)
        den = np.maximum(np.interp(x, traj.grid.x, traj[k].values), DEFAULT_LOG_FLOOR)
        ratios.append(num / den)
    rows = []
    n_bins = bins.n - 1
    for k, ratio in enumerate(ratios):
        cond_res = cond_pooled = None
        if k >= 1:
            diff = ratios[k - 1] - ratio
            idx = np.searchsorted(bins.x, paths[:, k], side="right") - 1
            ok = (idx >= 0) & (idx < n_bins)
            counts = np.bincount(idx[ok], minlength=n_bins)
            sums = np.bincount(idx[ok], weights=diff[ok], minlength=n_bins)
            squares = np.bincount(idx[ok], weights=diff[ok] ** 2, minlength=n_bins)
            safe = np.maximum(counts, 1)
            means = sums / safe
            ses = np.sqrt(np.maximum(squares / safe - means**2, 0.0) / np.maximum(counts - 1, 1))
            d = counts >= min_count
            if np.any(d):
                c = counts[d]
                cond_res = float(np.sqrt(np.sum(c * means[d] ** 2) / c.sum()))
                cond_pooled = float(np.sqrt(np.sum(c * ses[d] ** 2) / c.sum()))
        rows.append(MartingaleRow(float(traj.times[k]), float(ratio.mean()),
                                  float(ratio.std(ddof=1) / math.sqrt(len(ratio))),
                                  cond_res, cond_pooled))
    return rows


def _reference_mc_functionals(x, p_t, pbar, sigma):
    """mc_functionals written with two ``np.interp`` calls."""
    logratio = safe_log_ratio(p_t, pbar)
    lr = np.interp(x, p_t.grid.x, logratio)
    sl = np.interp(x, p_t.grid.x, gradient(logratio, p_t.grid))
    n = len(x)
    entropy = float(lr.mean())
    varent = float(lr.var(ddof=1))
    centered = lr - lr.mean()
    integrand = sigma**2 * (-lr - 1.0 + entropy) * sl**2
    return MCFunctionals(
        p_t.time, entropy, float(lr.std(ddof=1) / math.sqrt(n)), varent,
        float(math.sqrt(max((centered**4).mean() - varent**2, 0.0) / n)),
        float(integrand.mean()), float(integrand.std(ddof=1) / math.sqrt(n)),
    )


class TestDiagnosticsEqualInterpReference:
    @pytest.fixture(scope="class")
    def dw_case(self, dw_model, dw_grid, dw_stationary):
        p0 = mixture_density(dw_grid, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)])
        paths = simulate_ensemble(dw_model, p0, dt=2e-3, t_end=0.04, n_paths=20_000, seed=17)
        traj = solve(p0, dw_model, ensemble_times(2e-3, 0.04), SolverConfig(dt=1e-3))
        return paths, traj, dw_stationary, dw_model.sigma

    def test_martingale_rows(self, dw_case):
        paths, traj, pbar, _ = dw_case
        bins = make_uniform_grid(-2.9, 2.9, 29)
        rows = martingale_diagnostic(paths.T, traj, pbar, bins=bins)
        assert rows == _reference_martingale(paths, traj, pbar, bins)
        assert sum(r.cond_residual is not None for r in rows) == len(rows) - 1

    def test_mc_functionals_rows(self, dw_case):
        paths, traj, pbar, sigma = dw_case
        for x, p_t in zip(paths.T, traj.states, strict=True):
            assert mc_functionals(x, p_t, pbar, sigma) == _reference_mc_functionals(x, p_t, pbar,
                                                                                      sigma)
