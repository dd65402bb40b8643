"""Grid substrate: quadrature, differencing, guarded log ratios."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varentropy_lab import (
    Density,
    DensityTrajectory,
    SolverConfig,
    gaussian_density,
    gradient,
    integrate,
    make_uniform_grid,
    mixture_density,
    normalized_density,
    safe_log_ratio,
    solve,
    support_mask,
)
from varentropy_lab.grids import DEFAULT_LOG_FLOOR, DEFAULT_MASS_TOL, gradient_rows, integrate_rows

from harmonicity import laplacian

#: exact mass of the standard normal over (-8, 8): erf(8 / sqrt(2))
NORMAL_MASS_WIDE = 0.9999999999999988


class TestGrid:
    def test_spacing(self):
        g = make_uniform_grid(-8, 8, 801)
        assert g.dx == pytest.approx(0.02)
        assert g.n == 801

    def test_smallest_grid_nodes(self):
        g = make_uniform_grid(0, 1, 3)
        assert_allclose(g.x, [0.0, 0.5, 1.0])

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match="invalid bounds"):
            make_uniform_grid(8, -8, 801)

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="must be finite"):
            make_uniform_grid(lo, hi, 11)

    def test_overflowing_width_rejected(self):
        """Finite bounds whose width ``hi - lo`` overflows to inf would
        give an infinite spacing and non-finite nodes."""
        with pytest.raises(ValueError, match="overflows"):
            make_uniform_grid(-1e308, 1e308, 11)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="invalid bounds"):
            make_uniform_grid(0, 1, 2)

    def test_endpoints_exact(self):
        g = make_uniform_grid(-3.7, 11.3, 417)
        assert g.x[0] == -3.7
        assert g.x[-1] == 11.3


class TestIntegrate:
    def test_constant(self):
        g = make_uniform_grid(0, 1, 101)
        assert integrate(np.ones(g.n), g) == pytest.approx(1.0, abs=1e-14)

    def test_linear_exact(self):
        g = make_uniform_grid(0, 1, 101)
        assert integrate(g.x, g) == pytest.approx(0.5, abs=1e-14)

    def test_standard_normal_mass(self):
        g = make_uniform_grid(-8, 8, 801)
        values = np.exp(-g.x**2 / 2) / math.sqrt(2 * math.pi)
        assert integrate(values, g) == pytest.approx(NORMAL_MASS_WIDE, abs=1e-6)

    def test_length_mismatch(self):
        g = make_uniform_grid(0, 1, 11)
        with pytest.raises(ValueError, match="length mismatch"):
            integrate(np.ones(10), g)

    def test_linearity(self):
        g = make_uniform_grid(-2, 3, 57)
        rng = np.random.default_rng(7)
        f, h = rng.normal(size=g.n), rng.normal(size=g.n)
        lhs = integrate(2.5 * f - 0.75 * h, g)
        rhs = 2.5 * integrate(f, g) - 0.75 * integrate(h, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGradient:
    def test_constant_is_zero(self):
        g = make_uniform_grid(-1, 1, 51)
        assert_allclose(gradient(np.full(g.n, 3.7), g), 0.0, atol=1e-13)

    def test_quadratic_exact(self):
        g = make_uniform_grid(-1, 1, 201)
        assert_allclose(gradient(g.x**2, g), 2 * g.x, atol=1e-12)

    def test_sine_second_order(self):
        g = make_uniform_grid(-3, 3, 601)
        err = np.max(np.abs(gradient(np.sin(g.x), g) - np.cos(g.x)))
        assert err < 1e-4

    def test_linearity(self):
        g = make_uniform_grid(0, 2, 41)
        rng = np.random.default_rng(11)
        f, h = rng.normal(size=g.n), rng.normal(size=g.n)
        assert_allclose(
            gradient(1.5 * f + 2.0 * h, g),
            1.5 * gradient(f, g) + 2.0 * gradient(h, g),
            atol=1e-11,
        )

    def test_length_mismatch(self):
        g = make_uniform_grid(0, 1, 11)
        with pytest.raises(ValueError, match="length mismatch"):
            gradient(np.ones(12), g)

    @pytest.mark.parametrize("n", [3, 4, 201, 501])
    @pytest.mark.parametrize("lo, hi", [(-3.5, 3.5), (-8.0, 8.0), (0.0, 1.0), (-2e-3, 7e-4)])
    def test_stencil_bit_identical_to_numpy(self, n, lo, hi):
        """The written-out stencil is numpy's ``edge_order=2`` uniform one:
        every row and the one-row case equal ``np.gradient`` bit for bit,
        on values spanning many orders of magnitude."""
        g = make_uniform_grid(lo, hi, n)
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(17, n)) * np.exp(rng.normal(scale=5.0, size=(17, n)))
        expected = np.gradient(rows, g.dx, axis=1, edge_order=2)
        assert np.array_equal(gradient_rows(rows, g), expected)
        assert np.array_equal(gradient_rows(np.asfortranarray(rows), g), expected)
        out = np.empty_like(rows)
        assert gradient_rows(rows, g, out=out) is out
        assert np.array_equal(out, expected)
        for row in rows[:3]:
            assert np.array_equal(gradient(row, g), np.gradient(row, g.dx, edge_order=2))

    def test_out_must_be_contiguous_of_the_same_shape(self):
        g = make_uniform_grid(0.0, 1.0, 11)
        rows = np.ones((4, 11))
        for out in (np.empty((4, 12)), np.empty((11, 4)).T, np.empty((4, 22))[:, ::2]):
            with pytest.raises(ValueError, match="C-contiguous"):
                gradient_rows(rows, g, out=out)


class TestLaplacian:
    def test_quadratic_exact(self):
        g = make_uniform_grid(-2, 2, 101)
        assert_allclose(laplacian(g.x**2, g), 2.0, atol=1e-10)

    def test_sine_second_order(self):
        errs = []
        for n in (301, 601):
            g = make_uniform_grid(-3, 3, n)
            errs.append(np.max(np.abs(laplacian(np.sin(g.x), g) + np.sin(g.x))))
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestDensity:
    def test_mass_validation(self):
        g = make_uniform_grid(0, 1, 11)
        with pytest.raises(ValueError, match="mass"):
            Density(g, np.full(g.n, 2.0))

    def test_mass_bound_is_fixed(self):
        """No caller can loosen the mass bound: a Density takes no
        ``mass_tol``, and a mass e, or 2e-6 off one, is refused."""
        g = make_uniform_grid(0, 1, 11)
        with pytest.raises(TypeError, match="mass_tol"):
            Density(g, np.ones(g.n), mass_tol=2.0)
        for mass in (math.e, 1.0 + 2 * DEFAULT_MASS_TOL):
            with pytest.raises(ValueError, match="mass"):
                Density(g, np.full(g.n, mass))

    def test_negative_values_rejected(self):
        g = make_uniform_grid(0, 1, 11)
        values = np.full(g.n, 1.0)
        values[3] = -0.1
        with pytest.raises(ValueError, match="negative"):
            Density(g, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        g = make_uniform_grid(0, 1, 11)
        with pytest.raises(ValueError, match="non-finite"):
            Density(g, np.full(g.n, bad))

    @pytest.mark.parametrize("mean, variance", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0)])
    def test_gaussian_parameters_must_be_finite(self, mean, variance):
        g = make_uniform_grid(-6, 6, 301)
        with pytest.raises(ValueError, match="finite"):
            gaussian_density(g, mean, variance)
        with pytest.raises(ValueError, match="finite"):
            mixture_density(g, [(0.5, -1.0, 0.25), (0.5, mean, variance)])

    def test_mixture_weights_must_not_be_nan(self):
        g = make_uniform_grid(-6, 6, 301)
        with pytest.raises(ValueError, match="positive"):
            mixture_density(g, [(np.nan, -1.0, 0.25), (1.0, 1.0, 0.25)])

    def test_holds_no_time(self):
        """A state's time is its trajectory's or its solve's, not a field."""
        g = make_uniform_grid(0, 1, 11)
        with pytest.raises(TypeError):
            Density(g, np.ones(g.n), time=0.0)

    def test_values_immutable(self):
        g = make_uniform_grid(-8, 8, 801)
        p = gaussian_density(g, 0.0, 1.0)
        with pytest.raises(ValueError):
            p.values[0] = 1.0

    def test_moments(self):
        g = make_uniform_grid(-10, 10, 2001)
        p = gaussian_density(g, 0.5, 2.0)
        assert p.mean() == pytest.approx(0.5, abs=1e-9)
        assert p.variance() == pytest.approx(2.0, abs=1e-8)

    def test_normalize_then_integrate(self):
        g = make_uniform_grid(-1, 1, 101)
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.uniform(size=g.n) ** 2
            p = normalized_density(g, values)
            assert p.mass() == pytest.approx(1.0, abs=1e-12)

    def test_mixture_weights_must_sum_to_one(self):
        g = make_uniform_grid(-6, 6, 301)
        with pytest.raises(ValueError, match="sum"):
            mixture_density(g, [(0.5, -1, 0.25), (0.4, 1, 0.25)])


class TestTrajectory:
    def test_time_ordering_enforced(self, wide_grid):
        p = gaussian_density(wide_grid, 0.0, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            DensityTrajectory(np.array([0.0, 0.0]), (p, p))

    def test_length_match_enforced(self, wide_grid):
        p = gaussian_density(wide_grid, 0.0, 1.0)
        with pytest.raises(ValueError, match="equal length"):
            DensityTrajectory(np.array([0.0, 1.0, 2.0]),
                              (p, Density(wide_grid, p.values)))

    def test_states_are_stacked_into_one_array(self, wide_grid):
        p = gaussian_density(wide_grid, 0.0, 1.0)
        q = Density(wide_grid, gaussian_density(wide_grid, 0.5, 0.5).values)
        traj = DensityTrajectory([0.0, 1.0], (p, q))
        assert traj.values.shape == (2, wide_grid.n)
        assert [s.mass() for s in traj.states] == [p.mass(), q.mass()]
        for state, given in zip(traj.states, (p, q)):
            assert np.array_equal(state.values, given.values)

    def test_empty_trajectory_refused(self):
        with pytest.raises(ValueError, match="at least one state"):
            DensityTrajectory([], ())


class TestTrajectoryArray:
    """A solved trajectory is one read-only (times x nodes) array."""

    @pytest.fixture(scope="class")
    def traj(self, ou_model, narrow_gaussian):
        return solve(narrow_gaussian, ou_model, np.linspace(0.0, 0.5, 6), SolverConfig(dt=1e-3))

    def test_state_is_a_read_only_view_of_its_row(self, traj):
        state = traj[3]
        assert np.shares_memory(state.values, traj.values)
        assert np.array_equal(state.values, traj.values[3])
        assert state.mass() == integrate(traj.values[3], traj.grid)
        with pytest.raises(ValueError):
            state.values[0] = 1.0
        with pytest.raises(ValueError):
            traj.values[3, 0] = 1.0

    def test_row_masses_are_integrate_bit_for_bit(self, traj):
        """The mass each state integrates when asked equals the mass that
        the solver checked, over the whole block of rows, bit for bit."""
        assert [s.mass() for s in traj.states] == integrate_rows(traj.values, traj.grid).tolist()

    def test_row_integrals_do_not_depend_on_the_block(self, wide_grid):
        rng = np.random.default_rng(5)
        values = rng.lognormal(size=(40, wide_grid.n))
        assert integrate_rows(values, wide_grid).tolist() == [
            integrate(row, wide_grid) for row in values
        ]


class TestSafeLogRatio:
    def test_equal_densities_zero(self, wide_grid):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = normalized_density(wide_grid, rng.uniform(0.1, 1.0, wide_grid.n))
            assert_allclose(safe_log_ratio(p, p), 0.0, atol=0.0)

    def test_constant_ratio(self, wide_grid):
        """Where p is positive it is a constant multiple c of q, so the log
        ratio there is ln c; where p is zero the floor stands in for p."""
        g = np.exp(-0.5 * wide_grid.x**2)
        left = np.where(wide_grid.x <= 0.0, g, 0.0)
        q, p = normalized_density(wide_grid, g), normalized_density(wide_grid, left)
        c = integrate(g, wide_grid) / integrate(left, wide_grid)
        got = safe_log_ratio(p, q)
        inside = left > 0.0
        assert_allclose(got[inside], math.log(c), atol=1e-14)
        assert_allclose(got[~inside], np.log(DEFAULT_LOG_FLOOR / q.values[~inside]), rtol=1e-15)

    def test_gaussian_closed_form(self, wide_grid, narrow_gaussian, ou_stationary):
        """Log ratio of N(0, 1/4) to N(0, 1) is -ln s - (x^2/2)(1 - s^2)/s^2."""
        got = safe_log_ratio(narrow_gaussian, ou_stationary)
        s2 = 0.25
        expected = -0.5 * math.log(s2) - 0.5 * wide_grid.x**2 * (1 - s2) / s2
        mask = support_mask(narrow_gaussian) & support_mask(ou_stationary)
        assert np.max(np.abs((got - expected)[mask])) < 1e-8

    def test_grid_mismatch(self):
        g1 = make_uniform_grid(-8, 8, 801)
        g2 = make_uniform_grid(-8, 8, 401)
        with pytest.raises(ValueError, match="grid mismatch"):
            safe_log_ratio(gaussian_density(g1, 0, 1), gaussian_density(g2, 0, 1))
