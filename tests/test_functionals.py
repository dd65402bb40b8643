"""Scalar functionals: closed-form values on Gaussian inputs, an independent
fine-quadrature oracle on a mixture, equivalence of the varentropy
assemblies, and consistency of the two rate formulas with trajectory finite
differences."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varentropy_lab import (
    Density,
    DensityTrajectory,
    FunctionalReport,
    OUBenchmark,
    SolverConfig,
    free_energy_rate,
    gaussian_density,
    gradient,
    integrate,
    invariant_density,
    linear_drift,
    make_uniform_grid,
    mixture_density,
    relative_entropy,
    relative_fisher,
    report,
    safe_log_ratio,
    solve,
    support_mask,
    varentropy,
    varentropy_rate,
)
from varentropy_lab.functionals import _BLOCK

# KL divergences between centered Gaussians, from the closed form
# ln(s2/s1) + s1^2/(2 s2^2) - 1/2
KL_QUARTER_TO_UNIT = 0.3181471805599453
KL_UNIT_TO_QUARTER = 0.8068528194400546

# independent quadrature oracle (adaptive quadrature on the analytic
# densities over (-12, 12), absolute error below 1e-12):
# mixture 0.5 N(-1, 1/4) + 0.5 N(+1, 1/4) against N(0, 1)
MIX_ENTROPY = 0.18542698682307837
MIX_VARENTROPY = 0.2950270836712629
MIX_FISHER = 2.152441459313783

MIX_COMPONENTS = [(0.5, -1.0, 0.25), (0.5, 1.0, 0.25)]


@pytest.fixture(scope="module")
def mixture(wide_grid):
    return mixture_density(wide_grid, MIX_COMPONENTS)


class TestLocalFreeEnergy:
    """The local free energy is the nodewise log ratio ``safe_log_ratio``."""

    def test_identical_densities(self, narrow_gaussian):
        assert_allclose(safe_log_ratio(narrow_gaussian, narrow_gaussian), 0.0, atol=0.0)

    def test_gaussian_closed_form(self, wide_grid, narrow_gaussian, ou_stationary):
        got = safe_log_ratio(narrow_gaussian, ou_stationary)
        expected = OUBenchmark(0.25).log_density_ratio(0.0, wide_grid.x)
        mask = support_mask(narrow_gaussian)
        assert np.max(np.abs((got - expected)[mask])) < 1e-8

    def test_shifted_gaussian_affine(self, wide_grid, ou_stationary):
        """Log ratio of N(d, 1) to N(0, 1) is d x - d^2/2; its mean under the
        shifted Gaussian is the relative entropy d^2/2."""
        delta = 0.5
        shifted = gaussian_density(wide_grid, delta, 1.0)
        got = safe_log_ratio(shifted, ou_stationary)
        expected = delta * wide_grid.x - delta**2 / 2
        mask = support_mask(shifted) & support_mask(ou_stationary)
        assert np.max(np.abs((got - expected)[mask])) < 1e-8
        assert relative_entropy(shifted, ou_stationary) == pytest.approx(
            delta**2 / 2, abs=1e-9
        )


class TestRelativeEntropy:
    def test_zero_at_equality(self, narrow_gaussian):
        assert relative_entropy(narrow_gaussian, narrow_gaussian) == 0.0

    def test_gaussian_closed_form(self, narrow_gaussian, ou_stationary):
        assert relative_entropy(narrow_gaussian, ou_stationary) == pytest.approx(
            KL_QUARTER_TO_UNIT, abs=1e-9
        )

    def test_asymmetry(self, narrow_gaussian, ou_stationary):
        forward = relative_entropy(narrow_gaussian, ou_stationary)
        backward = relative_entropy(ou_stationary, narrow_gaussian)
        assert backward == pytest.approx(KL_UNIT_TO_QUARTER, abs=1e-9)
        assert abs(forward - backward) > 0.4

    def test_mixture_against_quadrature_oracle(self, mixture, ou_stationary):
        assert relative_entropy(mixture, ou_stationary) == pytest.approx(
            MIX_ENTROPY, rel=1e-6
        )


class TestRelativeFisher:
    def test_zero_at_equality(self, narrow_gaussian):
        assert relative_fisher(narrow_gaussian, narrow_gaussian) == 0.0

    def test_gaussian_closed_form(self, narrow_gaussian, ou_stationary):
        # (1 - v)^2 / v at v = 1/4
        assert relative_fisher(narrow_gaussian, ou_stationary) == pytest.approx(
            2.25, rel=1e-6
        )

    def test_mixture_against_quadrature_oracle(self, mixture, ou_stationary):
        """The discrete gradient limits accuracy here; the error is O(dx^2)
        and the second-order approach to the oracle is asserted alongside
        the value."""
        coarse = relative_fisher(mixture, ou_stationary)
        assert coarse == pytest.approx(MIX_FISHER, rel=2e-3)
        g_fine = make_uniform_grid(-8, 8, 1601)
        fine = relative_fisher(
            mixture_density(g_fine, MIX_COMPONENTS),
            gaussian_density(g_fine, 0.0, 1.0),
        )
        ratio = abs(coarse - MIX_FISHER) / abs(fine - MIX_FISHER)
        assert 3.0 < ratio < 5.0

    def test_quadratic_vanishing_along_mixture_path(self, wide_grid, ou_stationary, narrow_gaussian):
        """Fisher information of (1-a) pbar + a p from pbar vanishes like a^2."""
        def fisher(a):
            blend = (1 - a) * ou_stationary.values + a * narrow_gaussian.values
            return relative_fisher(Density(wide_grid, blend), ou_stationary)

        f1, f2 = fisher(1e-2), fisher(5e-3)
        assert f1 / f2 == pytest.approx(4.0, rel=0.1)


class TestVarentropy:
    def test_zero_at_equality(self, narrow_gaussian):
        assert varentropy(narrow_gaussian, narrow_gaussian) == 0.0

    def test_gaussian_closed_form(self, narrow_gaussian, ou_stationary):
        # (1 - v)^2 / 2 at v = 1/4
        assert varentropy(narrow_gaussian, ou_stationary) == pytest.approx(
            0.28125, rel=1e-7
        )

    def test_mixture_against_quadrature_oracle(self, mixture, ou_stationary):
        assert varentropy(mixture, ou_stationary) == pytest.approx(
            MIX_VARENTROPY, rel=1e-6
        )

    def test_three_assemblies_agree(self, mixture, narrow_gaussian, ou_stationary):
        for p in (mixture, narrow_gaussian):
            a = varentropy(p, ou_stationary)
            b = _varentropy_centered(p, ou_stationary)
            c = _varentropy_self_normalized(p, ou_stationary)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-12)
            assert c == pytest.approx(a, rel=1e-8, abs=1e-10)


def _varentropy_centered(p, pbar):
    """Varentropy as the integral of the squared centered log ratio:
    algebraically identical to :func:`varentropy`, assembled independently."""
    logratio = safe_log_ratio(p, pbar)
    weight = np.where(support_mask(p), p.values, 0.0)
    center = integrate(logratio * weight, p.grid)
    return max(integrate((logratio - center) ** 2 * weight, p.grid), 0.0)


def _varentropy_self_normalized(p, pbar):
    """Varentropy as a centered expectation with the masked weight
    renormalized; differs from the others only through the mass lost to the
    tail cut."""
    logratio = safe_log_ratio(p, pbar)
    weight = np.where(support_mask(p), p.values, 0.0)
    mass = integrate(weight, p.grid)
    mean = integrate(logratio * weight, p.grid) / mass
    return max(integrate((logratio - mean) ** 2 * weight, p.grid) / mass, 0.0)


class TestJointRescalingInvariance:
    """Adding a constant to both log densities preserves the log ratio
    exactly; the integrals change only through the weight's mass factor."""

    def test_log_ratio_machine_exact(self, wide_grid, narrow_gaussian, ou_stationary):
        c = 1.0 + 1e-7
        p2 = Density(wide_grid, narrow_gaussian.values * c, mass_tol=1e-3)
        q2 = Density(wide_grid, ou_stationary.values * c, mass_tol=1e-3)
        assert_allclose(
            safe_log_ratio(p2, q2),
            safe_log_ratio(narrow_gaussian, ou_stationary),
            atol=1e-13,
        )

    def test_functionals_scale_with_weight_mass(self, wide_grid, narrow_gaussian, ou_stationary):
        c = 1.0 + 1e-9
        p2 = Density(wide_grid, narrow_gaussian.values * c, mass_tol=1e-6)
        q2 = Density(wide_grid, ou_stationary.values * c, mass_tol=1e-6)
        for fn in (relative_entropy, relative_fisher, varentropy):
            base = fn(narrow_gaussian, ou_stationary)
            assert fn(p2, q2) == pytest.approx(base, rel=3e-9)


class TestRates:
    def test_free_energy_rate_zero_at_equality(self, narrow_gaussian):
        assert free_energy_rate(narrow_gaussian, narrow_gaussian, 1.0) == 0.0

    def test_free_energy_rate_gaussian(self, narrow_gaussian, ou_stationary):
        # -(1/2)(1 - v)^2 / v at v = 1/4
        assert free_energy_rate(narrow_gaussian, ou_stationary, 1.0) == pytest.approx(
            -1.125, rel=1e-6
        )

    def test_free_energy_rate_strictly_negative(self, mixture, ou_stationary):
        assert free_energy_rate(mixture, ou_stationary, 1.0) < -1e-3

    def test_varentropy_rate_zero_at_equality(self, narrow_gaussian):
        assert varentropy_rate(narrow_gaussian, narrow_gaussian, 1.0) == 0.0

    def test_varentropy_rate_gaussian(self, narrow_gaussian, ou_stationary):
        # -(1 - v)^2 at v = 1/4
        assert varentropy_rate(narrow_gaussian, ou_stationary, 1.0) == pytest.approx(
            -0.5625, rel=1e-6
        )

    def test_varentropy_rate_double_well_matches_finite_difference(
        self, dw_model, dw_grid, dw_stationary
    ):
        """Independent check of the rate formula off the Gaussian family:
        central finite difference of the varentropy along a solved
        trajectory."""
        p0 = mixture_density(dw_grid, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)])
        h = 0.01
        t_center = 0.5
        times = np.array([0.0, t_center - h, t_center, t_center + h])
        traj = solve(p0, dw_model, times, SolverConfig(dt=1e-3))
        fd = (
            varentropy(traj[3], dw_stationary) - varentropy(traj[1], dw_stationary)
        ) / (2 * h)
        formula = varentropy_rate(traj[2], dw_stationary, dw_model.sigma)
        assert formula == pytest.approx(fd, rel=1e-2)

    def test_sigma_validated(self, narrow_gaussian, ou_stationary):
        with pytest.raises(ValueError, match="sigma"):
            varentropy_rate(narrow_gaussian, ou_stationary, 0.0)


class TestReport:
    def test_stationary_trajectory_all_zero(self, ou_model, ou_stationary):
        traj = solve(ou_stationary, ou_model, np.linspace(0, 1, 5), SolverConfig(dt=1e-3))
        for row in report(traj, ou_stationary, 1.0):
            assert row.relative_entropy < 1e-12
            assert row.varentropy < 1e-12
            assert row.relative_fisher < 1e-12
            assert abs(row.varentropy_rate) < 1e-12

    def test_varentropy_column_decays_exponentially(
        self, ou_model, narrow_gaussian, ou_stationary, bench
    ):
        traj = solve(narrow_gaussian, ou_model, np.linspace(0, 3, 31), SolverConfig(dt=1e-3))
        rows = report(traj, ou_stationary, 1.0)
        for row in rows:
            assert row.varentropy == pytest.approx(bench.varentropy(row.time), rel=1e-3)

    def test_entropy_rate_column_nonpositive(self, dw_model, dw_grid, dw_stationary):
        p0 = mixture_density(dw_grid, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)])
        traj = solve(p0, dw_model, np.linspace(0, 0.5, 11), SolverConfig(dt=1e-3))
        for row in report(traj, dw_stationary, 1.0):
            assert row.entropy_rate <= 0.0

    def test_fd_column_present_only_interior(self, ou_model, narrow_gaussian, ou_stationary):
        traj = solve(narrow_gaussian, ou_model, np.linspace(0, 0.5, 6), SolverConfig(dt=1e-3))
        rows = report(traj, ou_stationary, 1.0)
        assert rows[0].varentropy_rate_fd is None
        assert rows[-1].varentropy_rate_fd is None
        assert all(r.varentropy_rate_fd is not None for r in rows[1:-1])

    def test_rows_equal_public_functionals_ou(self, ou_model, narrow_gaussian, ou_stationary):
        traj = solve(narrow_gaussian, ou_model, np.linspace(0, 1, 11), SolverConfig(dt=1e-3))
        _assert_rows_equal_public(traj, ou_stationary, ou_model.sigma)

    def test_rows_equal_public_functionals_double_well(self, dw_model, dw_grid, dw_stationary):
        p0 = mixture_density(dw_grid, [(0.5, -1.2, 0.09), (0.5, 1.2, 0.09)])
        traj = solve(p0, dw_model, np.linspace(0, 0.5, 11), SolverConfig(dt=1e-3))
        _assert_rows_equal_public(traj, dw_stationary, dw_model.sigma)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError, match=">= 0"):
            FunctionalReport(0.0, -0.1, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="<= 0"):
            FunctionalReport(0.0, 0.1, 0.1, 0.1, 0.5, 0.0)


class TestBlockKernel:
    """``report`` reads the trajectory array in blocks of ``_BLOCK`` rows."""

    @pytest.mark.parametrize("length", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_rows_equal_public_functionals(self, length, dw_model, dw_grid, dw_stationary):
        """Every row equals (==) the scalar functions, whether the trajectory
        ends inside a block, on its edge or one row past it."""
        p0 = mixture_density(dw_grid, [(0.5, -1.2, 0.09), (0.5, 1.2, 0.09)])
        times = np.linspace(0.0, 0.01 * (length - 1), length)
        traj = solve(p0, dw_model, times, SolverConfig(dt=1e-3))
        assert len(report(traj, dw_stationary, dw_model.sigma)) == length
        _assert_rows_equal_public(traj, dw_stationary, dw_model.sigma)

    def test_squared_mean_is_a_python_power(self):
        """The varentropy is ``second - first**2`` with Python's float power.
        For this state ``first * first`` (what numpy's array square computes)
        rounds differently, and the difference survives the subtraction; the
        value is the same at every position of a block."""
        grid = make_uniform_grid(-8.0, 8.0, 201)
        pbar = invariant_density(linear_drift(-0.5), grid)
        p = gaussian_density(grid, 0.0, 0.24277)
        weight = np.where(support_mask(p), p.values, 0.0)
        logratio = safe_log_ratio(p, pbar)
        first = integrate(logratio * weight, grid)
        second = integrate(logratio**2 * weight, grid)
        assert second - first * first != second - first**2  # the pinned case
        assert varentropy(p, pbar) == second - first**2
        length = _BLOCK + 3
        traj = DensityTrajectory(np.arange(float(length)), [p.at_time(t) for t in range(length)])
        assert [row.varentropy for row in report(traj, pbar, 1.0)] == [second - first**2] * length


def _separate_assembly(p, pbar, sigma):
    """(entropy, fisher, varentropy, entropy rate, varentropy rate), each
    assembled on its own from the log ratio as independent functions."""
    weight = np.where(support_mask(p), p.values, 0.0)
    logratio = safe_log_ratio(p, pbar)
    entropy = max(integrate(logratio * weight, p.grid), 0.0)
    slope = gradient(logratio, p.grid)
    fisher = max(integrate(slope**2 * weight, p.grid), 0.0)
    first = integrate(logratio * weight, p.grid)
    second = integrate(logratio**2 * weight, p.grid)
    variance = max(second - first**2, 0.0)
    integrand = (-logratio - 1.0 + entropy) * slope**2
    rate = sigma**2 * integrate(integrand * weight, p.grid)
    return entropy, fisher, variance, -0.5 * sigma**2 * fisher, rate


def _assert_rows_equal_public(traj, pbar, sigma):
    """Every report row holds exactly (==) what the public scalar functions
    and the separate assembly give for the same state."""
    for row, state in zip(report(traj, pbar, sigma), traj.states):
        from_row = (row.relative_entropy, row.relative_fisher, row.varentropy,
                    row.entropy_rate, row.varentropy_rate)
        public = (
            relative_entropy(state, pbar),
            relative_fisher(state, pbar),
            varentropy(state, pbar),
            free_energy_rate(state, pbar, sigma),
            varentropy_rate(state, pbar, sigma),
        )
        assert from_row == public == _separate_assembly(state, pbar, sigma)
