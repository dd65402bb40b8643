"""Drift families and their stationary densities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varentropy_lab import (
    GradientDrift,
    double_well_drift,
    gradient,
    invariant_density,
    linear_drift,
    make_uniform_grid,
)

from harmonicity import laplacian

STANDARD_NORMAL_PEAK = 0.3989422804014327  # 1 / sqrt(2 pi)


class TestDriftEvaluation:
    def test_linear(self):
        model = linear_drift(-0.5)
        assert model.drift(2.0) == pytest.approx(-1.0)

    def test_double_well_critical_point(self):
        model = double_well_drift()
        assert model.drift(0.0) == pytest.approx(0.0)
        # minima of the well are also critical points
        assert model.drift(1.0) == pytest.approx(0.0)
        assert model.drift(-1.0) == pytest.approx(0.0)

    def test_quadratic_potential_matches_linear(self):
        """The linear drift with rate -1/2 is exactly -x/2, with potential
        exactly x^2/4, and equals the gradient drift of x^2/4."""
        lin_model = linear_drift(-0.5)
        assert lin_model == GradientDrift((0, 0, 0.25, 0, 0))
        x = np.random.default_rng(7).normal(scale=3.0, size=10_001)
        assert np.array_equal(lin_model.drift(x), -0.5 * x)
        assert np.array_equal(lin_model.potential(x), 0.25 * x**2)

    @pytest.mark.parametrize("coeffs", [(0, 0, -0.5, 0, 0.25), (0.3, -0.7, 1.1, 0.9, 0.4)])
    def test_drift_into_buffer(self, coeffs):
        """``drift(x, out=buf)`` fills ``buf`` with the Horner form
        ``-(c1 + x (2 c2 + x (3 c3 + x 4 c4)))`` rounded as written."""
        c0, c1, c2, c3, c4 = coeffs
        model = GradientDrift(coeffs)
        x = np.random.default_rng(3).normal(scale=2.0, size=10_001)
        expected = -(c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * 4.0 * c4)))
        buf = np.empty_like(x)
        assert model.drift(x, out=buf) is buf
        assert np.array_equal(buf, expected)
        assert np.array_equal(model.drift(x), expected)
        assert model.drift(0.5) == -(c1 + 0.5 * (2.0 * c2 + 0.5 * (3.0 * c3 + 0.5 * 4.0 * c4)))

    @pytest.mark.parametrize("coeffs", [
        (0.0, 0.0, -0.5, 0.0, 0.25),  # the double well
        (0.0, 0.0, 0.25, 0.0, 0.0),   # the linear drift of rate -1/2
        (0.3, -0.7, 1.1, 0.9, 0.4),   # every coefficient nonzero
    ], ids=["double_well", "linear", "full_quartic"])
    def test_folded_drift_equals_unfolded_evaluation(self, coeffs):
        """Horner on the negated, pre-scaled coefficients, zero adds skipped,
        equals the unfolded evaluation: multiply by 4, by ``c4``, add
        ``3 c3``, multiply by x, add ``2 c2``, multiply by x, add ``c1``,
        negate."""
        def unfolded(x):
            _, c1, c2, c3, c4 = coeffs
            out = np.multiply(x, 4.0)
            out *= c4
            out += 3.0 * c3
            out *= x
            out += 2.0 * c2
            out *= x
            out += c1
            return np.negative(out)

        model = GradientDrift(coeffs)
        rng = np.random.default_rng(5)
        x = np.concatenate([
            rng.normal(scale=2.0, size=50_001),
            rng.uniform(-1e3, 1e3, size=1_000),
            [0.0, -0.0, 1.0, -1.0, 1e-300, -5e-324],
        ])
        assert np.array_equal(model.drift(x), unfolded(x))
        buf = np.empty_like(x)
        assert model.drift(x, out=buf) is buf
        assert np.array_equal(buf, unfolded(x))

    def test_drift_derivative(self):
        """The drift's slope is -potential'': 1 - 3 x^2 on the double well."""
        model = double_well_drift()
        x = np.linspace(-2, 2, 41)
        h = 1e-6
        fd = (model.drift(x + h) - model.drift(x - h)) / (2 * h)
        assert_allclose(fd, 1.0 - 3.0 * x**2, atol=1e-7)

    def test_sigma_must_be_positive(self):
        for sigma in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                linear_drift(-1.0, sigma=sigma)

    def test_coefficient_count(self):
        with pytest.raises(ValueError, match="expected 5 coefficients"):
            GradientDrift((0.0, 0.0, 1.0, 0.0))

    def test_equal_and_hashed_by_coefficients_and_sigma(self):
        """Integer and float coefficients of one potential make one drift."""
        floats = GradientDrift((0.0, 0.0, -0.5, 0.0, 0.25), sigma=1.0)
        assert GradientDrift([0, 0, -0.5, 0, 0.25], sigma=1) == floats == double_well_drift()
        assert hash(GradientDrift((0, 0, -0.5, 0, 0.25))) == hash(floats)
        assert floats.coeffs == (0.0, 0.0, -0.5, 0.0, 0.25)
        assert floats != double_well_drift(sigma=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_coefficients_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GradientDrift((0.0, 0.0, 1.0, 0.0, bad))


class TestConfinement:
    def test_linear_confining_iff_negative_rate(self):
        assert linear_drift(-0.1).confining
        assert not linear_drift(0.1).confining

    def test_quartic_confinement_rules(self):
        assert GradientDrift((0, 0, 0, 0, 1.0)).confining
        assert GradientDrift((0, 0, 1.0, 0, 0)).confining
        assert not GradientDrift((0, 0, -1.0, 0, 0)).confining
        assert not GradientDrift((0, 0, 1.0, 1.0, 0)).confining

    def test_invariant_density_rejects_nonconfining(self):
        g = make_uniform_grid(-5, 5, 101)
        with pytest.raises(ValueError, match="confining"):
            invariant_density(linear_drift(0.5), g)


class TestInvariantDensity:
    def test_ou_standard_normal(self, wide_grid, ou_model, ou_stationary):
        expected = np.exp(-wide_grid.x**2 / 2) * STANDARD_NORMAL_PEAK
        assert np.max(np.abs(ou_stationary.values - expected)) < 1e-12

    def test_ou_peak_value(self, ou_stationary, wide_grid):
        mid = wide_grid.n // 2
        assert ou_stationary.values[mid] == pytest.approx(STANDARD_NORMAL_PEAK, abs=1e-10)

    def test_double_well_bimodal(self, dw_model, dw_grid, dw_stationary):
        """Modes of exp(-2 potential) sit at the potential minima x = +/-1."""
        x = dw_grid.x
        values = dw_stationary.values
        left = values[x < 0]
        right = values[x > 0]
        assert x[x < 0][np.argmax(left)] == pytest.approx(-1.0, abs=dw_grid.dx)
        assert x[x > 0][np.argmax(right)] == pytest.approx(1.0, abs=dw_grid.dx)
        mid = dw_grid.n // 2
        assert values[mid] < values.max()

    def test_unit_mass(self, ou_stationary, dw_stationary):
        assert ou_stationary.mass() == pytest.approx(1.0, abs=1e-12)
        assert dw_stationary.mass() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n0", [201, 401])
    def test_stationary_residual_second_order(self, dw_model, n0):
        """d/dx(b p) - (sigma^2/2) d2/dx2 p vanishes at second order on the
        stationary density under grid refinement."""
        def residual(n):
            g = make_uniform_grid(-3.5, 3.5, n)
            p = invariant_density(dw_model, g)
            flux_div = gradient(dw_model.drift(g.x) * p.values, g)
            return np.max(np.abs(flux_div - 0.5 * dw_model.sigma**2 * laplacian(p.values, g)))

        ratio = residual(n0) / residual(2 * (n0 - 1) + 1)
        assert 3.0 < ratio < 5.0
