"""Scalar functionals: closed-form values on Gaussian inputs, an independent
fine-quadrature oracle on a mixture, equivalence of the varentropy
assemblies, consistency of the two rate formulas with trajectory finite
differences, the relative entropy near equilibrium, and the late-time
spectral limits of the varentropy for several drifts."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from varentropy_lab import (
    Density,
    DensityTrajectory,
    FunctionalReport,
    OUBenchmark,
    ScenarioConfig,
    SolverConfig,
    central_difference,
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
    run_scenario,
    safe_log_ratio,
    solve,
    support_mask,
    varentropy,
    varentropy_rate,
)
from varentropy_lab import functionals
from varentropy_lab.fokker_planck import _Generator

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


def free_energy_rate(p, pbar, sigma):
    """Decay rate of the relative entropy of one state,
    ``-(sigma^2 / 2) * fisher``: the expression of ``report``'s entropy
    rate column."""
    return -0.5 * sigma**2 * relative_fisher(p, pbar)


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
        p2 = Density(wide_grid, narrow_gaussian.values * c)
        q2 = Density(wide_grid, ou_stationary.values * c)
        assert_allclose(
            safe_log_ratio(p2, q2),
            safe_log_ratio(narrow_gaussian, ou_stationary),
            atol=1e-13,
        )

    def test_functionals_scale_with_weight_mass(self, wide_grid, narrow_gaussian, ou_stationary):
        c = 1.0 + 1e-9
        p2 = Density(wide_grid, narrow_gaussian.values * c)
        q2 = Density(wide_grid, ou_stationary.values * c)
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
        rep = report(traj, ou_stationary, 1.0)
        assert np.all(rep.relative_entropy < 1e-12)
        assert np.all(rep.varentropy < 1e-12)
        assert np.all(rep.relative_fisher < 1e-12)
        assert np.all(np.abs(rep.varentropy_rate) < 1e-12)

    def test_varentropy_column_decays_exponentially(
        self, ou_model, narrow_gaussian, ou_stationary, bench
    ):
        traj = solve(narrow_gaussian, ou_model, np.linspace(0, 3, 31), SolverConfig(dt=1e-3))
        rep = report(traj, ou_stationary, 1.0)
        exact = [bench.varentropy(t) for t in rep.time.tolist()]
        assert rep.varentropy.tolist() == pytest.approx(exact, rel=1e-3)

    def test_entropy_rate_column_nonpositive(self, dw_model, dw_grid, dw_stationary):
        p0 = mixture_density(dw_grid, [(0.5, -1.0, 0.09), (0.5, 1.0, 0.09)])
        traj = solve(p0, dw_model, np.linspace(0, 0.5, 11), SolverConfig(dt=1e-3))
        assert np.all(report(traj, dw_stationary, 1.0).entropy_rate <= 0.0)

    def test_fd_column_present_only_interior(self, ou_model, narrow_gaussian, ou_stationary):
        """Every report column has one entry per sample; the finite
        difference of the varentropy, a property of the sampled trajectory,
        exists only at the interior samples."""
        traj = solve(narrow_gaussian, ou_model, np.linspace(0, 0.5, 6), SolverConfig(dt=1e-3))
        rep = report(traj, ou_stationary, 1.0)
        assert len(rep) == 6
        assert [getattr(rep, field).shape for field in FunctionalReport.FIELDS] == [(6,)] * 6
        assert central_difference(rep.varentropy, rep.time).shape == (4,)

    def test_rows_equal_public_functionals_ou(self, ou_model, narrow_gaussian, ou_stationary):
        traj = solve(narrow_gaussian, ou_model, np.linspace(0, 1, 11), SolverConfig(dt=1e-3))
        _assert_rows_equal_public(traj, ou_stationary, ou_model.sigma)

    def test_rows_equal_public_functionals_double_well(self, dw_model, dw_grid, dw_stationary):
        p0 = mixture_density(dw_grid, [(0.5, -1.2, 0.09), (0.5, 1.2, 0.09)])
        traj = solve(p0, dw_model, np.linspace(0, 0.5, 11), SolverConfig(dt=1e-3))
        _assert_rows_equal_public(traj, dw_stationary, dw_model.sigma)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError, match=">= 0"):
            FunctionalReport([0.0], [-0.1], [0.0], [0.0], [0.0], [0.0])
        with pytest.raises(ValueError, match="<= 0"):
            FunctionalReport([0.0], [0.1], [0.1], [0.1], [0.5], [0.0])

    @pytest.mark.parametrize("field", FunctionalReport.FIELDS)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_report_rejects_non_finite(self, field, bad):
        """Every number must be finite; the error names the column and the
        entry."""
        values = _three_samples()
        FunctionalReport(**values)
        last = len(values[field]) - 1
        with pytest.raises(ValueError, match=rf"^{field}\[{last}\] = {bad}: must be finite"):
            FunctionalReport(**{**values, field: values[field][:last] + [bad]})

    @pytest.mark.parametrize("field", FunctionalReport.FIELDS)
    def test_report_rejects_wrong_shape(self, field):
        """A column of the wrong shape is refused by name: here a row
        vector of the right length, and a column one entry short, as long
        as a finite difference of three samples."""
        values = _three_samples()
        with pytest.raises(ValueError, match=rf"^{field}: expected shape"):
            FunctionalReport(**{**values, field: [values[field]]})
        if field != "time":
            with pytest.raises(ValueError, match=rf"^{field}: expected shape \(3,\), got \(1,\)"):
                FunctionalReport(**{**values, field: values[field][1:2]})

    def test_columns_are_read_only_copies(self):
        """Each column is a read-only float64 copy of what was passed."""
        values = {name: np.array(column) for name, column in _three_samples().items()}
        rep = FunctionalReport(**values)
        for name, column in values.items():
            assert getattr(rep, name).dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                getattr(rep, name)[0] = 0.0
            column[0] = 7.0
            assert getattr(rep, name)[0] != 7.0


class TestBlockKernel:
    """``report`` reads the trajectory array in blocks of as many rows as
    ``functionals._BLOCK_BYTES`` holds; no row depends on its block."""

    @staticmethod
    def _block_rows(monkeypatch, rows, grid):
        """Make ``report`` take ``rows`` trajectory rows per block."""
        monkeypatch.setattr(functionals, "_BLOCK_BYTES", rows * grid.n * 8)

    @pytest.mark.parametrize("length", [1, 2, 15, 16, 17, 35])
    def test_rows_equal_public_functionals(self, length, dw_model, dw_grid, dw_stationary,
                                           monkeypatch):
        """In blocks of 16 rows, every row equals (==) the scalar functions,
        whether the trajectory ends inside a block, on its edge or one row
        past it, or is shorter than one block."""
        self._block_rows(monkeypatch, 16, dw_grid)
        p0 = mixture_density(dw_grid, [(0.5, -1.2, 0.09), (0.5, 1.2, 0.09)])
        times = np.linspace(0.0, 0.01 * (length - 1), length)
        traj = solve(p0, dw_model, times, SolverConfig(dt=1e-3))
        assert len(report(traj, dw_stationary, dw_model.sigma)) == length
        _assert_rows_equal_public(traj, dw_stationary, dw_model.sigma)

    @pytest.fixture(scope="class")
    def masked_run(self, dw_model, dw_grid, dw_stationary):
        """A double-well trajectory of 300 rows, each with nodes below the
        tail cut, and each row's one-row values from the public scalar
        functions, which the separate assembly confirms."""
        p0 = mixture_density(dw_grid, [(0.5, -1.2, 0.09), (0.5, 1.2, 0.09)])
        traj = solve(p0, dw_model, np.linspace(0.0, 0.6, 300), SolverConfig(dt=1e-3))
        assert not any(support_mask(state).all() for state in traj.states)
        sigma = dw_model.sigma
        expected = []
        for state in traj.states:
            public = (
                relative_entropy(state, dw_stationary),
                relative_fisher(state, dw_stationary),
                varentropy(state, dw_stationary),
                free_energy_rate(state, dw_stationary, sigma),
                varentropy_rate(state, dw_stationary, sigma),
            )
            assert public == _separate_assembly(state, dw_stationary, sigma)
            expected.append(public)
        return traj, expected

    @pytest.mark.parametrize("rows", [1, 7, 16, None, 128],
                             ids=["1", "7", "16", "default", "128"])
    def test_rows_do_not_depend_on_block_width(self, rows, masked_run, dw_grid, dw_model,
                                               dw_stationary, monkeypatch):
        """Every row is the same (==) at every block width, from one row per
        block to blocks that leave a short last block; None keeps the
        module's own width."""
        traj, expected = masked_run
        if rows is not None:
            self._block_rows(monkeypatch, rows, dw_grid)
        rep = report(traj, dw_stationary, dw_model.sigma)
        got = list(zip(rep.relative_entropy.tolist(), rep.relative_fisher.tolist(),
                       rep.varentropy.tolist(), rep.entropy_rate.tolist(),
                       rep.varentropy_rate.tolist()))
        assert got == expected

    @pytest.mark.parametrize("cuts", [[], list(range(1, 300)), [46], [45, 46, 47], [1, 299],
                                      "random"],
                             ids=["whole", "rows", "block", "one_row_at_block_edge", "ends",
                                  "random"])
    def test_joined_segment_reports_equal_the_whole(self, cuts, masked_run, dw_model,
                                                    dw_stationary):
        """The reports of any split of a trajectory into segments, joined,
        equal its report byte for byte: one-row segments, a cut at the
        default block edge (46 rows at 701 nodes), a one-row segment on it,
        one-row ends, and 20 seeded random cuts."""
        traj, _ = masked_run
        if cuts == "random":
            cuts = sorted(np.random.default_rng(7).choice(np.arange(1, 300), 20, replace=False))
        states, sigma = traj.states, dw_model.sigma
        whole = report(traj, dw_stationary, sigma)
        edges = [0, *cuts, len(traj)]
        parts = [report(DensityTrajectory(traj.times[a:b], states[a:b]), dw_stationary, sigma)
                 for a, b in zip(edges, edges[1:])]
        for field in FunctionalReport.FIELDS:
            joined = np.concatenate([getattr(part, field) for part in parts])
            assert joined.tobytes() == getattr(whole, field).tobytes(), field

    @pytest.mark.parametrize("drift", [0.0, 2.0**-40, -(2.0**-40)],
                             ids=["exact", "heavy", "light"])
    def test_state_at_equilibrium_is_non_negative_unclamped(self, drift, dw_grid,
                                                           dw_stationary):
        """A state equal to ``pbar``, or to ``pbar`` with its mass off by a
        rounding-sized ``drift``, gets a relative entropy and a varentropy
        >= 0 from the kernel's own terms, the same in every row of a block;
        there is no clamp. The entropy is ``drift**2 / 2`` to leading order,
        not the ``drift`` that ``integral of p ln(p / pbar)`` gives."""
        length = functionals._BLOCK_BYTES // (8 * dw_grid.n) + 3
        values = np.tile(dw_stationary.values * (1.0 + drift), (length, 1))
        floored_pbar = np.maximum(dw_stationary.values, functionals.DEFAULT_LOG_FLOOR)
        out = np.full((4, length), np.nan)
        functionals._block_terms(values, floored_pbar, dw_grid,
                                 functionals._buffers(length, dw_grid.n), out)
        entropy, _, variance, _ = out
        assert entropy.tolist() == [entropy[0]] * length
        assert variance.tolist() == [variance[0]] * length
        assert entropy[0] == pytest.approx(0.5 * drift**2 * dw_stationary.mass(), rel=1e-2,
                                           abs=0.0)
        assert 0.0 <= variance[0] < 1e-28


class TestNearEquilibrium:
    """Near ``pbar`` the relative entropy is a sum of O((r - 1)^2) terms, so
    it tracks half the varentropy and takes up none of the solver's rounding
    drift of the mass; nothing is clamped to reach a sign."""

    def test_long_double_well_run_tracks_half_the_varentropy(self):
        """``double_well_relax`` without Monte Carlo, run to t = 8: no
        relative entropy is 0, and where the varentropy is below 1e-10 the
        entropy equals half of it to 1e-6."""
        data = json.loads((CONFIGS / "double_well_relax.json").read_text())
        data.pop("mc")
        data["time"].update(t_end=8.0, n_samples=81)
        rep = run_scenario(ScenarioConfig.from_dict(data)).report
        assert (rep.relative_entropy > 0.0).all()
        late = rep.varentropy < 1e-10
        assert late.sum() >= 30
        ratio = rep.relative_entropy[late] / (0.5 * rep.varentropy[late])
        assert np.abs(ratio - 1.0).max() <= 1e-6

    def test_stationary_ou_run_has_rounding_sized_entropy(self):
        """``ou_benchmark`` started at its stationary law, without Monte
        Carlo: every relative entropy is positive and below 1e-28, the size
        of squared rounding, not the 1e-16 of the mass drift."""
        data = json.loads((CONFIGS / "ou_benchmark.json").read_text())
        data.pop("mc")
        data["initial"]["variance"] = 1.0
        rep = run_scenario(ScenarioConfig.from_dict(data)).report
        assert ((rep.relative_entropy > 0.0) & (rep.relative_entropy < 1e-28)).all()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(1e-300, 1e300),
                              st.floats(1e-16, 1e-1).map(lambda eps: 1.0 + eps),
                              st.floats(1e-16, 1e-1).map(lambda eps: 1.0 - eps)),
                    min_size=1, max_size=64))
    def test_entropy_terms_are_non_negative_in_floating_point(self, ratios):
        """``r ln r - (r - 1)``, evaluated as the kernel does, is >= 0 for
        ratios across the float range and within 1e-16..1e-1 of 1."""
        ratio = np.array(ratios)
        assert (ratio * np.log(ratio) - (ratio - 1.0) >= 0.0).all()


#: Drifts for the late-time limit, each with its start, the index of the
#: slowest eigenmode of ``-L`` that the start excites (the symmetric double
#: well's start is even, so it skips the odd mode 1) and a late window of
#: sample times where the limit holds.
LATE_TIME_CASES = {
    "double_well": (ScenarioConfig.from_json(CONFIGS / "double_well_relax.json"), 2, (3.0, 7.0)),
    "tilted_quartic": (ScenarioConfig.from_dict({
        "name": "tilted_quartic",
        "drift": {"kind": "gradient", "coeffs": [0.0, 0.5, 0.0, 0.0, 0.25], "sigma": 1.0},
        "initial": {"kind": "mixture", "components": [
            {"weight": 0.5, "mean": -1.0, "variance": 0.09},
            {"weight": 0.5, "mean": 1.0, "variance": 0.09}]},
        "grid": {"lo": -3.5, "hi": 3.5, "n": 701},
        "solver": {"dt": 0.001}, "time": {"t_end": 11.0, "n_samples": 111}}), 1, (7.0, 11.0)),
    "shifted_ou": (ScenarioConfig.from_dict({
        "name": "shifted_ou",
        "drift": {"kind": "gradient", "coeffs": [0.5, -1.0, 0.5, 0.0, 0.0], "sigma": 1.0},
        "initial": {"kind": "gaussian", "mean": 0.0, "variance": 0.25},
        "grid": {"lo": -7.0, "hi": 9.0, "n": 801},
        "solver": {"dt": 0.001}, "time": {"t_end": 9.0, "n_samples": 91}}), 1, (5.0, 9.0)),
}


class TestLateTimeSpectralOracle:
    """As t grows, ``p / pbar - 1`` tends to a multiple of ``exp(-lambda t)``
    times the slowest eigenmode of ``-L`` that the start excites, so that
    ``d ln V / dt`` and ``varentropy_rate / V`` tend to ``-2 lambda`` and
    ``V / (2 H)`` to 1 (Bakry, Gentil & Ledoux 2014, ch. 4-5). ``lambda``
    is the eigenvalue of the solver's own generator, in its symmetric
    form."""

    @pytest.fixture(scope="class", params=sorted(LATE_TIME_CASES))
    def late(self, request):
        cfg, mode, (start, end) = LATE_TIME_CASES[request.param]
        gen = _Generator(cfg.grid, cfg.model)
        assert gen.symmetric
        decay = 2.0 * eigh_tridiagonal(-gen.diag, -gen.coupling, eigvals_only=True)[mode]
        times = np.round(np.arange(0.0, end + 0.05, 0.1), 10)
        traj = solve(cfg.initial_density(), cfg.model, times, cfg.solver)
        rep = report(traj, cfg.stationary_density(), cfg.model.sigma)
        window = (times >= start) & (times <= end)
        return rep, window, decay

    def test_log_varentropy_slope(self, late):
        """``d ln V / dt``, as central differences of the samples, is
        ``-2 lambda`` to 1e-4 relative over the window."""
        rep, window, decay = late
        slope = central_difference(np.log(rep.varentropy), rep.time)
        assert_allclose(slope[window[1:-1]], -decay, rtol=1e-4)

    def test_rate_over_varentropy(self, late):
        """The closed-form rate over the varentropy is ``-2 lambda`` to
        3e-4 relative: within the formula's spatial error (1.3e-4 at most,
        on the OU), and a rate off by 1e-3 fails."""
        rep, window, decay = late
        assert_allclose(rep.varentropy_rate[window] / rep.varentropy[window], -decay, rtol=3e-4)

    def test_varentropy_over_twice_the_entropy(self, late):
        """``|V / (2 H) - 1|`` falls at every sample of the window and ends
        below 1e-5."""
        rep, window, _ = late
        gap = np.abs(rep.varentropy[window] / (2.0 * rep.relative_entropy[window]) - 1.0)
        assert (np.diff(gap) < 0.0).all()
        assert gap[-1] < 1e-5


def _separate_assembly(p, pbar, sigma):
    """(entropy, fisher, varentropy, entropy rate, varentropy rate), each
    assembled on its own from the log ratio as independent functions: the
    entropy as ``pbar * (r ln r - (r - 1))`` over every node, the rest under
    the tail mask, the varentropy and the rate centred at the mean log
    ratio."""
    floored_pbar = np.maximum(pbar.values, functionals.DEFAULT_LOG_FLOOR)
    ratio = np.maximum(p.values, functionals.DEFAULT_LOG_FLOOR) / floored_pbar
    logratio = safe_log_ratio(p, pbar)
    entropy = integrate((ratio * logratio - (ratio - 1.0)) * floored_pbar, p.grid)
    weight = np.where(support_mask(p), p.values, 0.0)
    slope = gradient(logratio, p.grid)
    fisher = integrate(slope**2 * weight, p.grid)
    centred = logratio - integrate(logratio * weight, p.grid)
    variance = integrate(centred**2 * weight, p.grid)
    rate = sigma**2 * integrate((-centred - 1.0) * (slope**2 * weight), p.grid)
    return entropy, fisher, variance, -0.5 * sigma**2 * fisher, rate


def _three_samples():
    """Valid columns of a three-sample report."""
    return dict(zip(FunctionalReport.FIELDS, ([0.0, 0.5, 1.0], [0.1] * 3, [0.1] * 3, [0.1] * 3,
                                              [-0.1] * 3, [0.2] * 3)))


def _assert_rows_equal_public(traj, pbar, sigma):
    """Every report sample holds exactly (==) what the public scalar
    functions and the separate assembly give for the same state."""
    rep = report(traj, pbar, sigma)
    columns = (rep.relative_entropy, rep.relative_fisher, rep.varentropy, rep.entropy_rate,
               rep.varentropy_rate)
    for *from_row, state in zip(*(column.tolist() for column in columns), traj.states):
        from_row = tuple(from_row)
        public = (
            relative_entropy(state, pbar),
            relative_fisher(state, pbar),
            varentropy(state, pbar),
            free_energy_rate(state, pbar, sigma),
            varentropy_rate(state, pbar, sigma),
        )
        assert from_row == public == _separate_assembly(state, pbar, sigma)
