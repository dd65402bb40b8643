"""Closed forms of Gaussian laws under a linear drift.

At the defaults (rate -1/2, sigma 1, a centred start) the law is the unit
benchmark, pinned bit for bit against its own formulas. The variance law is
cross-checked against an independent ODE integration (scipy RK45), the
entropy against direct fine quadrature, and the varentropy against its
assembly from the Gaussian fourth moment E X^4 = 3 v^2. Off the defaults,
the log ratio is checked against the two Gaussian densities, each
functional against quadrature, both rates against central differences, and
the solver against the law.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from varentropy_lab import OUBenchmark, ScenarioConfig, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: ``(initial_mean, rate, sigma)`` of the off-centre laws checked below.
LAWS = [(1.5, -0.5, 1.0), (2.0, -0.3, 1.2), (3.0, -0.5, 1.0)]


def _unit_formulas(v0, t):
    """The centred unit benchmark's closed forms, in their own order of
    operations: ``v = 1 + (v0 - 1) e^{-t}``."""
    v = 1.0 + (v0 - 1.0) * math.exp(-t)
    return {
        "mean": 0.0,
        "variance": v,
        "relative_entropy": -0.5 * math.log(v) - 0.5 * (1.0 - v),
        "relative_fisher": (1.0 - v) ** 2 / v,
        "entropy_rate": -0.5 * (1.0 - v) ** 2 / v,
        "varentropy": 0.5 * (1.0 - v) ** 2,
        "varentropy_rate": -((1.0 - v) ** 2),
    }


class TestDefaults:
    @pytest.mark.parametrize("v0", [0.01, 0.25, 1.0, 4.0])
    def test_bit_identical_to_the_unit_benchmark(self, v0):
        """At the defaults every closed form equals the unit benchmark's
        formula bit for bit, a zero's sign included, so every check that
        reads one is unchanged."""
        bench = OUBenchmark(v0)
        for t in [*np.linspace(0.0, 3.0, 121).tolist(), 10.0, 40.0, 60.0]:
            for name, want in _unit_formulas(v0, t).items():
                assert getattr(bench, name)(t).hex() == want.hex(), (name, t)

    def test_defaults_are_the_unit_drift_from_a_centred_start(self):
        assert OUBenchmark(0.25) == OUBenchmark(0.25, initial_mean=0.0, rate=-0.5, sigma=1.0)
        assert OUBenchmark(0.25).model() == OUBenchmark(4.0, 1.0).model()


class TestRefusals:
    @pytest.mark.parametrize("args", [
        dict(initial_variance=math.inf), dict(initial_variance=math.nan),
        dict(initial_variance=-0.25),
        dict(initial_mean=math.inf), dict(initial_mean=-math.inf), dict(initial_mean=math.nan),
        dict(rate=0.0), dict(rate=0.5), dict(rate=-math.inf), dict(rate=math.nan),
        dict(sigma=0.0), dict(sigma=-1.0), dict(sigma=math.inf), dict(sigma=math.nan),
        dict(sigma=1e200), dict(sigma=1e-200), dict(rate=-1e-320),
    ], ids=lambda args: "{}={}".format(*next(iter(args.items()))))
    def test_bad_parameter(self, args):
        """A law that would give NaN or inf, or none at all, is refused: an
        infinite start variance once gave an infinite varentropy and a NaN
        relative entropy. So is a stationary variance ``-sigma^2 / (2 rate)``
        that overflows or underflows, which gives NaN moments or raises
        ``OverflowError`` from finite parameters."""
        with pytest.raises(ValueError, match="^need a positive initial variance and sigma"):
            OUBenchmark(**{"initial_variance": 0.25, **args})

    @pytest.mark.parametrize("t", [math.nan, -0.1, -math.inf])
    def test_bad_time(self, t):
        """A NaN time once gave a NaN varentropy; every closed form refuses it."""
        bench = OUBenchmark(0.25, 1.5)
        for method in ("mean", "variance", "relative_entropy", "relative_fisher",
                       "entropy_rate", "varentropy", "varentropy_rate"):
            with pytest.raises(ValueError, match="^time must be non-negative"):
                getattr(bench, method)(t)


class TestVariance:
    def test_initial_condition(self):
        assert OUBenchmark(0.25).variance(0.0) == pytest.approx(0.25)

    def test_limit_is_one(self):
        assert OUBenchmark(0.25).variance(60.0) == pytest.approx(1.0, abs=1e-12)
        assert OUBenchmark(4.0).variance(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_start_at_log2(self):
        """From variance 0 the solution reaches 1/2 at t = ln 2."""
        assert OUBenchmark(1e-300).variance(math.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("v0", [0.25, 1.0, 4.0])
    def test_matches_independent_ode_solve(self, v0):
        sol = solve_ivp(
            lambda t, v: 1.0 - v, (0.0, 3.0), [v0], rtol=1e-11, atol=1e-13,
            dense_output=True,
        )
        bench = OUBenchmark(v0)
        for t in np.linspace(0.0, 3.0, 13):
            assert bench.variance(t) == pytest.approx(sol.sol(t)[0], abs=1e-8)

    def test_ode_residual_by_finite_difference(self):
        bench = OUBenchmark(0.25)
        h = 1e-6
        for t in (0.1, 0.7, 2.0):
            fd = (bench.variance(t + h) - bench.variance(t - h)) / (2 * h)
            assert fd == pytest.approx(1.0 - bench.variance(t), abs=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            OUBenchmark(0.25).variance(-0.1)


class TestLogDensityRatio:
    def test_stationary_start_is_zero(self):
        bench = OUBenchmark(1.0)
        x = np.linspace(-5, 5, 11)
        for t in (0.0, 0.5, 2.0):
            np.testing.assert_allclose(bench.log_density_ratio(t, x), 0.0, atol=1e-15)

    def test_value_at_origin(self):
        """At variance 1/4 the ratio at the origin is -ln(1/2)."""
        assert OUBenchmark(0.25).log_density_ratio(0.0, 0.0) == pytest.approx(
            math.log(2.0), abs=1e-14
        )


class TestFunctionalClosedForms:
    def test_stationary_start_all_zero(self):
        bench = OUBenchmark(1.0)
        for t in (0.0, 0.3, 1.7):
            assert bench.relative_entropy(t) == 0.0
            assert bench.varentropy(t) == 0.0
            assert bench.varentropy_rate(t) == 0.0
            assert bench.entropy_rate(t) == 0.0

    def test_values_at_variance_quarter(self):
        bench = OUBenchmark(0.25)
        assert bench.relative_entropy(0.0) == pytest.approx(0.3181471805599453, abs=1e-15)
        assert bench.varentropy(0.0) == pytest.approx(0.28125, abs=1e-15)
        assert bench.varentropy_rate(0.0) == pytest.approx(-0.5625, abs=1e-15)
        assert bench.entropy_rate(0.0) == pytest.approx(-1.125, abs=1e-15)

    @pytest.mark.parametrize("v0", [0.25, 4.0])
    def test_varentropy_rate_is_minus_twice_varentropy(self, v0):
        bench = OUBenchmark(v0)
        for t in np.linspace(0.0, 3.0, 16):
            assert bench.varentropy_rate(t) == pytest.approx(
                -2.0 * bench.varentropy(t), rel=1e-13
            )

    def test_varentropy_exponential_decay(self):
        bench = OUBenchmark(0.25)
        v0 = bench.varentropy(0.0)
        for t in np.linspace(0.0, 3.0, 7):
            assert bench.varentropy(t) == pytest.approx(v0 * math.exp(-2 * t), rel=1e-13)

    def test_entropy_matches_fine_quadrature(self):
        """Mean of the log ratio under the Gaussian law, by direct quadrature."""
        bench = OUBenchmark(0.25)
        for t in (0.0, 0.5, 1.5):
            v = bench.variance(t)
            val, _ = quad(
                lambda x: bench.log_density_ratio(t, x)
                * math.exp(-x * x / (2 * v)) / math.sqrt(2 * math.pi * v),
                -10, 10, limit=200, epsabs=1e-13, epsrel=1e-13,
            )
            assert bench.relative_entropy(t) == pytest.approx(val, abs=1e-10)

    def test_varentropy_from_fourth_moment(self):
        """Second moment of the log ratio assembled from E X^2 = v and
        E X^4 = 3 v^2 reproduces the closed form to rounding."""
        bench = OUBenchmark(0.25)
        for t in (0.0, 0.4, 1.1):
            v = bench.variance(t)
            s = math.sqrt(v)
            q = (1.0 - v) / v
            second = (
                math.log(s) ** 2
                + math.log(s) * q * v
                + 0.25 * q**2 * 3.0 * v**2
            )
            varentropy = second - bench.relative_entropy(t) ** 2
            assert varentropy == pytest.approx(bench.varentropy(t), abs=1e-12)

    def test_entropy_rate_is_rate_of_entropy(self):
        bench = OUBenchmark(0.25)
        h = 1e-6
        for t in (0.2, 1.0, 2.5):
            fd = (bench.relative_entropy(t + h) - bench.relative_entropy(t - h)) / (2 * h)
            assert bench.entropy_rate(t) == pytest.approx(fd, abs=1e-8)

    def test_invalid_initial_variance(self):
        with pytest.raises(ValueError, match="positive"):
            OUBenchmark(0.0)


class TestOffCentreLaw:
    @pytest.mark.parametrize("m0, rate, sigma", LAWS)
    def test_moments_solve_their_odes(self, m0, rate, sigma):
        """m' = rate m and v' = 2 rate v + sigma^2, by central differences."""
        bench = OUBenchmark(0.25, m0, rate, sigma)
        h = 1e-6
        for t in (0.1, 0.7, 2.0):
            dm = (bench.mean(t + h) - bench.mean(t - h)) / (2 * h)
            dv = (bench.variance(t + h) - bench.variance(t - h)) / (2 * h)
            assert dm == pytest.approx(rate * bench.mean(t), abs=1e-8)
            assert dv == pytest.approx(2 * rate * bench.variance(t) + sigma**2, abs=1e-8)

    @pytest.mark.parametrize("m0, rate, sigma", LAWS)
    def test_log_ratio_of_the_two_gaussians(self, m0, rate, sigma):
        bench = OUBenchmark(0.25, m0, rate, sigma)
        s2 = -sigma**2 / (2 * rate)
        x = np.linspace(-6.0, 6.0, 25)
        for t in (0.0, 0.4, 3.0):
            m, v = bench.mean(t), bench.variance(t)
            want = (-0.5 * np.log(2 * np.pi * v) - (x - m) ** 2 / (2 * v)
                    + 0.5 * np.log(2 * np.pi * s2) + x**2 / (2 * s2))
            np.testing.assert_allclose(bench.log_density_ratio(t, x), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m0, rate, sigma", LAWS)
    def test_functionals_match_quadrature(self, m0, rate, sigma):
        """The relative entropy, Fisher information and varentropy are the
        mean of the log ratio, of its squared x-derivative (by central
        differences in x) and of its squared deviation under N(m, v)."""
        bench = OUBenchmark(0.25, m0, rate, sigma)
        for t in (0.0, 0.3, 1.5):
            m, v = bench.mean(t), bench.variance(t)
            lo, hi = m - 14 * math.sqrt(v), m + 14 * math.sqrt(v)

            def mean_of(f):
                return quad(lambda x: f(x) * math.exp(-(x - m) ** 2 / (2 * v))
                            / math.sqrt(2 * math.pi * v), lo, hi, limit=200,
                            epsabs=1e-13, epsrel=1e-13)[0]

            def ratio(x):
                return float(bench.log_density_ratio(t, x))

            entropy = mean_of(ratio)
            fisher = mean_of(lambda x: ((ratio(x + 1e-5) - ratio(x - 1e-5)) / 2e-5) ** 2)
            assert bench.relative_entropy(t) == pytest.approx(entropy, rel=1e-10)
            assert bench.relative_fisher(t) == pytest.approx(fisher, rel=1e-7)
            assert bench.varentropy(t) == pytest.approx(
                mean_of(lambda x: (ratio(x) - entropy) ** 2), rel=1e-10)

    @pytest.mark.parametrize("m0, rate, sigma", LAWS)
    def test_rates_are_central_differences(self, m0, rate, sigma):
        """Both rates agree with central differences of their functionals
        to 8 digits, through the varentropy rate's change of sign."""
        bench = OUBenchmark(0.25, m0, rate, sigma)
        h = 1e-5
        for t in (0.05, 0.3, 1.0, 2.5):
            for functional, rate_of in (("relative_entropy", bench.entropy_rate),
                                        ("varentropy", bench.varentropy_rate)):
                f = getattr(bench, functional)
                fd = (f(t + h) - f(t - h)) / (2 * h)
                assert rate_of(t) == pytest.approx(fd, rel=1e-8, abs=1e-9), (functional, t)

    def test_varentropy_rate_changes_sign(self):
        """From N(1.5, 0.25) under the unit drift the varentropy first grows,
        then relaxes: the mean's pull outweighs the shrinking variance gap."""
        bench = OUBenchmark(0.25, 1.5)
        assert bench.varentropy_rate(0.05) == pytest.approx(0.4046, abs=5e-5)
        assert bench.varentropy_rate(0.3) == pytest.approx(-0.1233, abs=5e-5)
        # at t = ln(5/4): m^2 = 1.8 and v = 0.4, so the rate's two terms
        # cancel and the varentropy peaks at 0.18 + 0.72
        assert bench.varentropy_rate(math.log(1.25)) == pytest.approx(0.0, abs=1e-14)
        assert bench.varentropy(math.log(1.25)) == pytest.approx(0.9, rel=1e-14)

    @pytest.mark.parametrize("x0, value", [(2.0, 1.1501), (3.0, 2.4033), (4.0, 4.1577)])
    def test_point_start_varentropy(self, x0, value):
        """A start of width 0.1 at x0 has, at t = 0.6, about the varentropy
        ``x0^2 e^{-t} (1 - e^{-t}) + e^{-2t} / 2`` of the point start at x0,
        which grows without bound in x0."""
        t = 0.6
        assert OUBenchmark(0.01, x0).varentropy(t) == pytest.approx(value, abs=5e-5)
        point = x0**2 * math.exp(-t) * (1 - math.exp(-t)) + 0.5 * math.exp(-2 * t)
        assert OUBenchmark(0.01, x0).varentropy(t) == pytest.approx(point, rel=0.02)


def test_solver_matches_the_off_centre_law():
    """``ou_benchmark`` without Monte Carlo, started at mean 0.5, gets both
    exact checks, and its solve passes them."""
    data = json.loads((CONFIGS / "ou_benchmark.json").read_text())
    del data["mc"]
    data["initial"]["mean"] = 0.5
    cfg = ScenarioConfig.from_dict(data)
    assert cfg.exact() == OUBenchmark(0.25, 0.5)
    checks = {c.name: c for c in run_scenario(cfg, out_dir=None).checks}
    for name in ("varentropy_vs_exact", "varentropy_rate_vs_exact"):
        assert checks[name].passed, checks[name].detail
