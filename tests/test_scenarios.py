"""Scenario configs, the runner, sweeps, the convergence study and the CLI."""

import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from varentropy_lab import ScenarioConfig, SweepConfig, convergence_study, monotonicity_sweep, run_scenario
from varentropy_lab import scenarios
from varentropy_lab.cli import main
from varentropy_lab.grids import SAME_TIME_TOL
from varentropy_lab.scenarios import OUTPUT_ROOT_ENV, ConfigError, _deep_merge

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: The benchmark's reference CSV of the shipped sweep at one sample per
#: solver step; read here, never written.
DENSE_SWEEP_REFERENCE = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "sweep_dense" / "sweep.csv"
)


#: A valid Monte Carlo block too small for any backward-drift bin to reach
#: the default minimum count of 50 samples.
SMALL_MC = {"n_paths": 200, "dt": 1e-2, "seed": 5, "t_end": 0.5, "store_every": 25,
            "bins": 25, "bin_span": 3.0}

#: A Monte Carlo block large enough for every diagnostic to report.
MEDIUM_MC = {"n_paths": 2000, "dt": 1e-2, "seed": 5, "t_end": 0.5, "store_every": 25,
             "bins": 13, "bin_span": 2.5}


def ou_config(**overrides):
    data = {
        "name": "ou_small",
        "drift": {"kind": "linear", "rate": -0.5, "sigma": 1.0},
        "initial": {"kind": "gaussian", "mean": 0.0, "variance": 0.25},
        "grid": {"lo": -8.0, "hi": 8.0, "n": 401},
        "solver": {"dt": 2e-3},
        "time": {"t_end": 1.0, "n_samples": 41},
        "tolerances": {"oracle_rel": 5e-3},
    }
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_valid_config(self):
        cfg = ScenarioConfig.from_dict(ou_config())
        assert cfg.name == "ou_small"
        assert cfg.grid.n == 401
        assert cfg.mc is None
        assert cfg.is_ou_benchmark()

    def test_missing_field_names_path(self):
        data = ou_config()
        del data["grid"]
        with pytest.raises(ConfigError, match="config.grid"):
            ScenarioConfig.from_dict(data)

    def test_unknown_drift_kind(self):
        with pytest.raises(ConfigError, match="config.drift.kind"):
            ScenarioConfig.from_dict(ou_config(drift={"kind": "cubic"}))

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="config.tolerances"):
            ScenarioConfig.from_dict(ou_config(tolerances={"bogus": 1.0}))

    def test_narrow_grid_rejected_for_initial(self):
        """A variance-4 start leaks about 6e-5 of mass past +/-8."""
        data = ou_config(initial={"kind": "gaussian", "mean": 0.0, "variance": 4.0})
        with pytest.raises(ConfigError, match="initial density mass outside"):
            ScenarioConfig.from_dict(data)

    def test_narrow_grid_rejected_for_stationary(self):
        data = ou_config(grid={"lo": -4.0, "hi": 4.0, "n": 201})
        with pytest.raises(ConfigError, match="stationary density mass outside"):
            ScenarioConfig.from_dict(data)

    def test_bad_mixture_weights(self):
        data = ou_config(
            initial={
                "kind": "mixture",
                "components": [
                    {"weight": 0.6, "mean": -1, "variance": 0.25},
                    {"weight": 0.6, "mean": 1, "variance": 0.25},
                ],
            }
        )
        with pytest.raises(ConfigError, match="components"):
            ScenarioConfig.from_dict(data)

    def test_nan_initial_variance_rejected(self):
        data = ou_config(initial={"kind": "gaussian", "mean": 0.0, "variance": float("nan")})
        with pytest.raises(ConfigError, match="config.initial: variance must be finite"):
            ScenarioConfig.from_dict(data)

    def test_nonconfining_drift_rejected(self):
        with pytest.raises(ConfigError, match="rate < 0"):
            ScenarioConfig.from_dict(ou_config(drift={"kind": "linear", "rate": 0.5}))

    def test_linear_drift_is_the_quadratic_potential(self):
        """Both spellings of the OU drift parse to one model, and both get
        the exact-benchmark checks."""
        linear = ScenarioConfig.from_dict(ou_config())
        gradient = ScenarioConfig.from_dict(
            ou_config(drift={"kind": "gradient", "coeffs": [0, 0, 0.25, 0, 0]})
        )
        assert linear.model == gradient.model
        assert linear.is_ou_benchmark() and gradient.is_ou_benchmark()

    @pytest.mark.parametrize("section, key, value, field", [
        ("grid", "n", 401.5, "config.grid.n"),
        ("grid", "hi", float("inf"), "config.grid"),
        ("time", "n_samples", 3.7, "config.time.n_samples"),
        ("drift", "sigma", float("inf"), "config.drift"),
        ("drift", "rate", float("nan"), "config.drift.rate"),
        ("mc", "n_paths", 200.5, "config.mc.n_paths"),
        ("mc", "seed", "5", "config.mc.seed"),
        ("mc", "store_every", True, "config.mc.store_every"),
        ("mc", "diag_steps", 2.5, "config.mc.diag_steps"),
        ("mc", "bins", 25.5, "config.mc.bins"),
        ("mc", "bins", 2, "config.mc.bins"),
        ("mc", "bin_span", float("nan"), "config.mc.bin_span"),
        ("mc", "t_end", 0.505, "config.mc.t_end"),
        ("mc", "dt", float("nan"), "config.mc.dt"),
        # every real-valued field must hold a number
        ("grid", "lo", "-8", "config.grid.lo"),
        ("grid", "hi", None, "config.grid.hi"),
        ("time", "t_end", "1.0", "config.time.t_end"),
        ("solver", "dt", "2e-3", "config.solver.dt"),
        ("solver", "theta", True, "config.solver.theta"),
        ("solver", "mass_tol", [1e-10], "config.solver.mass_tol"),
        ("drift", "sigma", "one", "config.drift.sigma"),
        ("drift", "rate", "-0.5", "config.drift.rate"),
        ("initial", "mean", "0", "config.initial.mean"),
        ("initial", "variance", {}, "config.initial.variance"),
        ("mc", "dt", "0.01", "config.mc.dt"),
        ("mc", "t_end", "0.5", "config.mc.t_end"),
        ("mc", "bin_span", "3", "config.mc.bin_span"),
        ("tolerances", "mc_sigmas", "3", "config.tolerances.mc_sigmas"),
        # and every block holds only the fields it knows
        ("grid", "nn", 401, "config.grid.nn"),
        ("time", "nsamples", 41, "config.time.nsamples"),
        ("solver", "sheme", "chang_cooper", "config.solver.sheme"),
        ("drift", "coeffs", [0, 0, 0.25, 0, 0], "config.drift.coeffs"),
        ("initial", "varaince", 0.25, "config.initial.varaince"),
        ("mc", "seeed", 5, "config.mc.seeed"),
        # a solver step and every tolerance must be positive and finite
        ("solver", "dt", float("inf"), "config.solver"),
        ("solver", "mass_tol", float("inf"), "config.solver"),
        ("tolerances", "rate_floor", 0, "config.tolerances.rate_floor"),
        ("tolerances", "mass_tol", -1e-10, "config.tolerances.mass_tol"),
        ("tolerances", "mc_sigmas", float("nan"), "config.tolerances.mc_sigmas"),
        ("tolerances", "oracle_rel", float("inf"), "config.tolerances.oracle_rel"),
        # there is one flux discretization, so the solver has no scheme field
        ("solver", "scheme", "chang_cooper", "config.solver.scheme"),
        # numpy seeds only non-negative integers
        ("mc", "seed", -1, "config.mc.seed"),
    ])
    def test_bad_field_rejected(self, section, key, value, field):
        data = ou_config(mc=SMALL_MC)
        data[section] = {**data[section], key: value}
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize("outputs", [5, ["out"], {"dir": "out"}, True])
    def test_non_string_outputs_rejected(self, outputs):
        """``outputs`` names a directory: anything but a string is refused at
        parse time, not when the reports are written after the run."""
        with pytest.raises(ConfigError, match=r"^config.outputs: must be a string"):
            ScenarioConfig.from_dict(ou_config(outputs=outputs))

    @pytest.mark.parametrize("typo, section", [("mcc", "mc"), ("grdi", "grid")])
    def test_misspelled_block_rejected(self, typo, section):
        """A misspelled block is an unknown field, not a block left out: a
        config without its Monte Carlo block would run no MC check at all."""
        data = ou_config(mc=SMALL_MC)
        data[typo] = data.pop(section)
        with pytest.raises(ConfigError, match=f"^config.{typo}: unknown field"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize("component, field", [
        ({"weight": "half"}, "config.initial.components[1].weight"),
        ({"sd": 0.5}, "config.initial.components[1].sd"),
    ])
    def test_bad_mixture_component_rejected(self, component, field):
        comps = [{"weight": 0.5, "mean": -1.0, "variance": 0.25},
                 {"weight": 0.5, "mean": 1.0, "variance": 0.25, **component}]
        data = ou_config(initial={"kind": "mixture", "components": comps})
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
            ScenarioConfig.from_dict(data)

    def test_bad_coefficient_rejected(self):
        data = ou_config(drift={"kind": "gradient", "coeffs": [0, 0, 0.25, 0, "x"]})
        with pytest.raises(ConfigError, match=r"^config.drift.coeffs\[4\]: must be a number"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize("name", ["ou_benchmark", "double_well_relax"])
    def test_shipped_configs_parse(self, name):
        cfg = ScenarioConfig.from_json(CONFIGS / f"{name}.json")
        assert cfg.name == name and cfg.mc is not None

    def test_shipped_sweep_members_parse(self):
        sweep = SweepConfig.from_json(CONFIGS / "sweep_double_well.json")
        ScenarioConfig.from_dict(sweep.base)
        for value in sweep.values:
            ScenarioConfig.from_dict(_deep_merge(sweep.base, value))

    def test_table_initial(self, tmp_path):
        grid_n = 401
        x = np.linspace(-8, 8, grid_n)
        values = np.exp(-(x**2) / 0.5)
        np.savetxt(tmp_path / "table.txt", values)
        data = ou_config(initial={"kind": "table", "path": "table.txt"})
        cfg = ScenarioConfig.from_dict(data, base_dir=tmp_path)
        p0 = cfg.initial_density()
        assert p0.mass() == pytest.approx(1.0, abs=1e-12)
        assert p0.variance() == pytest.approx(0.25, abs=1e-3)

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ou_config()))
        cfg = ScenarioConfig.from_json(path)
        assert cfg.name == "ou_small"


class TestRunScenario:
    def test_ou_checks_pass(self, tmp_path):
        cfg = ScenarioConfig.from_dict(ou_config())
        result = run_scenario(cfg, out_dir=tmp_path)
        failing = [c for c in result.checks if not c.passed]
        assert not failing, failing
        assert result.exit_code == 0
        for name in ("functionals.csv", "consistency.csv", "checks.csv"):
            assert (tmp_path / name).exists()

    def test_functionals_csv_schema(self, tmp_path):
        cfg = ScenarioConfig.from_dict(ou_config())
        run_scenario(cfg, out_dir=tmp_path)
        header = (tmp_path / "functionals.csv").read_text().splitlines()[0]
        assert header == (
            "time,relative_entropy,relative_fisher,varentropy,"
            "entropy_rate,varentropy_rate,varentropy_rate_fd"
        )

    def test_stationary_scenario_all_zero(self, tmp_path):
        cfg = ScenarioConfig.from_dict(
            ou_config(
                name="stationary",
                initial={"kind": "gaussian", "mean": 0.0, "variance": 1.0},
            )
        )
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.exit_code == 0
        for row in result.reports:
            assert row.relative_entropy < 1e-10
            assert row.varentropy < 1e-10
            assert row.relative_fisher < 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ScenarioConfig.from_dict(ou_config(mc=MEDIUM_MC))
        run_scenario(cfg, out_dir=tmp_path / "a")
        run_scenario(cfg, out_dir=tmp_path / "b")
        for name in ("functionals.csv", "consistency.csv", "checks.csv", "mc_diagnostics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        cfg = ScenarioConfig.from_dict(ou_config())
        result = run_scenario(cfg)
        assert result.out_dir == tmp_path / "root" / "ou_small"
        assert (result.out_dir / "functionals.csv").exists()

    def test_no_outputs_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        cfg = ScenarioConfig.from_dict(ou_config())
        result = run_scenario(cfg)
        assert result.out_dir is None

    def test_too_small_ensemble_fails_duality_check(self, tmp_path):
        """No backward-drift bin reaches min_count: mc_duality fails with a
        reason, the other checks still run and every report is written."""
        cfg = ScenarioConfig.from_dict(ou_config(mc=SMALL_MC))
        result = run_scenario(cfg, out_dir=tmp_path)
        duality = next(c for c in result.checks if c.name == "mc_duality")
        assert not duality.passed
        assert duality.detail == "no bin reached min_count = 50 samples (200 paths)"
        assert result.exit_code == 1
        names = [c.name for c in result.checks]
        assert "mc_martingale_mean" in names and "mc_functionals_agreement" in names
        for name in ("functionals.csv", "consistency.csv", "checks.csv", "mc_diagnostics.csv"):
            assert (tmp_path / name).exists()
        assert "mc_duality,False,no bin reached" in (tmp_path / "checks.csv").read_text()

    def test_one_solve_on_every_output_time(self, monkeypatch):
        """The grid rows and both ensembles' references read one solution,
        solved on a mesh that holds every sample and stored MC time. The
        only other solve is the fixed-point check's one step of size dt
        from the stationary density."""
        calls = []
        solve = scenarios.solve

        def counting_solve(p0, model, t_grid, cfg):
            calls.append((p0, np.asarray(t_grid)))
            return solve(p0, model, t_grid, cfg)

        monkeypatch.setattr(scenarios, "solve", counting_solve)
        cfg = ScenarioConfig.from_dict(ou_config(mc=MEDIUM_MC))
        run_scenario(cfg, out_dir=None)
        pbar = cfg.stationary_density()
        steps = [t for p0, t in calls if np.array_equal(p0.values, pbar.values)]
        meshes = [t for p0, t in calls if not np.array_equal(p0.values, pbar.values)]
        assert len(meshes) == 1
        assert len(steps) == 1 and steps[0].tolist() == [0.0, cfg.solver.dt]
        mc = cfg.mc
        wanted = np.concatenate([
            cfg.time_samples(),
            mc.dt * np.arange(mc.diag_steps + 1),
            mc.dt * mc.store_every * np.arange(round(mc.t_end / mc.dt) // mc.store_every + 1),
        ])
        gaps = np.abs(wanted[:, None] - meshes[0][None, :]).min(axis=1)
        assert gaps.max() <= SAME_TIME_TOL
        assert np.all(np.diff(meshes[0]) > SAME_TIME_TOL)

    def test_mc_references_are_the_report_values(self, tmp_path):
        """At a time that is both a sample time and a stored time of the
        coarse ensemble, the Monte Carlo references equal the report row's
        values: both read the one solution."""
        cfg = ScenarioConfig.from_dict(ou_config(mc=MEDIUM_MC))
        result = run_scenario(cfg, out_dir=tmp_path)
        columns = {"entropy_mc": "relative_entropy", "varentropy_mc": "varentropy",
                   "varentropy_rate_mc": "varentropy_rate"}
        compared = set()
        for line in (tmp_path / "mc_diagnostics.csv").read_text().splitlines()[1:]:
            name, time, *_, reference = line.split(",")
            if name not in columns:
                continue
            rows = [r for r in result.reports if abs(r.time - float(time)) <= 1e-9]
            if rows:
                assert float(reference) == getattr(rows[0], columns[name]), (name, time)
                compared.add(float(time))
        assert compared == {0.0, 0.25, 0.5}


    def test_dense_ensemble_is_not_stored(self):
        """The dense ensemble streams through its diagnostics: the run's
        traced peak stays far below the (diag_steps + 1) x n_paths doubles a
        stored ensemble would take."""
        mc = {**MEDIUM_MC, "n_paths": 20_000, "diag_steps": 50}
        cfg = ScenarioConfig.from_dict(ou_config(grid={"lo": -8.0, "hi": 8.0, "n": 201}, mc=mc))
        # a first run imports the solver's scipy modules, whose objects
        # would otherwise count towards the traced peak
        run_scenario(cfg)
        tracemalloc.start()
        try:
            run_scenario(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = (mc["diag_steps"] + 1) * mc["n_paths"] * 8
        assert peak < 0.5 * dense_bytes, (peak, dense_bytes)


class TestSweep:
    def test_ou_variance_sweep_never_positive(self):
        """Across initial variances on both sides of stationarity the
        computed varentropy rate stays nonpositive: no sign changes."""
        base = ou_config(
            name="ou_sweep",
            grid={"lo": -16.0, "hi": 16.0, "n": 1601},
            time={"t_end": 2.0, "n_samples": 41},
            tolerances={},
        )
        sweep = SweepConfig(base=base, parameter="initial.variance",
                            values=[0.25, 0.5, 2.0, 4.0])
        rows = monotonicity_sweep(sweep)
        assert len(rows) == 4
        for row in rows:
            assert not row.sign_change
            assert row.max_rate <= 1e-8
            assert row.time_of_max is None

    def test_degenerate_stationary_sweep(self):
        base = ou_config(name="flat")
        sweep = SweepConfig(base=base, parameter="initial.variance", values=[1.0])
        rows = monotonicity_sweep(sweep)
        assert len(rows) == 1
        assert abs(rows[0].min_rate) < 1e-10
        assert abs(rows[0].max_rate) < 1e-10
        assert not rows[0].sign_change

    @pytest.mark.parametrize("fields, message", [
        ({"parameter": "solvr.dt", "values": [1e-3]}, "sweep.parameter: 'solvr.dt' names no field"),
        ({"parameter": "grid.nn", "values": [401]}, "config.grid.nn: unknown field"),
        ({"values": [0.5]}, "config.override: unknown field"),
        ({"parameter": "initial.variance", "values": 0.5}, "sweep.values: must be a non-empty list"),
        ({"parameter": "initial.variance", "values": [0.25], "bass": {}}, "sweep.bass: unknown field"),
        ({"parameter": "initial.variance", "values": [0.25], "outputs": 7},
         "sweep.outputs: must be a string, got 7"),
    ])
    def test_bad_sweep_rejected(self, tmp_path, fields, message):
        """Each fault stops the sweep with a config error before any member
        is solved."""
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": ou_config(name="bad_sweep"), **fields}))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            monotonicity_sweep(SweepConfig.from_json(path))

    def test_dict_override_merging(self):
        base = ou_config(name="merge")
        sweep = SweepConfig(
            base=base,
            parameter="override",
            values=[{"initial": {"variance": 0.5}}],
        )
        rows = monotonicity_sweep(sweep)
        assert len(rows) == 1
        # variance 1/2 start: varentropy (1 - v)^2 / 2 = 1/8 at t = 0
        assert rows[0].varentropy_initial == pytest.approx(0.125, rel=1e-3)


    def test_dense_sweep_writes_the_reference_bytes(self, tmp_path, capsys):
        """The shipped sweep with ``base.time.n_samples`` 1201 (one sample
        per solver step) and no ``outputs`` writes the benchmark's
        reference CSV byte for byte."""
        data = json.loads((CONFIGS / "sweep_double_well.json").read_text())
        data.pop("outputs", None)
        data["base"]["time"]["n_samples"] = 1201
        path = tmp_path / "sweep_dense.json"
        path.write_text(json.dumps(data, indent=1))
        assert main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == DENSE_SWEEP_REFERENCE.read_bytes()


class TestConvergence:
    def test_observed_order_is_two(self):
        cfg = ScenarioConfig.from_dict(
            ou_config(
                grid={"lo": -8.0, "hi": 8.0, "n": 101},
                solver={"dt": 4e-3},
                time={"t_end": 1.0, "n_samples": 11},
            )
        )
        rows = convergence_study(cfg, levels=3)
        assert len(rows) == 3
        assert rows[0].observed_order is None
        for row in rows[1:]:
            assert 1.8 < row.observed_order < 2.2

    def test_two_levels_single_ratio(self):
        cfg = ScenarioConfig.from_dict(
            ou_config(grid={"lo": -8.0, "hi": 8.0, "n": 101},
                      solver={"dt": 4e-3}, time={"t_end": 0.5, "n_samples": 6})
        )
        rows = convergence_study(cfg, levels=2)
        assert len(rows) == 2
        assert rows[1].observed_order is not None

    def test_stationary_zero_error(self):
        cfg = ScenarioConfig.from_dict(
            ou_config(
                initial={"kind": "gaussian", "mean": 0.0, "variance": 1.0},
                grid={"lo": -8.0, "hi": 8.0, "n": 101},
                solver={"dt": 4e-3},
                time={"t_end": 0.5, "n_samples": 6},
            )
        )
        rows = convergence_study(cfg, levels=2)
        for row in rows:
            assert row.max_abs_error < 1e-10

    def test_requires_benchmark_scenario(self, dw_model):
        data = ou_config(
            drift={"kind": "gradient", "coeffs": [0, 0, -0.5, 0, 0.25]},
            initial={
                "kind": "mixture",
                "components": [
                    {"weight": 0.5, "mean": -1, "variance": 0.09},
                    {"weight": 0.5, "mean": 1, "variance": 0.09},
                ],
            },
            grid={"lo": -3.5, "hi": 3.5, "n": 201},
        )
        cfg = ScenarioConfig.from_dict(data)
        with pytest.raises(ValueError, match="benchmark"):
            convergence_study(cfg, levels=2)

    def test_level_count_validated(self):
        cfg = ScenarioConfig.from_dict(ou_config())
        with pytest.raises(ValueError, match="levels"):
            convergence_study(cfg, levels=1)


class TestCli:
    def test_run_passes(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ou_config()))
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        assert (tmp_path / "out" / "functionals.csv").exists()

    def test_run_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        bad = ou_config(drift={"kind": "linear", "rate": 0.5})
        path.write_text(json.dumps(bad))
        assert main(["run", str(path)]) == 2

    def test_store_every_not_dividing_steps_exit_2(self, tmp_path, capsys):
        """Rejected at parse time, before any solve."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(ou_config(mc={**SMALL_MC, "store_every": 30})))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config.mc.store_every: must divide the 50 steps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["drift"].update(sigma="one"), "config.drift.sigma: must be a number"),
        (lambda d: d.update(mcc=d.pop("mc")), "config.mcc: unknown field"),
        (lambda d: d["solver"].update(dt=float("inf")),
         "config.solver: dt must be positive and finite"),
        (lambda d: d.update(mc={**d["mc"], "seed": -1}), "config.mc.seed: must be >= 0, got -1"),
        (lambda d: d.update(outputs=5), "config.outputs: must be a string, got 5"),
    ])
    def test_bad_field_exit_2(self, tmp_path, capsys, edit, field):
        """A bad field ends the run at parse time with its path on stderr,
        before anything is written."""
        data = ou_config(mc=SMALL_MC)
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("table, reason", [
        (None, "table.txt not found"),
        ("a b c\n", "could not convert string 'a'"),
        # loadtxt reports an empty file with a warning; warnings are errors here
        pytest.param("", "input contained no data", marks=pytest.mark.filterwarnings("error")),
    ], ids=["missing", "not_numeric", "empty"])
    def test_unreadable_table_exit_2(self, tmp_path, capsys, table, reason):
        """A table initial state that is missing, empty or not numeric ends
        the run at parse time with its field path, not with a traceback."""
        if table is not None:
            (tmp_path / "table.txt").write_text(table)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(ou_config(initial={"kind": "table", "path": "table.txt"})))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.initial.path: ") and reason in err
        assert not (tmp_path / "out").exists()

    def test_sweep_non_string_outputs_exit_2(self, tmp_path, capsys):
        """Refused when the sweep file is read, before any member runs."""
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": ou_config(name="sweep_outputs"),
                                    "parameter": "initial.variance", "values": [0.25],
                                    "outputs": 7}))
        assert main(["sweep", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: sweep.outputs: must be a string, got 7\n"
        assert captured.out == ""

    def test_failed_solve_exit_1(self, tmp_path, capsys):
        """A mass tolerance below rounding parses, then fails the solve: the
        run ends with one line giving the solver's message, no traceback."""
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(ou_config(solver={"dt": 2e-3, "mass_tol": 1e-17})))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"solver error: solve failed advancing to t=\S+: "
            r"density mass \S+ outside 1 \+/- 1e-17\n",
            captured.err,
        )
        assert "[PASS]" not in captured.out
        assert not (tmp_path / "out").exists()

    def test_nan_initial_variance_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        bad = ou_config(initial={"kind": "gaussian", "mean": 0.0, "variance": float("nan")})
        path.write_text(json.dumps(bad))  # written as the JSON extension NaN
        assert main(["run", str(path)]) == 2
        assert "config.initial" in capsys.readouterr().err

    def test_oracle_table(self, capsys):
        code = main(["oracle", "--sigma0-sq", "0.25", "--t-end", "1.0", "--samples", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "varentropy" in out
        # t = 0 row shows the closed-form values
        first = out.splitlines()[1].split()
        assert float(first[1]) == pytest.approx(0.25)
        assert float(first[3]) == pytest.approx(0.28125)

    def test_sweep_command(self, tmp_path, capsys):
        sweep = {
            "base": ou_config(name="cli_sweep"),
            "parameter": "initial.variance",
            "values": [0.25, 0.5],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        code = main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("label,min_rate,max_rate,sign_change")
        assert len(lines) == 3

    def test_sweep_reports_failed_member_checks(self, tmp_path, capsys):
        """Failed member checks go to stderr, one line per member; the exit
        code stays 0 and the table and CSV keep their shape."""
        base = ou_config(
            name="strict",
            grid={"lo": -8.0, "hi": 8.0, "n": 101},
            solver={"dt": 4e-3},
            time={"t_end": 0.2, "n_samples": 6},
            tolerances={"varentropy_rate_rel": 1e-12},
        )
        sweep = {"base": base, "parameter": "initial.variance", "values": [0.25, 0.5]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        code = main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.err.splitlines()
        assert len(lines) == 2
        for line, label in zip(lines, ("initial.variance=0.25", "initial.variance=0.5")):
            assert line.startswith(f"warning: sweep member {label}: failed checks: ")
            assert "varentropy_rate_consistency" in line
        assert "failed checks" not in captured.out
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3

    def test_converge_command(self, tmp_path, capsys):
        cfg = ou_config(
            grid={"lo": -8.0, "hi": 8.0, "n": 101},
            solver={"dt": 4e-3},
            time={"t_end": 0.5, "n_samples": 6},
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["converge", str(path), "--levels", "2", "--out", str(tmp_path / "conv.csv")])
        assert code == 0
        assert (tmp_path / "conv.csv").exists()

    def test_parsing_does_not_import_scipy_linalg(self):
        """scipy.linalg is imported on the first factored time step, so the
        CLI, config parsing and config errors do without it."""
        code = (
            "import sys\n"
            "import varentropy_lab.cli\n"
            "from varentropy_lab import ScenarioConfig\n"
            "for name in ('ou_benchmark', 'double_well_relax'):\n"
            f"    ScenarioConfig.from_json({str(CONFIGS)!r} + '/' + name + '.json')\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "varentropy_lab", "oracle",
             "--sigma0-sq", "0.25", "--t-end", "0.5", "--samples", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "variance" in proc.stdout
