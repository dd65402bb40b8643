"""Scenario configs, the runner, sweeps, the convergence study and the CLI."""

import json
import subprocess
import sys

import numpy as np
import pytest

from varentropy_lab import ScenarioConfig, SweepConfig, convergence_study, monotonicity_sweep, run_scenario
from varentropy_lab.cli import main
from varentropy_lab.scenarios import OUTPUT_ROOT_ENV, ConfigError


#: A valid Monte Carlo block too small for any backward-drift bin to reach
#: the default minimum count of 50 samples.
SMALL_MC = {"n_paths": 200, "dt": 1e-2, "seed": 5, "t_end": 0.5, "store_every": 25,
            "bins": 25, "bin_span": 3.0}


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
        assert cfg.solver.scheme == "chang_cooper"
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
    ])
    def test_bad_field_rejected(self, section, key, value, field):
        data = ou_config(mc=SMALL_MC)
        data[section] = {**data[section], key: value}
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ScenarioConfig.from_dict(data)

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
        data = ou_config(
            mc={"n_paths": 2000, "dt": 1e-2, "seed": 5, "t_end": 0.5,
                "store_every": 25, "bins": 13, "bin_span": 2.5}
        )
        cfg = ScenarioConfig.from_dict(data)
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

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "varentropy_lab", "oracle",
             "--sigma0-sq", "0.25", "--t-end", "0.5", "--samples", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "variance" in proc.stdout
