"""Scenario configs, the runner, sweeps, the convergence study and the CLI."""

import errno
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from varentropy_lab import ScenarioConfig, SweepConfig, convergence_study, monotonicity_sweep, run_scenario
from varentropy_lab import FunctionalReport, OUBenchmark, central_difference, report, scenarios
from varentropy_lab.cli import main
from varentropy_lab.fokker_planck import MASS_TOL, SolveError, _Generator, solve
from varentropy_lab.grids import SAME_TIME_TOL, gaussian_density
from varentropy_lab.config import DENSE_STEPS, MAX_COUNT, ConfigError, _deep_merge

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: The CSV of the shipped sweep at one sample per solver step, as the
#: symmetric-path solver writes it; read here, never written.
DENSE_SWEEP_GOLDEN = Path(__file__).resolve().parent / "data" / "sweep_dense.csv"

#: The CSV of ``converge configs/ou_benchmark.json --levels 2``; read
#: here, never written.
CONVERGE_GOLDEN = Path(__file__).resolve().parent / "data" / "converge_ou_benchmark.csv"

#: The benchmark's reference CSV of the same sweep, from the pivoted-LU
#: solver; read here, never written.
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


def variance_values(*variances):
    """Sweep values, one per variance, each setting ``initial.variance``."""
    return [{"initial": {"variance": v}} for v in variances]


def ou_config(**overrides):
    data = {
        "name": "ou_small",
        "drift": {"kind": "linear", "rate": -0.5, "sigma": 1.0},
        "initial": {"kind": "gaussian", "mean": 0.0, "variance": 0.25},
        "grid": {"lo": -8.0, "hi": 8.0, "n": 801},
        "solver": {"dt": 2e-3},
        "time": {"t_end": 1.0, "n_samples": 41},
    }
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_valid_config(self):
        cfg = ScenarioConfig.from_dict(ou_config())
        assert cfg.name == "ou_small"
        assert cfg.grid.n == 801
        assert cfg.mc is None
        assert cfg.exact() == OUBenchmark(0.25)

    def test_missing_field_names_path(self):
        data = ou_config()
        del data["grid"]
        with pytest.raises(ConfigError, match="config.grid"):
            ScenarioConfig.from_dict(data)

    def test_unknown_drift_kind(self):
        with pytest.raises(ConfigError, match="config.drift.kind"):
            ScenarioConfig.from_dict(ou_config(drift={"kind": "cubic"}))

    def test_unknown_tolerance_rejected(self):
        """A config has no tolerances block: the checks' bounds are fixed."""
        with pytest.raises(ConfigError, match="^config.tolerances: unknown field$"):
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
        assert linear.exact() == gradient.exact() == OUBenchmark(0.25)

    @pytest.mark.parametrize("overrides", [
        {"initial": {"kind": "gaussian", "mean": 0.5, "variance": 0.25}},
        {"drift": {"kind": "linear", "rate": -0.5, "sigma": 2.0},
         "grid": {"lo": -16.0, "hi": 16.0, "n": 401}},
        {"drift": {"kind": "linear", "rate": -1.0}},
        {"initial": {"kind": "mixture", "components": [
            {"weight": 0.5, "mean": -1.0, "variance": 0.25},
            {"weight": 0.5, "mean": 1.0, "variance": 0.25}]}},
    ], ids=["mean_0.5", "sigma_2", "rate_-1", "mixture"])
    def test_no_exact_solution_off_the_benchmark(self, overrides):
        assert ScenarioConfig.from_dict(ou_config(**overrides)).exact() is None

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
        ("tolerances", "mc_sigmas", "3", "config.tolerances"),
        # and every block holds only the fields it knows
        ("grid", "nn", 401, "config.grid.nn"),
        ("time", "nsamples", 41, "config.time.nsamples"),
        ("solver", "sheme", "chang_cooper", "config.solver.sheme"),
        ("drift", "coeffs", [0, 0, 0.25, 0, 0], "config.drift.coeffs"),
        ("initial", "varaince", 0.25, "config.initial.varaince"),
        ("mc", "seeed", 5, "config.mc.seeed"),
        # a solver step must be positive and finite; the solver has no
        # other field, and a config no tolerances block, whatever the value
        ("solver", "dt", float("inf"), "config.solver"),
        ("solver", "mass_tol", float("inf"), "config.solver.mass_tol"),
        ("tolerances", "rate_floor", 0, "config.tolerances"),
        ("tolerances", "mass_tol", -1e-10, "config.tolerances"),
        ("tolerances", "mc_sigmas", float("nan"), "config.tolerances"),
        ("tolerances", "oracle_rel", float("inf"), "config.tolerances"),
        # there is one flux discretization, so the solver has no scheme field
        ("solver", "scheme", "chang_cooper", "config.solver.scheme"),
        # numpy seeds only non-negative integers
        ("mc", "seed", -1, "config.mc.seed"),
        # one path has no sample variance
        ("mc", "n_paths", 1, "config.mc.n_paths"),
        # the fields that only their defaults reached are gone, at any value
        ("solver", "theta", 0.5, "config.solver.theta"),
        ("solver", "mass_tol", 1e-10, "config.solver.mass_tol"),
        ("mc", "diag_steps", 50, "config.mc.diag_steps"),
        ("tolerances", "fixed_point_sup", 1e-8, "config.tolerances"),
        ("tolerances", "oracle_rel", 1e-3, "config.tolerances"),
        ("tolerances", "varentropy_rate_rel", 0.01, "config.tolerances"),
        ("tolerances", "entropy_rate_rel", 0.01, "config.tolerances"),
        ("tolerances", "rate_floor", 1e-6, "config.tolerances"),
        ("tolerances", "mc_sigmas", 3.0, "config.tolerances"),
    ])
    def test_bad_field_rejected(self, section, key, value, field):
        data = ou_config(mc=SMALL_MC)
        data[section] = {**data.get(section, {}), key: value}
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize("overrides, message", [
        ({"time": {"t_end": 1e-7, "n_samples": 201}},
         "config.time.n_samples: samples 5e-10 apart would merge"),
        ({"time": {"t_end": 2e-7, "n_samples": 201}},
         "config.time.n_samples: samples 1e-09 apart would merge"),
        ({"mc": {**SMALL_MC, "dt": 1e-9, "t_end": 1e-7}},
         "config.mc.dt: steps of 1e-09 would merge"),
        ({"mc": {**SMALL_MC, "dt": 1e-12, "t_end": 1e-10}},
         "config.mc.dt: steps of 1e-12 would merge"),
    ], ids=["samples_5e-10", "samples_1e-9", "mc_dt_1e-9", "mc_dt_1e-12"])
    def test_times_the_mesh_would_merge_rejected(self, overrides, message):
        """The solve mesh counts times within ``SAME_TIME_TOL`` as one, so
        samples or Monte Carlo steps that close are refused, not folded into
        one state that the report would show at two times."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)} in the solve mesh"):
            ScenarioConfig.from_dict(ou_config(**overrides))

    def test_dense_ensemble_past_the_run_rejected(self):
        """The dense ensemble takes ``DENSE_STEPS`` steps of ``mc.dt``,
        which must end within the run, as ``mc.t_end`` must; 50 steps that
        end at ``t_end`` are accepted."""
        time, mc = {"t_end": 0.02, "n_samples": 21}, {**SMALL_MC, "t_end": 0.02}
        message = "config.mc.dt: the dense ensemble's 50 steps of 0.001 pass t_end of the run, 0.02"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ScenarioConfig.from_dict(ou_config(time=time, mc={**mc, "dt": 1e-3, "store_every": 4}))
        cfg = ScenarioConfig.from_dict(ou_config(time=time, mc={**mc, "dt": 4e-4, "store_every": 5}))
        assert cfg.time_sets[1][0][-1] == pytest.approx(0.02, abs=1e-12)

    def test_samples_just_apart_keep_their_mesh_times(self):
        """Samples 2e-9 apart are solved at 201 distinct mesh times."""
        cfg = ScenarioConfig.from_dict(ou_config(time={"t_end": 4e-7, "n_samples": 201}))
        assert len(cfg.mesh) == 201

    @pytest.mark.parametrize("name", [None, 5, ["ou"], True], ids=["null", "int", "list", "bool"])
    def test_non_string_name_rejected(self, name):
        """``name`` names the run and its output directory: anything but a
        string is refused at parse time, not run under ``str(name)``."""
        with pytest.raises(ConfigError, match=f"^{re.escape(f'config.name: must be a string, got {name!r}')}$"):
            ScenarioConfig.from_dict(ou_config(name=name))

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
        grid_n = 801
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

    @pytest.mark.parametrize("mean, variance", [(0.0, 0.25), (0.3, 1.2), (-1.1, 0.09)])
    def test_gaussian_start_is_bit_identical_to_gaussian_density(self, mean, variance):
        """A Gaussian start is built as the one-component mixture of weight
        1; its values equal ``gaussian_density``'s bit for bit."""
        cfg = ScenarioConfig.from_dict(
            ou_config(initial={"kind": "gaussian", "mean": mean, "variance": variance})
        )
        reference = gaussian_density(cfg.grid, mean, variance)
        assert np.array_equal(cfg.initial_density().values, reference.values)

    def test_table_read_once_per_parse(self, tmp_path, monkeypatch):
        """A table start is read once, when the config is parsed: one pass
        builds the density and checks its mass outside the grid, and the
        run solves that density without reading the file again."""
        np.savetxt(tmp_path / "table.txt", np.exp(-np.linspace(-8, 8, 801) ** 2 / 0.5))
        reads = []
        loadtxt = np.loadtxt

        def counting_loadtxt(*args, **kwargs):
            reads.append(args[0])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        cfg = ScenarioConfig.from_dict(ou_config(initial={"kind": "table", "path": "table.txt"}),
                                       base_dir=tmp_path)
        assert len(reads) == 1
        run_scenario(cfg)
        assert reads == [tmp_path / "table.txt"]

    @pytest.mark.parametrize("change", ["delete", "rewrite"])
    def test_run_solves_the_parsed_table_start(self, tmp_path, change):
        """A table file deleted or rewritten after parsing changes nothing:
        the run solves the start that parsing read."""
        x = np.linspace(-8, 8, 801)
        table = tmp_path / "table.txt"
        np.savetxt(table, np.exp(-x**2 / 0.5))
        cfg = ScenarioConfig.from_dict(ou_config(initial={"kind": "table", "path": "table.txt"}),
                                       base_dir=tmp_path)
        want = run_scenario(cfg).report
        if change == "delete":
            table.unlink()
        else:
            np.savetxt(table, np.exp(-(x - 1.0) ** 2 / 0.5))
        got = run_scenario(cfg).report
        for name in FunctionalReport.FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_grid_whose_double_width_overflows_rejected(self, tmp_path):
        """The stationary mass is checked on the grid widened by half its
        width on each side. A grid of finite width whose widened width
        overflows is refused at ``config.grid``. A table start, a spike at
        the middle node, keeps the Gaussian sampler, which squares the
        nodes, out of the parse."""
        spike = np.zeros(801)
        spike[400] = 1.0
        np.savetxt(tmp_path / "spike.txt", spike)
        data = ou_config(grid={"lo": -5e307, "hi": 5e307, "n": 801},
                         initial={"kind": "table", "path": "spike.txt"})
        with pytest.raises(ConfigError, match="^config.grid: twice as wide, to check the "
                                              "stationary mass: invalid bounds: .* overflows$"):
            ScenarioConfig.from_dict(data, base_dir=tmp_path)

    def test_max_count_is_the_array_limit(self):
        """``MAX_COUNT`` is the most float64 elements numpy can shape: one
        more is refused by numpy itself, before anything is allocated."""
        with pytest.raises(ValueError, match="array is too big"):
            np.empty(MAX_COUNT + 1)


class TestRunScenario:
    def test_ou_checks_pass(self, tmp_path):
        cfg = ScenarioConfig.from_dict(ou_config())
        result = run_scenario(cfg, out_dir=tmp_path)
        failing = [c for c in result.checks if not c.passed]
        assert not failing, failing
        assert result.exit_code == 0
        for name in ("functionals.csv", "consistency.csv", "checks.csv"):
            assert (tmp_path / name).exists()

    @pytest.mark.parametrize("mc, names", [
        (None, []),
        (SMALL_MC, ["mc_duality", "mc_martingale_mean", "mc_martingale_conditional",
                    "mc_functionals_agreement"]),
    ], ids=["grid_only", "monte_carlo"])
    def test_every_check_can_fail(self, tmp_path, mc, names):
        """A run reports only checks that compare two computations, each of
        which a run can fail, in ``checks.csv`` as in its result. The
        solver's own refusals (finite, non-negative, unit mass) end a run
        that fails them, and no check repeats them."""
        cfg = ScenarioConfig.from_dict(ou_config(mc=mc))
        result = run_scenario(cfg, out_dir=tmp_path)
        want = ["stationary_fixed_point", "varentropy_rate_consistency",
                "entropy_rate_consistency", "varentropy_vs_exact", "varentropy_rate_vs_exact",
                *names]
        assert [c.name for c in result.checks] == want
        rows = (tmp_path / "checks.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == want

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
        assert np.all(result.report.relative_entropy < 1e-10)
        assert np.all(result.report.varentropy < 1e-10)
        assert np.all(result.report.relative_fisher < 1e-10)

    def test_stationary_scenario_passes_every_mc_check(self):
        """Started at its stationary law, the run's Monte Carlo estimates
        equal their references to rounding, with standard errors of the
        same size: every check passes, the Monte Carlo ones included."""
        cfg = ScenarioConfig.from_dict(ou_config(
            initial={"kind": "gaussian", "mean": 0.0, "variance": 1.0}, mc=MEDIUM_MC))
        result = run_scenario(cfg)
        assert {c.name for c in result.checks} >= set(scenarios._MC_CHECKS)
        failing = [c for c in result.checks if not c.passed]
        assert not failing, failing

    @pytest.mark.parametrize("samples", [1, 2, 3])
    def test_short_trajectory_csv_end_cells(self, samples, tmp_path):
        """1, 2 and 3 samples give 0, 0 and 1 finite differences, and
        ``functionals.csv``, the report's columns and then the finite
        difference of the varentropy, leaves the end samples' last cell
        empty. The parse-time floor of 3 samples is skipped with
        ``replace``."""
        cfg = replace(ScenarioConfig.from_dict(ou_config()), n_samples=samples)
        rep = run_scenario(cfg, out_dir=tmp_path).report
        assert len(rep) == samples
        varentropy_fd = central_difference(rep.varentropy, rep.time)
        assert varentropy_fd.shape == ({1: 0, 2: 0, 3: 1}[samples],)
        lines = [",".join((*FunctionalReport.FIELDS, "varentropy_rate_fd"))]
        for k in range(samples):
            cells = [f"{getattr(rep, f)[k].item():.17g}" for f in FunctionalReport.FIELDS]
            interior = 0 < k < samples - 1
            cells.append(f"{varentropy_fd[k - 1].item():.17g}" if interior else "")
            lines.append(",".join(cells))
        assert (tmp_path / "functionals.csv").read_text() == "\n".join(lines) + "\n"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ScenarioConfig.from_dict(ou_config(mc=MEDIUM_MC))
        run_scenario(cfg, out_dir=tmp_path / "a")
        run_scenario(cfg, out_dir=tmp_path / "b")
        for name in ("functionals.csv", "consistency.csv", "checks.csv", "mc_diagnostics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_no_outputs_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """``run`` and ``sweep`` without ``--out`` write nothing, in the
        working directory or anywhere else, whatever the environment holds:
        ``--out`` is the one output location."""
        monkeypatch.setenv("VARENTROPY_LAB_OUTPUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(ou_config()))
        (tmp_path / "sweep.json").write_text(json.dumps(
            {"base": ou_config(), "values": variance_values(0.5)}))
        assert main(["run", "cfg.json"]) == 0
        assert main(["sweep", "sweep.json"]) == 0
        assert "written" not in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sweep.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask_022", "umask_077"])
    def test_written_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        """Reports are created with mode 0o666 less the umask, as ``open``
        creates a file, whether the path is new or overwritten."""
        path = tmp_path / "sweep.csv"
        old = os.umask(umask)
        try:
            for _ in range(2):
                scenarios.write_sweep_csv([], path)
                assert stat.S_IMODE(path.stat().st_mode) == mode
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]

    def test_too_small_ensemble_fails_duality_check(self, tmp_path):
        """No backward-drift or martingale bin reaches min_count: mc_duality
        and mc_martingale_conditional fail with a reason, the other checks
        still run and every report is written."""
        cfg = ScenarioConfig.from_dict(ou_config(mc=SMALL_MC))
        result = run_scenario(cfg, out_dir=tmp_path)
        for name in ("mc_duality", "mc_martingale_conditional"):
            check = next(c for c in result.checks if c.name == name)
            assert not check.passed
            assert check.detail == "no bin reached min_count = 50 samples (200 paths)"
        assert result.exit_code == 1
        names = [c.name for c in result.checks]
        assert "mc_martingale_mean" in names and "mc_functionals_agreement" in names
        for name in ("functionals.csv", "consistency.csv", "checks.csv", "mc_diagnostics.csv"):
            assert (tmp_path / name).exists()
        assert "mc_duality,False,no bin reached" in (tmp_path / "checks.csv").read_text()

    def test_one_solve_on_every_output_time(self, monkeypatch):
        """The grid rows and both ensembles' references read one solution,
        streamed on the config's mesh, which holds every sample and stored
        MC time. The only other solve is the fixed-point check's one step of
        size dt from the stationary density."""
        calls = []
        real_chunks, real_solve = scenarios.solved_chunks, scenarios.solve

        def counting_chunks(starts, model, t_grid, cfg, rows):
            calls.append(("stream", starts, np.asarray(t_grid)))
            return real_chunks(starts, model, t_grid, cfg, rows)

        def counting_solve(p0, model, t_grid, cfg):
            calls.append(("solve", [p0], np.asarray(t_grid)))
            return real_solve(p0, model, t_grid, cfg)

        monkeypatch.setattr(scenarios, "solved_chunks", counting_chunks)
        monkeypatch.setattr(scenarios, "solve", counting_solve)
        cfg = ScenarioConfig.from_dict(ou_config(mc=MEDIUM_MC))
        run_scenario(cfg, out_dir=None)
        pbar = cfg.stationary_density()
        assert [(kind, len(starts)) for kind, starts, _ in calls] == [("stream", 1), ("solve", 1)]
        (_, (p0,), mesh), (_, (stationary,), step) = calls
        assert np.array_equal(p0.values, cfg.initial_density().values)
        assert np.array_equal(stationary.values, pbar.values)
        assert step.tolist() == [0.0, cfg.solver.dt]
        assert mesh.tolist() == cfg.mesh
        mc = cfg.mc
        wanted = np.concatenate([
            cfg.time_samples(),
            mc.dt * np.arange(DENSE_STEPS + 1),
            mc.dt * mc.store_every * np.arange(round(mc.t_end / mc.dt) // mc.store_every + 1),
        ])
        gaps = np.abs(wanted[:, None] - mesh[None, :]).min(axis=1)
        assert gaps.max() <= SAME_TIME_TOL
        assert np.all(np.diff(mesh) > SAME_TIME_TOL)

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
            at = np.flatnonzero(np.abs(result.report.time - float(time)) <= 1e-9)
            if at.size:
                value = getattr(result.report, columns[name])[at[0]]
                assert float(reference) == value, (name, time)
                compared.add(float(time))
        assert compared == {0.0, 0.25, 0.5}


    def test_dense_ensemble_is_not_stored(self):
        """The dense ensemble streams through its diagnostics: the run's
        traced peak stays far below the (DENSE_STEPS + 1) x n_paths doubles a
        stored ensemble would take."""
        mc = {**MEDIUM_MC, "n_paths": 20_000}
        cfg = ScenarioConfig.from_dict(ou_config(grid={"lo": -8.0, "hi": 8.0, "n": 201}, mc=mc))
        # a first run loads the solver's LAPACK wrapper, whose objects
        # would otherwise count towards the traced peak
        run_scenario(cfg)
        tracemalloc.start()
        try:
            run_scenario(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = (DENSE_STEPS + 1) * mc["n_paths"] * 8
        assert peak < 0.5 * dense_bytes, (peak, dense_bytes)


def mc_check(name, rows):
    """The check ``name`` of :func:`scenarios._mc_checks` over ``rows``."""
    return next(c for c in scenarios._mc_checks(rows, "none") if c.name == name)


class TestChecksFailOnNaN:
    """A NaN anywhere in what a check reduces fails the check, and its detail
    shows ``nan``; Python's ``max`` would drop a NaN that is not first."""

    NAN = float("nan")

    @staticmethod
    def _failed_with_nan(check):
        assert not check.passed, check
        assert "nan" in check.detail, check

    def test_worst_relative(self):
        good, bad = np.array([1.0, 1.0]), np.array([1.0, self.NAN])
        self._failed_with_nan(scenarios._worst_relative("x", bad, good, 1e-6, 1e-2))
        self._failed_with_nan(scenarios._worst_relative("x", good, bad, 1e-6, 1e-2))

    def test_mc_martingale_mean(self):
        rows = [("martingale_mean", 0.0, None, 100, 1.0, 0.1, 1.0),
                ("martingale_mean", 0.5, None, 100, self.NAN, 0.1, 1.0)]
        self._failed_with_nan(mc_check("mc_martingale_mean", rows))

    def test_mc_martingale_conditional(self):
        rows = [("martingale_conditional", 0.0, None, 100, 0.0, 0.1, 0.0),
                ("martingale_conditional", 0.5, None, 100, self.NAN, 0.1, 0.0)]
        self._failed_with_nan(mc_check("mc_martingale_conditional", rows))

    @pytest.mark.parametrize("field", ["value", "se", "ref"])
    def test_mc_functionals_agreement(self, field):
        bad = {"value": 0.5, "se": 0.1, "ref": 0.5, field: self.NAN}
        rows = [("entropy_mc", 0.0, None, 100, 0.5, 0.1, 0.5),
                ("entropy_mc", 0.5, None, 100, bad["value"], bad["se"], bad["ref"])]
        self._failed_with_nan(mc_check("mc_functionals_agreement", rows))


class TestMcChecks:
    """The Monte Carlo checks read the ``mc_diagnostics.csv`` rows, each in
    standard errors floored at its reference's float resolution."""

    @staticmethod
    def _check(value, se, ref):
        return mc_check("mc_functionals_agreement", [("entropy_mc", 0.0, None, 100, value, se, ref)])

    def test_deviation_beyond_rounding_fails(self):
        check = self._check(0.5 + 1e-6, 1e-18, 0.5)
        assert not check.passed
        assert check.detail == "worst |mc - quadrature|/se = 1000000.00"

    def test_rounding_passes(self):
        assert self._check(0.5 + 2**-53, 0.0, 0.5).passed
        assert self._check(1e6 * (1 + 2**-52), 1e-18, 1e6).passed

    def test_check_without_rows_fails_with_the_undefined_text(self):
        rows = [("martingale_mean", 0.0, None, 100, 1.0, 0.1, 1.0)]
        checks = scenarios._mc_checks(rows, "no bin")
        assert [(c.name, c.passed, c.detail) for c in checks] == [
            ("mc_duality", False, "no bin"),
            ("mc_martingale_mean", True, "worst |mean-1|/se = 0.00"),
            ("mc_martingale_conditional", False, "no bin"),
            ("mc_functionals_agreement", False, "no bin"),
        ]

    def test_duality_detail_names_its_row(self):
        rows = [("duality_residual", 0.5, None, 900, 0.25, 0.125, 0.0)]
        assert mc_check("mc_duality", rows) == scenarios.Check(
            "mc_duality", True, "residual = 0.2500, pooled SE = 0.1250")


class TestSweep:
    def test_ou_variance_sweep_never_positive(self):
        """Across initial variances on both sides of stationarity the
        computed varentropy rate stays nonpositive: no sign changes."""
        base = ou_config(
            name="ou_sweep",
            grid={"lo": -16.0, "hi": 16.0, "n": 1601},
            time={"t_end": 2.0, "n_samples": 41},
        )
        sweep = SweepConfig(base=base, values=variance_values(0.25, 0.5, 2.0, 4.0))
        rows = monotonicity_sweep(sweep)
        assert len(rows) == 4
        for row in rows:
            assert not row.sign_change
            assert row.max_rate <= 1e-8
            assert row.time_of_max is None

    def test_degenerate_stationary_sweep(self):
        base = ou_config(name="flat")
        sweep = SweepConfig(base=base, values=variance_values(1.0))
        rows = monotonicity_sweep(sweep)
        assert len(rows) == 1
        assert abs(rows[0].min_rate) < 1e-10
        assert abs(rows[0].max_rate) < 1e-10
        assert not rows[0].sign_change

    def test_stationary_member_has_no_time_of_max(self):
        """``ou_benchmark`` started at its stationary law: its varentropy is
        rounding (below 1e-29) and its rate negative at every sample, so the
        sweep reports no sign change and no time of maximum, though the
        argmax of that rounding is interior."""
        base = json.loads((CONFIGS / "ou_benchmark.json").read_text())
        del base["mc"]
        sweep = SweepConfig(base=base, values=variance_values(0.25, 1.0))
        (_, moving), (_, stationary) = sweep.members()
        assert 0 < np.argmax(run_scenario(stationary).report.varentropy) < base["time"]["n_samples"] - 1
        rows = monotonicity_sweep(sweep)
        assert [(row.sign_change, row.time_of_max) for row in rows] == [(False, None)] * 2
        assert rows[1].max_rate < 0.0 and rows[1].varentropy_final < 1e-29

    @pytest.mark.parametrize("fields, message", [
        # a sweep is an inline base and a list of objects merged into it:
        # a dotted parameter, a base file, a value that is not an object and
        # a base Monte Carlo block, which the members would drop, are refused
        ({"parameter": "initial.variance", "values": variance_values(0.5)},
         "sweep.parameter: unknown field"),
        ({"values": [{"grid": {"nn": 401}}]}, "config.grid.nn: unknown field"),
        ({"values": [0.5]}, "sweep.values[0]: must be an object, got 0.5"),
        ({"values": 0.5}, "sweep.values: must be a non-empty list"),
        ({"values": variance_values(0.25), "bass": {}}, "sweep.bass: unknown field"),
        ({"base": ou_config(name="b", mc=SMALL_MC), "values": variance_values(0.25)},
         "sweep.base.mc: unknown field"),
        # a deleted field is refused in the base and in a value
        ({"base": ou_config(name="b", tolerances={"oracle_rel": 1.0}),
          "values": variance_values(0.25)}, "sweep.base.tolerances: unknown field"),
        ({"base": "base.json", "values": variance_values(0.25)},
         "sweep.base: must be an object, got 'base.json'"),
        ({"base": ou_config(name="b", solver={"dt": 2e-3, "theta": 0.5}),
          "values": variance_values(0.25)}, "config.solver.theta: unknown field"),
        ({"values": [{"solver": {"mass_tol": 1e-10}}]}, "config.solver.mass_tol: unknown field"),
    ])
    def test_bad_sweep_rejected(self, tmp_path, fields, message):
        """Each fault stops the sweep with a config error before any member
        is solved."""
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": ou_config(name="bad_sweep"), **fields}))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            monotonicity_sweep(SweepConfig.from_json(path))

    def test_dict_override_merging(self, tmp_path):
        """A value is merged into the base and labelled by its JSON."""
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": ou_config(name="merge"),
                                    "values": variance_values(0.5)}))
        sweep = SweepConfig.from_json(path)
        (label, member), = sweep.members()
        assert label == '{"initial": {"variance": 0.5}}'
        assert member.initial == {"kind": "gaussian", "mean": 0.0, "variance": 0.5}
        rows = monotonicity_sweep(sweep)
        assert len(rows) == 1
        # variance 1/2 start: varentropy (1 - v)^2 / 2 = 1/8 at t = 0
        assert rows[0].varentropy_initial == pytest.approx(0.125, rel=1e-3)


    def test_dense_sweep_writes_the_reference_bytes(self, tmp_path, capsys):
        """The shipped sweep with ``base.time.n_samples`` 1201 (one sample
        per solver step) writes the golden CSV byte for byte."""
        data = json.loads((CONFIGS / "sweep_double_well.json").read_text())
        data["base"]["time"]["n_samples"] = 1201
        path = tmp_path / "sweep_dense.json"
        path.write_text(json.dumps(data, indent=1))
        assert main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == DENSE_SWEEP_GOLDEN.read_bytes()

    def test_dense_golden_matches_the_benchmark_reference(self):
        """The golden CSV and the benchmark's reference agree exactly on the
        fields the benchmark checks (``label``, ``sign_change``,
        ``time_of_max``) and on every numeric cell within 1e-10 relative.
        Each row is split from the right, as the labels hold commas."""
        def table(path):
            header, *lines = path.read_text().splitlines()
            names = header.split(",")
            return names, [dict(zip(names, line.rsplit(",", len(names) - 1))) for line in lines]

        names, golden = table(DENSE_SWEEP_GOLDEN)
        ref_names, reference = table(DENSE_SWEEP_REFERENCE)
        assert names == ref_names and len(golden) == len(reference) == 8
        for got, ref in zip(golden, reference):
            for name in ("label", "sign_change", "time_of_max"):
                assert got[name] == ref[name], (ref["label"], name)
            for name in ("min_rate", "max_rate", "varentropy_initial", "varentropy_final"):
                assert float(got[name]) == pytest.approx(float(ref[name]), rel=1e-10, abs=0.0)


def shipped_sweep(n_samples: int = 61, **fields) -> SweepConfig:
    """The shipped sweep with ``base.time.n_samples`` set and ``fields``
    replacing its top-level fields."""
    data = json.loads((CONFIGS / "sweep_double_well.json").read_text())
    data["base"]["time"]["n_samples"] = n_samples
    data.update(fields)
    return SweepConfig(data["base"], data["values"], base_dir=CONFIGS)


#: Three double-well drifts of the shipped sweep's grid, as sweep values.
DRIFT_VALUES = [{"drift": {"coeffs": coeffs}} for coeffs in (
    [0.0, 0.0, -0.5, 0.0, 0.25], [0.0, 0.0, -0.6, 0.0, 0.25], [0.0, 0.0, -0.4, 0.0, 0.3])]


def _inject_nans(monkeypatch, faults):
    """Make ``_Generator.run`` write a NaN into the state of start ``member``
    at output ``k`` of the first solve, for each ``(member, k)`` of
    ``faults``; the NaN stays in that start's later states."""
    real = _Generator.run
    calls = {}  # generator -> the number of its run calls

    def faulty(gen, values, dt, n_steps):
        out = real(gen, values, dt, n_steps)
        k = calls[gen] = calls.get(gen, 0) + 1
        if gen is next(iter(calls)):
            for member, at in faults:
                if k == at:
                    out[member, 200] = np.nan
        return out

    monkeypatch.setattr(_Generator, "run", faulty)


class TestGroupedSweep:
    """Sweep members that share a grid, drift, solver config and solve mesh
    are solved together, however many; their rows stream in chunks of
    one kernel block per member, and each member's report equals its solve
    alone followed by ``report``, bit for bit."""

    def _record(self, monkeypatch):
        """Record the width of every group solve, and whether each member's
        states equal a solve of the member alone, compared as they stream."""
        real = scenarios.solved_chunks
        widths, equal = [], []

        def chunks(starts, model, t_grid, cfg, rows):
            widths.append(len(starts))
            alone = [solve(p0, model, t_grid, cfg).values for p0 in starts]
            same = [True] * len(starts)
            for base, values in real(starts, model, t_grid, cfg, rows):
                same = [s and np.array_equal(chunk, solo[base:base + len(chunk)])
                        for s, chunk, solo in zip(same, values, alone)]
                yield base, values
            equal.extend(same)

        monkeypatch.setattr(scenarios, "solved_chunks", chunks)
        return widths, equal

    @pytest.mark.parametrize("sweep, widths", [
        (shipped_sweep(61), [8]),
        (shipped_sweep(1201), [8]),
        (shipped_sweep(61, values=DRIFT_VALUES), [1, 1, 1]),
        # one drift spelled in ints and in floats: equal (coeffs, sigma), one group
        (shipped_sweep(61, values=[{"drift": {"coeffs": [0, 0, -0.5, 0, 0.25]}},
                                   {"drift": {"coeffs": [0.0, 0.0, -0.5, 0.0, 0.25]}}]), [2]),
    ], ids=["shipped_61", "shipped_1201", "drift_coeffs", "drift_coeffs_int_and_float"])
    def test_member_rows_equal_solo_solves(self, monkeypatch, sweep, widths):
        seen_widths, equal = self._record(monkeypatch)
        rows = monotonicity_sweep(sweep)
        assert seen_widths == widths
        assert equal == [True] * len(rows) == [True] * len(sweep.values)

    @pytest.mark.parametrize("sweep, solves", [
        (shipped_sweep(61), 1),
        (shipped_sweep(61, values=DRIFT_VALUES), 3),
    ], ids=["one_group_of_8", "three_groups_of_1"])
    def test_one_fixed_point_solve_per_group(self, monkeypatch, sweep, solves):
        """The stationary fixed-point check depends on the grid, drift and
        solver alone: each group takes its one-step ``solve`` once, and each
        of its members reports that same check."""
        real = scenarios.solve
        calls = []

        def counting(p0, model, t_grid, cfg):
            calls.append(t_grid.tolist())
            return real(p0, model, t_grid, cfg)

        monkeypatch.setattr(scenarios, "solve", counting)
        real_run = scenarios.run_scenario
        checks = []

        def recording(cfg, out_dir=None, solved=None):
            result = real_run(cfg, out_dir, solved)
            checks.append(next(c for c in result.checks if c.name == "stationary_fixed_point"))
            return result

        monkeypatch.setattr(scenarios, "run_scenario", recording)
        monotonicity_sweep(sweep)
        assert calls == [[0.0, 1e-3]] * solves
        assert len(checks) == len(sweep.values) and all(check.passed for check in checks)
        assert len({id(check) for check in checks}) == solves

    def test_split_groups_give_the_sweep_rows_of_solo_runs(self):
        """The sweep's one group of 8 gives the rows, failed checks
        included, that each member's own run gives."""
        sweep = shipped_sweep(61)
        solo = [scenarios._sweep_row(label, run_scenario(cfg)) for label, cfg in sweep.members()]
        assert monotonicity_sweep(sweep) == solo

    @pytest.mark.parametrize("samples", [7, 61, 1201])
    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_streamed_group_equals_solo_solve_and_report(self, width, samples):
        """Each member's streamed report columns equal ``solve`` of the
        member alone followed by ``report``, byte for byte, whether the mesh
        fills no chunk (7), part of one (61) or ends in a partial one (1201
        = 18 * 65 + 31). The last member's narrow start has exact zero
        nodes."""
        members = [cfg for _, cfg in shipped_sweep(samples).members()]
        narrow = replace(members[0], initial={"kind": "gaussian", "mean": 1.0, "variance": 1e-4})
        assert np.count_nonzero(narrow.initial_density().values == 0.0) > 100
        cfgs = members[:width - 1] + [narrow]
        assert len(cfgs[0].mesh) == samples and narrow.mesh == cfgs[0].mesh
        streamed = scenarios._solve_streamed(cfgs)
        for cfg, got in zip(cfgs, streamed, strict=True):
            traj = solve(cfg.initial_density(), cfg.model, np.array(cfg.mesh), cfg.solver)
            want = report(traj, cfg.stationary_density(), cfg.model.sigma)
            for field in FunctionalReport.FIELDS:
                got_column, want_column = getattr(got.report, field), getattr(want, field)
                assert got_column.tobytes() == want_column.tobytes(), field
            assert got.kept == []

    def test_dense_sweep_holds_no_member_trajectory(self):
        """The 1201-sample sweep's traced peak stays below the rows of one
        member's trajectory, 1201 x 501 doubles: no trajectory is held."""
        sweep = shipped_sweep(1201)
        # a first sweep loads the solver's LAPACK wrapper, whose objects
        # would otherwise count towards the traced peak
        monotonicity_sweep(sweep)
        tracemalloc.start()
        try:
            monotonicity_sweep(sweep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1201 * 501 * 8, peak

    def test_solver_error_names_the_member(self, tmp_path, capsys, monkeypatch):
        """A NaN in the first member's first solved state fails its solve:
        exit 1, one line naming the member, and no table."""
        sweep = shipped_sweep(61)
        _inject_nans(monkeypatch, [(0, 1)])
        path = tmp_path / "faulty.json"
        path.write_text(json.dumps({"base": sweep.base, "values": sweep.values}))
        assert main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")]) == 1
        captured = capsys.readouterr()
        label = sweep.members()[0][0]
        assert re.fullmatch(
            rf"solver error: sweep member {re.escape(label)}: solve failed advancing to "
            r"t=0\.02: density has non-finite values\n",
            captured.err,
        )
        assert captured.out == ""
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("where", ["group_stream", "member_run"])
    def test_solver_error_names_a_later_member(self, monkeypatch, where):
        """A group solve whose third start's state turns non-finite, or the
        fixed-point solve of the third member's own group (a sweep of three
        drifts is three groups of one), names the third member."""
        if where == "group_stream":
            sweep = shipped_sweep(61)
            _inject_nans(monkeypatch, [(2, 25)])
            message = "solve failed advancing to t=0.5: density has non-finite values"
        else:
            sweep = shipped_sweep(61, values=DRIFT_VALUES)
            real = scenarios._stationary_fixed_point
            calls = []
            message = "solve failed advancing to t=0.001: density has non-finite values"

            def failing(model, solver, pbar):
                calls.append(model)
                if len(calls) == 3:
                    raise SolveError(message)
                return real(model, solver, pbar)
            monkeypatch.setattr(scenarios, "_stationary_fixed_point", failing)
        label = sweep.members()[2][0]
        with pytest.raises(RuntimeError,
                           match=f"^sweep member {re.escape(label)}: {re.escape(message)}$"):
            monotonicity_sweep(sweep)

    def test_solver_error_names_the_first_failing_member(self, monkeypatch):
        """The sixth member fails in the first chunk of 65 rows, the first
        member only in the third: the sweep names the first member, at its
        own first bad time, as ``solved_chunks`` names its first bad start."""
        sweep = shipped_sweep(201)
        _inject_nans(monkeypatch, [(5, 10), (0, 150)])
        label = sweep.members()[0][0]
        with pytest.raises(RuntimeError, match=(
                f"^sweep member {re.escape(label)}: solve failed advancing to t=0\\.9: "
                "density has non-finite values$")) as err:
            monotonicity_sweep(sweep)
        assert err.value.__cause__.start == 0


class TestConvergence:
    def test_observed_order_is_two(self):
        cfg = ScenarioConfig.from_dict(
            ou_config(
                grid={"lo": -8.0, "hi": 8.0, "n": 101},
                solver={"dt": 4e-3},
                time={"t_end": 1.0, "n_samples": 11},
            )
        )
        rows = list(convergence_study(cfg, levels=3))
        assert len(rows) == 3
        assert rows[0].observed_order is None
        for row in rows[1:]:
            assert 1.8 < row.observed_order < 2.2

    def test_two_levels_single_ratio(self):
        cfg = ScenarioConfig.from_dict(
            ou_config(grid={"lo": -8.0, "hi": 8.0, "n": 101},
                      solver={"dt": 4e-3}, time={"t_end": 0.5, "n_samples": 6})
        )
        rows = list(convergence_study(cfg, levels=2))
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
        rows = list(convergence_study(cfg, levels=2))
        assert len(rows) == 2
        for row in rows:
            assert row.max_abs_error < 1e-10

    def test_rows_stream_one_level_at_a_time(self, monkeypatch):
        """Level 0's row comes after its one solve stream, before level 1's."""
        calls = []
        real_stream = scenarios._solve_streamed

        def counting_stream(*args):
            calls.append(args)
            return real_stream(*args)

        monkeypatch.setattr(scenarios, "_solve_streamed", counting_stream)
        cfg = ScenarioConfig.from_dict(
            ou_config(grid={"lo": -8.0, "hi": 8.0, "n": 101},
                      solver={"dt": 4e-3}, time={"t_end": 0.5, "n_samples": 6})
        )
        rows = convergence_study(cfg, levels=2)
        assert calls == []
        assert next(rows).level == 0
        assert len(calls) == 1
        assert next(rows).level == 1
        assert len(calls) == 2
        assert [cfgs[0].grid.n for cfgs, *_ in calls] == [101, 201]

    def test_ou_benchmark_writes_the_golden_bytes(self, tmp_path, capsys):
        """Two levels of the shipped benchmark write the golden CSV byte
        for byte: each level solves the sample times of the config with the
        refined grid and step and no Monte Carlo block."""
        out = tmp_path / "converge.csv"
        assert main(["converge", str(CONFIGS / "ou_benchmark.json"), "--levels", "2",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == CONVERGE_GOLDEN.read_bytes()
        assert capsys.readouterr().out.splitlines()[1:3] == [
            "    0     801   1.00e-03    2.6958e-05       -",
            "    1    1601   5.00e-04    6.7427e-06   1.999",
        ]

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
        # a grid or a bin grid whose width overflows
        (lambda d: d["grid"].update(lo=-1e308, hi=1e308),
         "config.grid: invalid bounds: the width hi - lo of lo=-1e+308 and hi=1e+308 overflows"),
        (lambda d: d.update(mc={**d["mc"], "bin_span": 9e307}),
         "config.mc.bin_span: bin grid: invalid bounds: the width hi - lo"),
        # a count that no float64 array can have; tried only above
        # MAX_COUNT, which allocates nothing
        (lambda d: d["grid"].update(n=MAX_COUNT + 1), "config.grid.n: 1152921504606846976 is more"),
        # samples this far apart do not merge
        (lambda d: d["time"].update(t_end=1e10, n_samples=MAX_COUNT + 1),
         "config.time.n_samples: 1152921504606846976 is more"),
        (lambda d: d.update(mc={**d["mc"], "n_paths": 1e19}), "config.mc.n_paths: 1e+19 is more"),
        (lambda d: d.update(mc={**d["mc"], "bins": MAX_COUNT + 1}),
         "config.mc.bins: 1152921504606846976 is more"),
    ])
    def test_bad_field_exit_2(self, tmp_path, capsys, edit, field):
        """A bad field ends the run at parse time with one line on stderr
        that gives its path, before anything is solved or written."""
        data = ou_config(mc=SMALL_MC)
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {field}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""
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

    @pytest.mark.parametrize("command, document, message", [
        ("run", ou_config(outputs="out"), "config.outputs: unknown field"),
        ("sweep", {"base": ou_config(), "values": variance_values(0.25),
                   "outputs": "sweep.csv"}, "sweep.outputs: unknown field"),
        ("sweep", {"base": ou_config(outputs="out"), "values": variance_values(0.25)},
         "sweep.base.outputs: unknown field"),
    ], ids=["scenario", "sweep", "sweep_base"])
    def test_outputs_field_is_unknown_exit_2(self, tmp_path, capsys, command, document,
                                             message):
        """``--out`` is the one output location: a document that still
        names ``outputs`` is refused with one line, and nothing is written."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    @pytest.mark.parametrize("command, fields, message", [
        ("run", {"name": None}, "config.name: must be a string, got None"),
        # a sweep has no parameter field, whatever its value
        ("sweep", {"parameter": None}, "sweep.parameter: unknown field"),
        ("sweep", {"parameter": 3}, "sweep.parameter: unknown field"),
        ("sweep", {"base": ou_config(name=None)},
         'config.name: must be a string, got None (sweep.values[0] = {"initial": '
         '{"variance": 0.25}})'),
    ], ids=["run_name", "sweep_parameter_null", "sweep_parameter_int", "sweep_base_name"])
    def test_non_string_name_or_parameter_exit_2(self, tmp_path, capsys, command, fields,
                                                 message):
        """A name that is not a string, or a sweep parameter, is refused at
        parse time with its field path, before anything runs or is written."""
        if command == "run":
            data = ou_config(**fields)
        else:
            data = {"base": ou_config(name="sweep_name"), "values": variance_values(0.25),
                    **fields}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name, text, message", [
        ("run", "nope.json", None, "config: cannot read {d}/nope.json: No such file or directory"),
        ("run", "cut.json", '{"name": ',
         "config: {d}/cut.json is not JSON: Expecting value: line 1 column 10 (char 9)"),
        ("sweep", "nope.json", None, "sweep: cannot read {d}/nope.json: No such file or directory"),
    ], ids=["missing", "truncated", "missing_sweep"])
    def test_unreadable_config_file_exit_2(self, tmp_path, capsys, command, name, text, message):
        """A config file that cannot be read or parsed is a config error
        naming the file and the field, not a traceback."""
        if text is not None:
            (tmp_path / name).write_text(text)
        assert main([command, str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message.format(d=tmp_path)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("data, levels, message", [
        (ou_config(), "1", "--levels: need at least 2 levels, got 1"),
        (ou_config(drift={"kind": "linear", "rate": -1.0}), "2",
         "config: the convergence study requires the exactly solvable benchmark"),
        (json.loads((CONFIGS / "ou_benchmark.json").read_text()), "8",
         "--levels: level 7 of 8: 6.18e+07 substeps of 102401 nodes, as short as 4.85e-08, "
         "make 6.33e+12 node-substeps, more than the 1e+12 a solve may take\n"),
    ], ids=["one_level", "not_the_benchmark", "ou_benchmark_8_levels"])
    def test_converge_refusal_exit_2(self, tmp_path, capsys, monkeypatch, data, levels, message):
        """Refused with one stderr line before any solve: ``converge
        ou_benchmark --levels 8`` would need 6.3e12 node-substeps at its
        last level, about a day."""
        monkeypatch.setattr(scenarios, "solve", None)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["converge", str(path), "--levels", levels]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("argv, argument", [
        (["--sigma0-sq", "-1", "--t-end", "3"], "--sigma0-sq"),
        (["--sigma0-sq", "0.25", "--t-end", "-1"], "--t-end"),
        (["--sigma0-sq", "0.25", "--t-end", "3", "--samples", "0"], "--samples"),
    ])
    def test_oracle_bad_argument_exit_2(self, capsys, argv, argument):
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", *argv])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {argument}: must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("out", ["{d}"], ids=["out_directory"])
    def test_sweep_output_directory_exit_2(self, tmp_path, capsys, monkeypatch, out):
        """Refused before the first member runs, not after the last."""
        monkeypatch.setattr(scenarios, "solve", None)
        sweep = {"base": ou_config(name="dir_sweep"), "values": variance_values(0.5)}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        assert main(["sweep", str(path), "--out", out.format(d=tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --out: '{tmp_path}' is a directory, not a file\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command, existing, out, message", [
        ("run", "file", "{d}/taken", "'{d}/taken' is not a directory"),
        ("converge", "directory", "{d}/taken", "'{d}/taken' is a directory, not a file"),
        ("run", "file", "{d}/taken/run",
         "'{d}/taken/run' lies below '{d}/taken', which is not a directory"),
        ("converge", "file", "{d}/taken/conv.csv",
         "'{d}/taken/conv.csv' lies below '{d}/taken', which is not a directory"),
        # a name longer than a file system takes cannot even be checked
        ("run", "file", "{d}/" + "x" * 300, "'{d}/" + "x" * 300 + "': File name too long"),
        ("converge", "file", "{d}/" + "x" * 300 + ".csv",
         "'{d}/" + "x" * 300 + ".csv': File name too long"),
    ], ids=["run_out_file", "converge_out_directory", "run_out_below_file",
            "converge_out_below_file", "run_out_name_too_long", "converge_out_name_too_long"])
    def test_output_path_refused_exit_2(self, tmp_path, capsys, monkeypatch, command,
                                        existing, out, message):
        """An output path the final write would fail on, or one that cannot
        be checked, is refused before any solve, not after the last one."""
        monkeypatch.setattr(scenarios, "solve", None)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ou_config()))
        if existing == "file":
            (tmp_path / "taken").write_text("")
        else:
            (tmp_path / "taken").mkdir()
        argv = [command, str(path), "--out", out.format(d=tmp_path)]
        assert main(argv + (["--levels", "2"] if command == "converge" else [])) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --out: {message.format(d=tmp_path)}\n"
        assert captured.out == ""

    def test_bad_late_sweep_member_exit_2(self, tmp_path, capsys, monkeypatch):
        """Every member is parsed before the first one is solved, and the
        error names the bad member's index and value."""
        monkeypatch.setattr(scenarios, "solve", None)
        sweep = {"base": ou_config(name="late_sweep"), "values": variance_values(0.25, 0.5, -1.0)}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        assert main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: config.initial: variance must be positive, "
                                'got -1.0 (sweep.values[2] = {"initial": {"variance": -1.0}})\n')
        assert captured.out == ""
        assert not (tmp_path / "sweep.csv").exists()

    def test_tolerances_mass_tol_exit_2(self, tmp_path, capsys):
        """A config has no tolerances block, so none can loosen the checks."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ou_config(tolerances={"mass_tol": 1e-10})))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "config error: config.tolerances: unknown field\n"

    def test_failed_solve_exit_1(self, tmp_path, capsys, monkeypatch):
        """A solve whose mass drifts past ``MASS_TOL``, 1e-10, fails: the run
        ends with one line giving the solver's message, no traceback."""
        assert MASS_TOL == 1e-10
        real = _Generator.run

        def drifting(gen, values, dt, n_steps):
            return real(gen, values, dt, n_steps) * (1.0 + 1e-9)

        monkeypatch.setattr(_Generator, "run", drifting)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ou_config()))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"solver error: solve failed advancing to t=0\.025: "
            r"density mass \S+ outside 1 \+/- 1e-10\n",
            captured.err,
        )
        assert "[PASS]" not in captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, code, message", [
        ("sigma", 1e-160, 2, "config error: config.drift: stationary density out of float "
                             "range: overflow encountered in divide"),
        ("sigma", 1e200, 2, "config error: config.drift: stationary density out of float range"),
        ("rate", -1e308, 2, "config error: config.drift: stationary density out of float "
                            "range: overflow encountered in multiply"),
        ("rate", -1e300, 2, "config error: config.solver: 1.2e+303 substeps of 801 nodes, as "
                            "short as 2.5e-303, make 9.6e+305 node-substeps, more than the "
                            "1e+12 a solve may take\n"),
    ], ids=["sigma_1e-160", "sigma_1e200", "rate_-1e308", "rate_-1e300"])
    def test_drift_out_of_float_range_is_one_line(self, tmp_path, capsys, field, value, code,
                                                  message):
        """A drift whose stationary density over- or underflows is refused at
        parse time, and so is one whose solve would take more node-substeps
        than a solve may, each with one line on stderr, no traceback and no
        warning."""
        with open(CONFIGS / "ou_benchmark.json") as fh:
            data = json.load(fh)
        del data["mc"]
        data["drift"][field] = value
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
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
        sweep = {"base": ou_config(name="cli_sweep"), "values": variance_values(0.25, 0.5)}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        code = main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("label,min_rate,max_rate,sign_change")
        assert len(lines) == 3

    def test_sweep_table_columns_line_up(self, tmp_path, capsys):
        """The label column is as wide as the longest label, here wider
        than 42 characters, so the header's columns start where every
        row's do."""
        base = ou_config(grid={"lo": -8.0, "hi": 8.0, "n": 101}, solver={"dt": 4e-3},
                         time={"t_end": 0.2, "n_samples": 6})
        values = [{"initial": {"mean": 0.0, "variance": 0.25}}, {"initial": {"variance": 0.5}}]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": base, "values": values}))
        assert main(["sweep", str(path)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        labels = [json.dumps(value, sort_keys=True) for value in values]
        width = max(map(len, labels)) + 1
        assert width > 43 and len(rows) == 2
        assert header[:width] == "label".ljust(width)
        for row, label in zip(rows, labels):
            assert row[:width] == label.ljust(width)
            assert len(row) == len(header)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_failed_write_is_one_line(self, tmp_path, capsys, monkeypatch, command):
        """An output that cannot be written, on a full disk say, ends the
        command with one line on stderr and exit 1, not a traceback."""
        def full(path, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(scenarios, "_write_atomic", full)
        cfg = ou_config()
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(
            cfg if command == "run" else {"base": cfg, "values": variance_values(0.5)}))
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 1
        target = out / "functionals.csv" if command == "run" else out
        assert capsys.readouterr().err == (
            f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{target}'\n")

    def test_sweep_of_a_base_file_with_a_table_start(self, tmp_path, capsys, monkeypatch):
        """The base's table resolves beside the sweep file, not in the
        working directory, as ``run`` of the same scenario beside it reads
        it."""
        (tmp_path / "sub").mkdir()
        np.savetxt(tmp_path / "sub" / "p0.txt", np.exp(-np.linspace(-8, 8, 801) ** 2 / 0.5))
        base = ou_config(name="table_base", initial={"kind": "table", "path": "p0.txt"})
        (tmp_path / "sub" / "base.json").write_text(json.dumps(base))
        (tmp_path / "sub" / "sweep.json").write_text(
            json.dumps({"base": base, "values": [{"solver": {"dt": 2e-3}}]}))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "sub/base.json", "--out", "run"]) == 0
        assert main(["sweep", "sub/sweep.json", "--out", "sweep.csv"]) == 0
        assert capsys.readouterr().err == ""
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("fields, message", [
        ({"parameter": "x"}, "sweep.parameter: unknown field"),
        ({"base": "base.json"}, "sweep.base: must be an object, got 'base.json'"),
        ({"values": [0.5]}, "sweep.values[0]: must be an object, got 0.5"),
        ({"base": ou_config(mc=SMALL_MC)}, "sweep.base.mc: unknown field"),
    ], ids=["parameter", "base_file", "scalar_value", "base_mc"])
    def test_removed_sweep_form_exit_2(self, tmp_path, capsys, monkeypatch, fields, message):
        """A sweep is an inline base without ``mc`` and a list of objects
        merged into it; a dotted parameter, a base file (one that exists
        here), a value that is not an object and a base Monte Carlo block
        are each refused with one line before any solve."""
        monkeypatch.setattr(scenarios, "solve", None)
        (tmp_path / "base.json").write_text(json.dumps(ou_config()))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": ou_config(), "values": variance_values(0.5),
                                    **fields}))
        assert main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == "" and not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("edit, message, index", [
        (lambda s: s.update(values=[{"drift": {"sigma": 1.0}}, {"mc": SMALL_MC}]),
         "sweep.values: a member may not set 'mc'", 1),
        (lambda s: s.update(values=[{"outputs": "x"}]), "config.outputs: unknown field", 0),
        (lambda s: s.update(values=[{"mc": {"seed": 1}}, {"mc": {"seed": 2}}]),
         "sweep.values: a member may not set 'mc'", 0),
    ], ids=["mc_block", "outputs", "mc_seed_parameter"])
    def test_sweep_value_setting_mc_or_outputs_exit_2(self, tmp_path, capsys, edit, message,
                                                      index):
        """Members run grid-only, so a value that would set their Monte
        Carlo block is refused before any member runs, naming the value; a
        value that sets ``outputs`` names a field no config has."""
        with open(CONFIGS / "sweep_double_well.json") as fh:
            sweep = json.load(fh)
        edit(sweep)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        assert main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {message}")
        assert f"(sweep.values[{index}] = " in captured.err and captured.err.count("\n") == 1
        assert captured.out == "" and not (tmp_path / "sweep.csv").exists()

    def test_sweep_reports_failed_member_checks(self, tmp_path, capsys):
        """Failed member checks go to stderr, one line per member; the exit
        code stays 0 and the table and CSV keep their shape. Five samples
        on a coarse grid miss the rate consistency bound in both members."""
        base = ou_config(
            name="coarse",
            grid={"lo": -8.0, "hi": 8.0, "n": 101},
            solver={"dt": 4e-3},
            time={"t_end": 0.2, "n_samples": 6},
        )
        sweep = {"base": base, "values": variance_values(0.25, 0.5)}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        code = main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.err.splitlines()
        assert len(lines) == 2
        for line, label in zip(lines, ('{"initial": {"variance": 0.25}}',
                                       '{"initial": {"variance": 0.5}}')):
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

    def test_steep_drift_refused_at_parse(self, tmp_path):
        """``ou_benchmark`` with drift rate -1e10 and no Monte Carlo block
        would take 1.2e13 substeps of 2.5e-13, 9.6e15 node-substeps, which
        would step for days: it is refused when parsed, with exit 2 and one
        stderr line, well within the subprocess timeout."""
        data = json.loads((CONFIGS / "ou_benchmark.json").read_text())
        del data["mc"]
        data["drift"]["rate"] = -1e10
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "varentropy_lab", "run", str(path), "--out",
             str(tmp_path / "out")], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == (
            "config error: config.solver: 1.2e+13 substeps of 801 nodes, as short as 2.5e-13, "
            "make 9.6e+15 node-substeps, more than the 1e+12 a solve may take\n")
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    def test_steep_sweep_member_named(self, tmp_path, capsys, monkeypatch):
        """A sweep member whose solve would be too long is refused before
        any member runs, by its index and value."""
        monkeypatch.setattr(scenarios, "solved_chunks", None)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": ou_config(), "values": [
            {"drift": {"rate": -0.5}}, {"drift": {"rate": -1e10}}]}))
        assert main(["sweep", str(path)]) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"config error: config\.solver: \S+ substeps of 801 nodes, .* more "
                            r"than the 1e\+12 a solve may take \(sweep\.values\[1\] = "
                            r'\{"drift": \{"rate": -10000000000\.0\}\}\)\n', captured.err)
        assert captured.out == ""

    def test_unallocatable_ensemble_is_one_line(self, tmp_path):
        """A Monte Carlo block of 1e13 paths, whose first path array would
        take 72.8 TiB, ends after the grid solve with one stderr line and
        exit 1, not a traceback. The child's address space is capped at
        32 GiB, so the allocation fails whatever the system's overcommit
        policy, and nothing of that size is ever touched."""
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (32 << 30, 32 << 30))

        path = tmp_path / "huge.json"
        path.write_text(json.dumps(ou_config(mc={**MEDIUM_MC, "n_paths": 1e13})))
        proc = subprocess.run(
            [sys.executable, "-m", "varentropy_lab", "run", str(path), "--out",
             str(tmp_path / "out")], capture_output=True, text=True, timeout=120,
            preexec_fn=cap)
        assert proc.returncode == 1
        assert proc.stderr.startswith("memory error: Unable to allocate 72.8 TiB")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    def test_parsing_loads_no_lapack(self):
        """Parsing checks the length of every solve, a shipped one or one
        refused as too long, without loading the solver's LAPACK."""
        data = json.loads((CONFIGS / "ou_benchmark.json").read_text())
        data["drift"]["rate"] = -1e10
        code = (
            "from varentropy_lab import ConfigError, ScenarioConfig\n"
            "from varentropy_lab.fokker_planck import _lapack_routines\n"
            "for name in ('ou_benchmark', 'double_well_relax'):\n"
            f"    ScenarioConfig.from_json({str(CONFIGS)!r} + '/' + name + '.json')\n"
            "try:\n"
            f"    ScenarioConfig.from_dict({data!r})\n"
            "except ConfigError as err:\n"
            "    print(str(err).split(':')[0])\n"
            "print(_lapack_routines.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["config.solver", "0"]

    def test_parsing_does_not_import_scipy_linalg(self):
        """LAPACK is loaded on the first factored time step, so the CLI,
        config parsing and config errors do without scipy.linalg."""
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

    def test_runs_do_not_import_scipy_linalg(self, tmp_path):
        """A run, a sweep and a convergence study, one after another in one
        interpreter, leave scipy.linalg unimported; where numpy's bundled
        OpenBLAS has the solver's LAPACK routines, they leave scipy itself
        unimported too."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(ou_config(
            grid={"lo": -8.0, "hi": 8.0, "n": 201},
            solver={"dt": 4e-3},
            time={"t_end": 0.5, "n_samples": 6},
            mc=MEDIUM_MC,
        )))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "base": ou_config(grid={"lo": -8.0, "hi": 8.0, "n": 101}, solver={"dt": 4e-3},
                              time={"t_end": 0.2, "n_samples": 6}),
            "values": variance_values(0.25, 0.5),
        }))
        argvs = [
            ["run", str(cfg), "--out", str(tmp_path / "run")],
            ["sweep", str(sweep), "--out", str(tmp_path / "sweep.csv")],
            ["converge", str(cfg), "--levels", "2", "--out", str(tmp_path / "conv.csv")],
        ]
        code = (
            "import sys\n"
            "from varentropy_lab.cli import main\n"
            "from varentropy_lab.fokker_planck import _openblas_addresses\n"
            f"codes = [main(argv) for argv in {argvs!r}]\n"
            "print(codes, 'scipy.linalg' in sys.modules, 'scipy' in sys.modules,\n"
            "      _openblas_addresses() is not None)\n"
        )
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # the run's exit code says only whether its checks passed at this size
        codes, linalg, scipy, openblas = proc.stdout.splitlines()[-1].rsplit(" ", 3)
        assert re.fullmatch(r"\[[01], 0, 0\]", codes)
        assert linalg == "False"
        if openblas == "True":
            assert scipy == "False"
        assert (tmp_path / "run" / "mc_diagnostics.csv").exists()

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "varentropy_lab", "oracle",
             "--sigma0-sq", "0.25", "--t-end", "0.5", "--samples", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "variance" in proc.stdout
