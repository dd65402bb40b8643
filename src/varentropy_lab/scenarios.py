"""Declarative experiment runner.

A scenario is a single JSON document naming a drift model, an initial
density, grids and tolerances; running it produces CSV reports and a list of
pass/fail tolerance checks. Sweeps rerun a base scenario across a list of
parameter overrides and tabulate the sign behaviour of the varentropy rate.
The convergence study reruns the exactly solvable benchmark on a ladder of
refined meshes and reports observed orders.

Runs are deterministic end to end (Monte Carlo included, via seeds): a
scenario run twice produces byte-identical CSV files. Output files are
written atomically. Scenarios within a sweep are independent and could be
dispatched concurrently; this implementation runs them in sequence.
"""

from __future__ import annotations

import copy
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .drifts import (
    GradientDrift,
    QuarticPotential,
    backward_drift_on_grid,
    invariant_density,
    linear_drift,
)
from .fokker_planck import SolverConfig, solve, step
from .functionals import (
    FunctionalReport,
    relative_entropy,
    report,
    varentropy,
    varentropy_rate,
)
from .grids import (
    Density,
    Grid,
    gaussian_mass_outside,
    gaussian_density,
    integrate,
    make_uniform_grid,
    mixture_density,
    normalized_density,
)
from .monte_carlo import (
    duality_residual,
    estimate_backward_drift,
    martingale_diagnostic,
    mc_functionals,
    simulate_ensemble,
)
from .ou_exact import OUBenchmark

#: Environment variable overriding the output root directory.
OUTPUT_ROOT_ENV = "VARENTROPY_LAB_OUTPUT_ROOT"

#: Mass allowed outside the grid for initial and stationary densities.
GRID_MASS_TOL = 1e-10


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending field path."""


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _integer(value, path: str) -> int:
    """An integer config field; an integral float such as ``1e5`` counts."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{path}: must be an integer, got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    """Tolerance knobs checked by the runner; defaults match the test suite."""

    mass_tol: float = 1e-10
    fixed_point_sup: float = 1e-8
    oracle_rel: float = 1e-3
    varentropy_rate_rel: float = 0.01
    entropy_rate_rel: float = 0.01
    rate_floor: float = 1e-6
    mc_sigmas: float = 3.0

    @classmethod
    def from_dict(cls, data: dict, path: str) -> "Tolerances":
        known = {f for f in cls.__dataclass_fields__}
        for key in data:
            if key not in known:
                raise ConfigError(f"{path}.{key}: unknown tolerance")
        return cls(**{k: float(v) for k, v in data.items()})


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo block: one ensemble stored at a coarse stride feeds the
    functional estimates, a second short densely stored ensemble feeds the
    backward-drift and martingale diagnostics (whose statistics need
    consecutive fine steps)."""

    n_paths: int
    dt: float
    seed: int
    t_end: float
    store_every: int = 1
    diag_steps: int = 50
    bins: int = 31
    bin_span: float = 4.0  # bins cover [-span, span] around the state-space origin

    @classmethod
    def from_dict(cls, data: dict, path: str, horizon: float) -> "McConfig":
        n_paths = _integer(_require(data, "n_paths", path), f"{path}.n_paths")
        dt = float(_require(data, "dt", path))
        seed = _integer(_require(data, "seed", path), f"{path}.seed")
        t_end = float(data.get("t_end", min(1.0, horizon)))
        store_every = _integer(data.get("store_every", 1), f"{path}.store_every")
        diag_steps = _integer(data.get("diag_steps", 50), f"{path}.diag_steps")
        bins = _integer(data.get("bins", 31), f"{path}.bins")
        bin_span = float(data.get("bin_span", 4.0))
        if n_paths < 1:
            raise ConfigError(f"{path}.n_paths: must be >= 1")
        if not 0 < dt < math.inf:
            raise ConfigError(f"{path}.dt: must be positive and finite")
        if not 0 < t_end <= horizon + 1e-12:
            raise ConfigError(f"{path}.t_end: must lie in (0, t_end of the run]")
        # the same step count test simulate_ensemble applies, made at parse time
        n_steps = round(t_end / dt)
        if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
            raise ConfigError(f"{path}.t_end: must be a multiple of {path}.dt = {dt:g}")
        if store_every < 1 or n_steps % store_every:
            raise ConfigError(
                f"{path}.store_every: must divide the {n_steps} steps of t_end / dt"
            )
        if diag_steps < 2:
            raise ConfigError(f"{path}.diag_steps: need at least 2 steps")
        if bins < 3:
            raise ConfigError(f"{path}.bins: need at least 3 bin edges")
        if not 0 < bin_span < math.inf:
            raise ConfigError(f"{path}.bin_span: must be positive and finite")
        return cls(n_paths, dt, seed, t_end, store_every, diag_steps, bins, bin_span)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; see ``configs/`` for examples."""

    name: str
    model: GradientDrift
    initial: dict
    grid: Grid
    solver: SolverConfig
    t_end: float
    n_samples: int
    mc: Optional[McConfig]
    tolerances: Tolerances
    outputs: Optional[str]
    base_dir: Path = field(default_factory=Path)

    # -- parsing ---------------------------------------------------------

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_dict(data, base_dir=path.parent)

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | Path = ".") -> "ScenarioConfig":
        name = str(_require(data, "name", "config"))
        model = _parse_drift(_require(data, "drift", "config"))
        grid_spec = _require(data, "grid", "config")
        lo = float(_require(grid_spec, "lo", "config.grid"))
        hi = float(_require(grid_spec, "hi", "config.grid"))
        n = _integer(_require(grid_spec, "n", "config.grid"), "config.grid.n")
        try:
            grid = make_uniform_grid(lo, hi, n)
        except ValueError as err:
            raise ConfigError(f"config.grid: {err}") from err
        solver_spec = dict(_require(data, "solver", "config"))
        try:
            solver = SolverConfig(
                dt=float(_require(solver_spec, "dt", "config.solver")),
                scheme=solver_spec.get("scheme", "chang_cooper"),
                theta=float(solver_spec.get("theta", 0.5)),
                mass_tol=float(solver_spec.get("mass_tol", 1e-10)),
            )
        except ValueError as err:
            raise ConfigError(f"config.solver: {err}") from err
        time_spec = _require(data, "time", "config")
        t_end = float(_require(time_spec, "t_end", "config.time"))
        n_samples = _integer(
            _require(time_spec, "n_samples", "config.time"), "config.time.n_samples"
        )
        if not 0 < t_end < math.inf:
            raise ConfigError("config.time.t_end: must be positive and finite")
        if n_samples < 3:
            raise ConfigError("config.time.n_samples: need at least 3 samples")
        initial = dict(_require(data, "initial", "config"))
        mc = None
        if data.get("mc") is not None:
            mc = McConfig.from_dict(dict(data["mc"]), "config.mc", horizon=t_end)
        tolerances = Tolerances.from_dict(dict(data.get("tolerances", {})), "config.tolerances")
        cfg = cls(
            name=name,
            model=model,
            initial=initial,
            grid=grid,
            solver=solver,
            t_end=t_end,
            n_samples=n_samples,
            mc=mc,
            tolerances=tolerances,
            outputs=data.get("outputs"),
            base_dir=Path(base_dir),
        )
        cfg.validate()
        return cfg

    # -- derived objects -------------------------------------------------

    def time_samples(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_samples)

    def initial_density(self) -> Density:
        kind = self.initial.get("kind")
        if kind == "gaussian":
            mean = float(_require(self.initial, "mean", "config.initial"))
            variance = float(_require(self.initial, "variance", "config.initial"))
            try:
                return gaussian_density(self.grid, mean, variance)
            except ValueError as err:
                raise ConfigError(f"config.initial: {err}") from err
        if kind == "mixture":
            comps = [
                (float(c["weight"]), float(c["mean"]), float(c["variance"]))
                for c in _require(self.initial, "components", "config.initial")
            ]
            try:
                return mixture_density(self.grid, comps)
            except ValueError as err:
                raise ConfigError(f"config.initial.components: {err}") from err
        if kind == "table":
            path = self.base_dir / str(_require(self.initial, "path", "config.initial"))
            values = np.loadtxt(path, dtype=float)
            if values.ndim != 1 or len(values) != self.grid.n:
                raise ConfigError(
                    f"config.initial.path: table must hold {self.grid.n} values"
                )
            try:
                return normalized_density(self.grid, values)
            except ValueError as err:
                raise ConfigError(f"config.initial.path: {err}") from err
        raise ConfigError(f"config.initial.kind: unknown kind {kind!r}")

    def stationary_density(self) -> Density:
        return invariant_density(self.model, self.grid)

    def is_ou_benchmark(self) -> bool:
        """True when the exact benchmark closed forms apply to this scenario."""
        return (
            self.model == linear_drift(OUBenchmark.DRIFT_RATE, OUBenchmark.SIGMA)
            and self.initial.get("kind") == "gaussian"
            and float(self.initial.get("mean", 0.0)) == 0.0
        )

    # -- validation ------------------------------------------------------

    def validate(self):
        self.initial_density()  # surfaces bad component specs and tables early
        self._check_mass_outside_initial()
        self._check_mass_outside_stationary()

    def _check_mass_outside_initial(self):
        kind = self.initial.get("kind")
        lo, hi = self.grid.lo, self.grid.hi
        if kind == "gaussian":
            outside = gaussian_mass_outside(
                lo, hi, float(self.initial["mean"]), float(self.initial["variance"])
            )
        elif kind == "mixture":
            outside = sum(
                float(c["weight"])
                * gaussian_mass_outside(lo, hi, float(c["mean"]), float(c["variance"]))
                for c in _require(self.initial, "components", "config.initial")
            )
        elif kind == "table":
            values = self.initial_density().values
            outside = float(max(values[0], values[-1]) / values.max())
        else:
            raise ConfigError(f"config.initial.kind: unknown kind {kind!r}")
        if outside > GRID_MASS_TOL:
            raise ConfigError(
                f"config.grid: initial density mass outside the grid is "
                f"{outside:.3e} > {GRID_MASS_TOL:g}; widen [lo, hi]"
            )

    def _check_mass_outside_stationary(self):
        model = self.model
        lo, hi = self.grid.lo, self.grid.hi
        if not model.confining:
            raise ConfigError("config.drift: potential must be confining")
        width = hi - lo
        wide = make_uniform_grid(lo - 0.5 * width, hi + 0.5 * width, 2 * self.grid.n)
        log_values = -2.0 * model.potential(wide.x) / model.sigma**2
        values = np.exp(log_values - log_values.max())
        total = integrate(values, wide)
        inside = np.where((wide.x >= lo) & (wide.x <= hi), values, 0.0)
        outside = 1.0 - integrate(inside, wide) / total
        if outside > GRID_MASS_TOL:
            raise ConfigError(
                f"config.grid: stationary density mass outside the grid is "
                f"{outside:.3e} > {GRID_MASS_TOL:g}; widen [lo, hi]"
            )


def _parse_drift(data: dict) -> GradientDrift:
    kind = data.get("kind")
    sigma = float(data.get("sigma", 1.0))
    try:
        if kind == "linear":
            rate = float(_require(data, "rate", "config.drift"))
            if not rate < 0.0:
                raise ConfigError("config.drift.rate: linear drift must have rate < 0")
            return linear_drift(rate, sigma)
        if kind == "gradient":
            coeffs = _require(data, "coeffs", "config.drift")
            if len(coeffs) != 5:
                raise ConfigError("config.drift.coeffs: expected 5 coefficients c0..c4")
            return GradientDrift(QuarticPotential(tuple(float(c) for c in coeffs)), sigma=sigma)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"config.drift: {err}") from err
    raise ConfigError(f"config.drift.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# run results and checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class ScenarioResult:
    name: str
    out_dir: Optional[Path]
    checks: list[Check]
    reports: list[FunctionalReport]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def resolve_output_dir(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> Optional[Path]:
    """Output directory: explicit argument, then env root override, then config."""
    if out_dir is not None:
        return Path(out_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / cfg.name
    if cfg.outputs is not None:
        return cfg.base_dir / cfg.outputs
    return None


# ---------------------------------------------------------------------------
# scenario run
# ---------------------------------------------------------------------------


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> ScenarioResult:
    """Solve the scenario, evaluate every configured check, write reports.

    Writes ``functionals.csv`` (one row per sample time), ``consistency.csv``
    (closed-form rates against trajectory finite differences at interior
    times), ``checks.csv``, and ``mc_diagnostics.csv`` when a Monte Carlo
    block is configured. Returns the in-memory result; ``exit_code`` is zero
    only if every check passed.
    """
    tol = cfg.tolerances
    p0 = cfg.initial_density()
    pbar = cfg.stationary_density()
    t_samples = cfg.time_samples()
    traj = solve(p0, cfg.model, t_samples, cfg.solver)
    rows = report(traj, pbar, cfg.model.sigma)

    checks: list[Check] = []

    # solver hygiene
    worst_mass = max(abs(state.mass() - 1.0) for state in traj.states)
    checks.append(
        Check("mass_conservation", worst_mass <= tol.mass_tol,
              f"max |mass-1| = {worst_mass:.3e} (tol {tol.mass_tol:g})")
    )
    min_value = min(float(state.values.min()) for state in traj.states)
    positive = min_value >= 0.0
    checks.append(Check("positivity", positive, f"min node value = {min_value:.3e}"))
    fixed = step(pbar, cfg.model, cfg.solver)
    fixed_err = float(np.max(np.abs(fixed.values - pbar.values)))
    checks.append(
        Check("stationary_fixed_point", fixed_err <= tol.fixed_point_sup,
              f"sup |step(pbar) - pbar| = {fixed_err:.3e} (tol {tol.fixed_point_sup:g})")
    )

    # rate consistency against trajectory finite differences
    worst_v = worst_d = 0.0
    for row in rows[1:-1]:
        rel_v = abs(row.varentropy_rate - row.varentropy_rate_fd) / max(
            abs(row.varentropy_rate_fd), tol.rate_floor
        )
        worst_v = max(worst_v, rel_v)
    entropy_fd = {}
    for k in range(1, len(rows) - 1):
        fd_d = (rows[k + 1].relative_entropy - rows[k - 1].relative_entropy) / (
            rows[k + 1].time - rows[k - 1].time
        )
        entropy_fd[k] = fd_d
        rel_d = abs(rows[k].entropy_rate - fd_d) / max(abs(fd_d), tol.rate_floor)
        worst_d = max(worst_d, rel_d)
    checks.append(
        Check("varentropy_rate_consistency", worst_v <= tol.varentropy_rate_rel,
              f"max rel err = {worst_v:.3e} (tol {tol.varentropy_rate_rel:g})")
    )
    checks.append(
        Check("entropy_rate_consistency", worst_d <= tol.entropy_rate_rel,
              f"max rel err = {worst_d:.3e} (tol {tol.entropy_rate_rel:g})")
    )
    max_entropy_rate = max(row.entropy_rate for row in rows)
    checks.append(
        Check("entropy_rate_nonpositive", max_entropy_rate <= 0.0,
              f"max entropy rate = {max_entropy_rate:.3e}")
    )

    # exact-benchmark comparison, when the closed forms apply
    if cfg.is_ou_benchmark():
        bench = OUBenchmark(float(cfg.initial["variance"]))
        worst_vo = worst_ro = 0.0
        for row in rows:
            v_ref = bench.varentropy(row.time)
            r_ref = bench.varentropy_rate(row.time)
            worst_vo = max(worst_vo, abs(row.varentropy - v_ref) / max(v_ref, 1e-12))
            worst_ro = max(worst_ro, abs(row.varentropy_rate - r_ref) / max(abs(r_ref), 1e-12))
        checks.append(
            Check("varentropy_vs_exact", worst_vo <= tol.oracle_rel,
                  f"max rel err = {worst_vo:.3e} (tol {tol.oracle_rel:g})")
        )
        checks.append(
            Check("varentropy_rate_vs_exact", worst_ro <= tol.oracle_rel,
                  f"max rel err = {worst_ro:.3e} (tol {tol.oracle_rel:g})")
        )

    mc_rows = []
    if cfg.mc is not None:
        mc_rows = _run_mc_diagnostics(cfg, p0, pbar, checks)

    target = resolve_output_dir(cfg, out_dir)
    if target is not None:
        _write_csv(
            target / "functionals.csv",
            FunctionalReport.CSV_FIELDS,
            (
                [getattr(r, f) for f in FunctionalReport.CSV_FIELDS]
                for r in rows
            ),
        )
        _write_csv(
            target / "consistency.csv",
            (
                "time",
                "varentropy_rate",
                "varentropy_rate_fd",
                "abs_diff_varentropy_rate",
                "entropy_rate",
                "entropy_rate_fd",
                "abs_diff_entropy_rate",
            ),
            (
                (
                    rows[k].time,
                    rows[k].varentropy_rate,
                    rows[k].varentropy_rate_fd,
                    abs(rows[k].varentropy_rate - rows[k].varentropy_rate_fd),
                    rows[k].entropy_rate,
                    entropy_fd[k],
                    abs(rows[k].entropy_rate - entropy_fd[k]),
                )
                for k in range(1, len(rows) - 1)
            ),
        )
        _write_csv(
            target / "checks.csv",
            ("check", "passed", "detail"),
            ((c.name, c.passed, c.detail) for c in checks),
        )
        if mc_rows:
            _write_csv(
                target / "mc_diagnostics.csv",
                ("diagnostic", "time", "bin_center", "count", "value", "std_error", "reference"),
                mc_rows,
            )

    return ScenarioResult(cfg.name, target, checks, rows)


def _run_mc_diagnostics(
    cfg: ScenarioConfig, p0: Density, pbar: Density, checks: list[Check]
) -> list[tuple]:
    """Run the configured ensembles and append the Monte Carlo checks."""
    mc = cfg.mc
    tol = cfg.tolerances
    bins = make_uniform_grid(-mc.bin_span, mc.bin_span, mc.bins)
    rows: list[tuple] = []

    # dense short ensemble: backward-drift duality and the martingale check
    # need consecutive fine steps, not the coarse functional stride
    dense = simulate_ensemble(
        cfg.model, p0, mc.dt, mc.diag_steps * mc.dt, mc.n_paths, mc.seed + 1
    )
    dense_traj = solve(p0, cfg.model, dense.times, cfg.solver)

    last = len(dense.times) - 1
    est = estimate_backward_drift(dense, last, bins)
    if not np.any(est.defined):
        checks.append(
            Check("mc_duality", False,
                  f"no bin reached min_count = {est.min_count} samples ({dense.n_paths} paths)")
        )
    else:
        residual = duality_residual(est, cfg.model, dense_traj[last])
        pooled = est.pooled_standard_error()
        checks.append(
            Check("mc_duality", residual <= tol.mc_sigmas * pooled,
                  f"residual = {residual:.4f}, pooled SE = {pooled:.4f}")
        )
        target_curve = backward_drift_on_grid(cfg.model, dense_traj[last])
        for center, count, value, se in zip(
            est.bin_centers[est.defined],
            est.counts[est.defined],
            est.values[est.defined],
            est.std_errors[est.defined],
        ):
            ref = float(np.interp(center, dense_traj.grid.x, target_curve))
            rows.append(("backward_drift", float(dense.times[last]), float(center),
                         int(count), float(value), float(se), ref))
        rows.append(("duality_residual", float(dense.times[last]), None,
                     int(est.counts[est.defined].sum()), residual, pooled, 0.0))

    marti = martingale_diagnostic(dense, dense_traj, pbar, bins=bins)
    worst_mean = max(abs(r.mean_ratio - 1.0) / r.se_ratio for r in marti)
    cond = [r for r in marti if r.cond_residual is not None]
    worst_cond = max((r.cond_residual / r.cond_pooled_se for r in cond), default=0.0)
    checks.append(
        Check("mc_martingale_mean", worst_mean <= tol.mc_sigmas,
              f"worst |mean-1|/se = {worst_mean:.2f}")
    )
    checks.append(
        Check("mc_martingale_conditional", worst_cond <= tol.mc_sigmas,
              f"worst residual/pooled SE = {worst_cond:.2f}")
    )
    for r in marti:
        rows.append(("martingale_mean", r.time, None, dense.n_paths,
                     r.mean_ratio, r.se_ratio, 1.0))
        if r.cond_residual is not None:
            rows.append(("martingale_conditional", r.time, None, dense.n_paths,
                         r.cond_residual, r.cond_pooled_se, 0.0))

    # coarse-stride ensemble: sample-mean functionals against quadrature at
    # every stored time
    ens = simulate_ensemble(
        cfg.model, p0, mc.dt, mc.t_end, mc.n_paths, mc.seed, store_every=mc.store_every
    )
    traj = solve(p0, cfg.model, ens.times, cfg.solver)

    worst_z = 0.0
    for k in range(len(ens.times)):
        est_f = mc_functionals(ens, traj, pbar, k)
        refs = (
            relative_entropy(traj[k], pbar),
            varentropy(traj[k], pbar),
            varentropy_rate(traj[k], pbar, cfg.model.sigma),
        )
        names = ("entropy_mc", "varentropy_mc", "varentropy_rate_mc")
        values = (est_f.relative_entropy, est_f.varentropy, est_f.varentropy_rate)
        ses = (est_f.relative_entropy_se, est_f.varentropy_se, est_f.varentropy_rate_se)
        for name, value, se, ref in zip(names, values, ses, refs):
            if se > 0:
                worst_z = max(worst_z, abs(value - ref) / se)
            rows.append((name, est_f.time, None, ens.n_paths, value, se, ref))
    checks.append(
        Check("mc_functionals_agreement", worst_z <= tol.mc_sigmas,
              f"worst |mc - quadrature|/se = {worst_z:.2f}")
    )
    return rows


# ---------------------------------------------------------------------------
# monotonicity sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    base: dict
    parameter: str
    values: list
    outputs: Optional[str] = None
    base_dir: Path = field(default_factory=Path)

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepConfig":
        path = Path(path)
        with open(path) as fh:
            data = json.load(fh)
        base = _require(data, "base", "sweep")
        if isinstance(base, str):
            with open(path.parent / base) as fh:
                base = json.load(fh)
        values = list(_require(data, "values", "sweep"))
        if not values:
            raise ConfigError("sweep.values: must be non-empty")
        return cls(
            base=base,
            parameter=str(data.get("parameter", "override")),
            values=values,
            outputs=data.get("outputs"),
            base_dir=path.parent,
        )


@dataclass(frozen=True)
class SweepRow:
    """Observed varentropy-rate sign data for one parameter value.

    ``failed_checks`` names the member run's tolerance checks that failed;
    it is reported alongside the table, not written to the sweep CSV.
    """

    label: str
    min_rate: float
    max_rate: float
    sign_change: bool
    time_of_max: Optional[float]
    varentropy_initial: float
    varentropy_final: float
    failed_checks: tuple[str, ...]


def _set_dotted(data: dict, dotted: str, value):
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def monotonicity_sweep(sweep: SweepConfig) -> list[SweepRow]:
    """Rerun the base scenario across parameter values and record, for each,
    the extremes of the varentropy rate over time, whether the rate changes
    sign, and the time of the varentropy maximum when it is interior.

    No expected sign is asserted: the rate formula's bracket is indefinite
    and the sweep exists to record what actually happens. Each row also
    keeps the names of the member's failed tolerance checks.
    """
    rows: list[SweepRow] = []
    for value in sweep.values:
        data = copy.deepcopy(sweep.base)
        if isinstance(value, dict):
            data = _deep_merge(data, value)
            label = json.dumps(value, sort_keys=True)
        else:
            _set_dotted(data, sweep.parameter, value)
            label = f"{sweep.parameter}={value}"
        data["name"] = f"{data.get('name', 'sweep')}[{label}]"
        data.pop("mc", None)  # sweeps are grid-only
        data.pop("outputs", None)  # members report through the sweep table
        cfg = ScenarioConfig.from_dict(data, base_dir=sweep.base_dir)
        result = run_scenario(cfg, out_dir=None)
        rates = np.array([r.varentropy_rate for r in result.reports])
        varentropies = np.array([r.varentropy for r in result.reports])
        times = np.array([r.time for r in result.reports])
        scale = float(np.max(np.abs(rates)))
        sign_tol = 1e-6 * scale if scale > 0 else 0.0
        sign_change = bool(rates.min() < -sign_tol and rates.max() > sign_tol)
        k_max = int(np.argmax(varentropies))
        interior_max = 0 < k_max < len(varentropies) - 1
        rows.append(
            SweepRow(
                label=label,
                min_rate=float(rates.min()),
                max_rate=float(rates.max()),
                sign_change=sign_change,
                time_of_max=float(times[k_max]) if interior_max else None,
                varentropy_initial=float(varentropies[0]),
                varentropy_final=float(varentropies[-1]),
                failed_checks=tuple(c.name for c in result.checks if not c.passed),
            )
        )
    return rows


def write_sweep_csv(rows: list[SweepRow], path: str | Path):
    _write_csv(
        Path(path),
        ("label", "min_rate", "max_rate", "sign_change", "time_of_max",
         "varentropy_initial", "varentropy_final"),
        (
            (r.label, r.min_rate, r.max_rate, r.sign_change, r.time_of_max,
             r.varentropy_initial, r.varentropy_final)
            for r in rows
        ),
    )


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    n_nodes: int
    dt: float
    max_abs_error: float
    observed_order: Optional[float]


def convergence_study(cfg: ScenarioConfig, levels: int) -> list[ConvergenceRow]:
    """Errors of the computed varentropy against the exact benchmark under
    simultaneous halving of the grid spacing and the time step.

    Only defined for benchmark scenarios (standard OU drift, centered
    Gaussian start), where the exact values are available. The observed
    order for level k compares errors at levels k-1 and k; with two levels a
    single ratio is reported.
    """
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels}")
    if not cfg.is_ou_benchmark():
        raise ValueError("convergence study requires the exactly solvable benchmark scenario")
    bench = OUBenchmark(float(cfg.initial["variance"]))
    t_samples = cfg.time_samples()
    rows: list[ConvergenceRow] = []
    prev_err = None
    for level in range(levels):
        factor = 2**level
        grid = make_uniform_grid(cfg.grid.lo, cfg.grid.hi, (cfg.grid.n - 1) * factor + 1)
        solver = replace(cfg.solver, dt=cfg.solver.dt / factor)
        p0 = gaussian_density(grid, 0.0, float(cfg.initial["variance"]))
        pbar = invariant_density(cfg.model, grid)
        traj = solve(p0, cfg.model, t_samples, solver)
        err = max(
            abs(varentropy(state, pbar) - bench.varentropy(t))
            for t, state in zip(t_samples, traj.states)
        )
        order = None
        if prev_err is not None:
            order = math.log2(prev_err / err) if err > 0 else math.inf
        rows.append(ConvergenceRow(level, grid.n, solver.dt, err, order))
        prev_err = err
    return rows


def write_convergence_csv(rows: list[ConvergenceRow], path: str | Path):
    _write_csv(
        Path(path),
        ("level", "n_nodes", "dt", "max_abs_error", "observed_order"),
        ((r.level, r.n_nodes, r.dt, r.max_abs_error, r.observed_order) for r in rows),
    )
