"""Declarative experiment runner.

A scenario is a single JSON document naming a drift model, an initial
density, grids and tolerances; running it produces CSV reports and a list of
pass/fail tolerance checks. A run solves the PDE once, on the sample times
merged with the stored times of both Monte Carlo ensembles, so the report
rows, the solver checks and the Monte Carlo references all read one
solution. Sweeps rerun a base scenario across a list of
parameter overrides and tabulate the sign behaviour of the varentropy rate.
The convergence study reruns the exactly solvable benchmark on a ladder of
refined meshes and reports observed orders.

Runs are deterministic end to end (Monte Carlo included, via seeds): a
scenario run twice produces byte-identical CSV files. Output files are
written atomically. Scenarios within a sweep are independent and could be
dispatched concurrently; this implementation runs them in sequence.
"""

from __future__ import annotations

import bisect
import copy
import json
import math
import numbers
import os
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .drifts import (
    GradientDrift,
    QuarticPotential,
    invariant_density,
    linear_drift,
)
from .fokker_planck import SolverConfig, solve
from .functionals import (
    FunctionalReport,
    relative_entropy,
    report,
    varentropy,
    varentropy_rate,
)
from .grids import (
    SAME_TIME_TOL,
    Density,
    DensityTrajectory,
    Grid,
    gaussian_mass_outside,
    gaussian_density,
    integrate,
    make_uniform_grid,
    mixture_density,
    normalized_density,
)
from .monte_carlo import (
    backward_drift_target,
    ensemble_columns,
    ensemble_times,
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


def _fields(data, known: Iterable[str], path: str) -> dict:
    """A config object: a JSON object holding no key outside ``known``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object, got {data!r}")
    for key in data:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")
    return data


def _number(value, path: str) -> float:
    """A real-valued config field: a number, not a bool or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{path}: must be a number, got {value!r}")


def _optional_string(value, path: str) -> Optional[str]:
    """A config field that is a string or absent (``null`` counts as absent)."""
    if value is None or isinstance(value, str):
        return value
    raise ConfigError(f"{path}: must be a string, got {value!r}")


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
        _fields(data, cls.__dataclass_fields__, path)
        values = {k: _number(v, f"{path}.{k}") for k, v in data.items()}
        for key, value in values.items():
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{path}.{key}: must be positive and finite, got {value!r}")
        return cls(**values)


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
        _fields(data, cls.__dataclass_fields__, path)
        n_paths = _integer(_require(data, "n_paths", path), f"{path}.n_paths")
        dt = _number(_require(data, "dt", path), f"{path}.dt")
        seed = _integer(_require(data, "seed", path), f"{path}.seed")
        t_end = _number(data.get("t_end", min(1.0, horizon)), f"{path}.t_end")
        store_every = _integer(data.get("store_every", 1), f"{path}.store_every")
        diag_steps = _integer(data.get("diag_steps", 50), f"{path}.diag_steps")
        bins = _integer(data.get("bins", 31), f"{path}.bins")
        bin_span = _number(data.get("bin_span", 4.0), f"{path}.bin_span")
        if n_paths < 1:
            raise ConfigError(f"{path}.n_paths: must be >= 1")
        if seed < 0:
            raise ConfigError(f"{path}.seed: must be >= 0, got {seed}")
        if not 0 < dt < math.inf:
            raise ConfigError(f"{path}.dt: must be positive and finite")
        if not 0 < t_end <= horizon + 1e-12:
            raise ConfigError(f"{path}.t_end: must lie in (0, t_end of the run]")
        try:
            ensemble_times(dt, t_end)
        except ValueError as err:
            raise ConfigError(f"{path}.t_end: {err}") from err
        try:
            ensemble_times(dt, t_end, store_every)
        except ValueError as err:
            raise ConfigError(f"{path}.store_every: {err}") from err
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
        _fields(data, _CONFIG_KEYS, "config")
        name = str(_require(data, "name", "config"))
        model = _parse_drift(_require(data, "drift", "config"))
        grid_spec = _fields(_require(data, "grid", "config"), ("lo", "hi", "n"), "config.grid")
        lo = _number(_require(grid_spec, "lo", "config.grid"), "config.grid.lo")
        hi = _number(_require(grid_spec, "hi", "config.grid"), "config.grid.hi")
        n = _integer(_require(grid_spec, "n", "config.grid"), "config.grid.n")
        try:
            grid = make_uniform_grid(lo, hi, n)
        except ValueError as err:
            raise ConfigError(f"config.grid: {err}") from err
        solver_spec = _fields(
            _require(data, "solver", "config"), SolverConfig.__dataclass_fields__, "config.solver"
        )
        dt = _number(_require(solver_spec, "dt", "config.solver"), "config.solver.dt")
        theta = _number(solver_spec.get("theta", 0.5), "config.solver.theta")
        mass_tol = _number(solver_spec.get("mass_tol", 1e-10), "config.solver.mass_tol")
        try:
            solver = SolverConfig(dt=dt, theta=theta, mass_tol=mass_tol)
        except ValueError as err:
            raise ConfigError(f"config.solver: {err}") from err
        time_spec = _fields(_require(data, "time", "config"), ("t_end", "n_samples"), "config.time")
        t_end = _number(_require(time_spec, "t_end", "config.time"), "config.time.t_end")
        n_samples = _integer(
            _require(time_spec, "n_samples", "config.time"), "config.time.n_samples"
        )
        if not 0 < t_end < math.inf:
            raise ConfigError("config.time.t_end: must be positive and finite")
        if n_samples < 3:
            raise ConfigError("config.time.n_samples: need at least 3 samples")
        initial = _parse_initial(_require(data, "initial", "config"))
        mc = None
        if data.get("mc") is not None:
            mc = McConfig.from_dict(data["mc"], "config.mc", horizon=t_end)
        tolerances = Tolerances.from_dict(data.get("tolerances", {}), "config.tolerances")
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
            outputs=_optional_string(data.get("outputs"), "config.outputs"),
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
            try:
                return gaussian_density(self.grid, self.initial["mean"], self.initial["variance"])
            except ValueError as err:
                raise ConfigError(f"config.initial: {err}") from err
        if kind == "mixture":
            comps = [(c["weight"], c["mean"], c["variance"]) for c in self.initial["components"]]
            try:
                return mixture_density(self.grid, comps)
            except ValueError as err:
                raise ConfigError(f"config.initial.components: {err}") from err
        if kind == "table":
            path = self.base_dir / self.initial["path"]
            try:
                # an empty file is refused like an unreadable one: loadtxt
                # reports it with a UserWarning, raised here as an error
                with warnings.catch_warnings():
                    warnings.simplefilter("error", UserWarning)
                    values = np.loadtxt(path, dtype=float)
            except (OSError, ValueError, UserWarning) as err:
                raise ConfigError(f"config.initial.path: {err}") from err
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
            outside = gaussian_mass_outside(lo, hi, self.initial["mean"], self.initial["variance"])
        elif kind == "mixture":
            outside = sum(
                c["weight"] * gaussian_mass_outside(lo, hi, c["mean"], c["variance"])
                for c in self.initial["components"]
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


#: Keys of a scenario config document.
_CONFIG_KEYS = (
    "name", "drift", "initial", "grid", "solver", "time", "mc", "tolerances", "outputs",
)

#: Keys of the ``drift`` block, by kind.
_DRIFT_KEYS = {"linear": ("kind", "rate", "sigma"), "gradient": ("kind", "coeffs", "sigma")}

#: Keys of the ``initial`` block, by kind.
_INITIAL_KEYS = {
    "gaussian": ("kind", "mean", "variance"),
    "mixture": ("kind", "components"),
    "table": ("kind", "path"),
}


def _parse_drift(data) -> GradientDrift:
    path = "config.drift"
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object, got {data!r}")
    kind = data.get("kind")
    if kind not in _DRIFT_KEYS:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    _fields(data, _DRIFT_KEYS[kind], path)
    sigma = _number(data.get("sigma", 1.0), f"{path}.sigma")
    if kind == "linear":
        rate = _number(_require(data, "rate", path), f"{path}.rate")
        if not rate < 0.0:
            raise ConfigError(f"{path}.rate: linear drift must have rate < 0")
    else:
        coeffs = _require(data, "coeffs", path)
        if not isinstance(coeffs, list) or len(coeffs) != 5:
            raise ConfigError(f"{path}.coeffs: expected 5 coefficients c0..c4")
        coeffs = tuple(_number(c, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs))
    try:
        if kind == "linear":
            return linear_drift(rate, sigma)
        return GradientDrift(QuarticPotential(coeffs), sigma=sigma)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_initial(data) -> dict:
    """The ``initial`` block with every number checked and converted."""
    path = "config.initial"
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object, got {data!r}")
    kind = data.get("kind")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    _fields(data, _INITIAL_KEYS[kind], path)
    if kind == "gaussian":
        return {"kind": kind, **_numbers(data, ("mean", "variance"), path)}
    if kind == "table":
        return {"kind": kind, "path": str(_require(data, "path", path))}
    components = _require(data, "components", path)
    if not isinstance(components, list):
        raise ConfigError(f"{path}.components: must be a list")
    fields = ("weight", "mean", "variance")
    return {
        "kind": kind,
        "components": [
            _numbers(_fields(c, fields, f"{path}.components[{i}]"), fields,
                     f"{path}.components[{i}]")
            for i, c in enumerate(components)
        ],
    }


def _numbers(data: dict, keys: Sequence[str], path: str) -> dict:
    return {k: _number(_require(data, k, path), f"{path}.{k}") for k in keys}


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
    pbar = cfg.stationary_density()
    # one solve on every time any output reads: the sample times, then the
    # dense and the coarse Monte Carlo ensembles' stored times
    time_sets = [cfg.time_samples()]
    if cfg.mc is not None:
        mc = cfg.mc
        time_sets.append(ensemble_times(mc.dt, mc.diag_steps * mc.dt))
        time_sets.append(ensemble_times(mc.dt, mc.t_end, mc.store_every))
    solution, (traj, *mc_trajs) = _solve_once(cfg, time_sets)
    rows = report(traj, pbar, cfg.model.sigma)

    checks: list[Check] = []

    # solver hygiene
    worst_mass = float(np.max(np.abs(solution.masses - 1.0)))
    checks.append(
        Check("mass_conservation", worst_mass <= tol.mass_tol,
              f"max |mass-1| = {worst_mass:.3e} (tol {tol.mass_tol:g})")
    )
    min_value = float(solution.values.min())
    positive = min_value >= 0.0
    checks.append(Check("positivity", positive, f"min node value = {min_value:.3e}"))
    # one solver step of size dt from the stationary density
    fixed = solve(pbar, cfg.model, np.array([0.0, cfg.solver.dt]), cfg.solver)[1]
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
        # the run's memory peaks in the Monte Carlo part, which needs only
        # the states at the ensembles' times
        del solution, traj
        mc_rows = _run_mc_diagnostics(cfg, *mc_trajs, pbar, checks)

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


def _solve_once(
    cfg: ScenarioConfig, time_sets: Sequence[np.ndarray]
) -> tuple[DensityTrajectory, list[DensityTrajectory]]:
    """Solve the scenario once, on a mesh holding every time of every set.

    Times within ``SAME_TIME_TOL`` of the previous mesh time are that mesh
    time. Returns the solution and, per set, the trajectory at that set's
    times, made of the solution's rows (a view when they are consecutive).
    The few hundred times are merged with Python's sort: numpy's sort and
    search kernels would add their code pages to the run's resident memory.
    """
    mesh: list[float] = []
    for t in sorted(set().union(*(times.tolist() for times in time_sets))):
        if not mesh or t - mesh[-1] > SAME_TIME_TOL:
            mesh.append(t)
    solution = solve(cfg.initial_density(), cfg.model, np.array(mesh), cfg.solver)
    return solution, [
        solution.rows([bisect.bisect(mesh, t) - 1 for t in times.tolist()], times)
        for times in time_sets
    ]


def _run_mc_diagnostics(
    cfg: ScenarioConfig,
    dense_traj: DensityTrajectory,
    traj: DensityTrajectory,
    pbar: Density,
    checks: list[Check],
) -> list[tuple]:
    """Run the configured ensembles and append the Monte Carlo checks.

    ``dense_traj`` and ``traj`` are the run's solution at the stored times of
    the dense and of the coarse ensemble; both start from the initial density.
    """
    mc = cfg.mc
    tol = cfg.tolerances
    p0 = traj[0]
    bins = make_uniform_grid(-mc.bin_span, mc.bin_span, mc.bins)
    rows: list[tuple] = []

    # dense short ensemble: backward-drift duality and the martingale check
    # need consecutive fine steps, not the coarse functional stride. Its
    # columns stream through the martingale diagnostic as the paths advance;
    # only the last two, which the backward-drift estimate reads, are kept.
    last = mc.diag_steps
    kept: list[np.ndarray] = []

    def dense_columns():
        for k, x in ensemble_columns(
            cfg.model, p0, mc.dt, mc.diag_steps * mc.dt, mc.n_paths, mc.seed + 1
        ):
            if k >= last - 1:
                kept.append(x.copy())
            yield x

    marti = martingale_diagnostic(dense_columns(), dense_traj, pbar, bins=bins)
    t_last = float(dense_traj.times[last])

    est = estimate_backward_drift(*kept, mc.dt, bins)
    # free the copies: the coarse ensemble below sets the run's memory peak
    kept.clear()
    if not np.any(est.defined):
        checks.append(
            Check("mc_duality", False,
                  f"no bin reached min_count = {est.min_count} samples ({mc.n_paths} paths)")
        )
    else:
        target = backward_drift_target(est, cfg.model, dense_traj[last])
        residual = est.residual(target)
        pooled = est.pooled_standard_error()
        checks.append(
            Check("mc_duality", residual <= tol.mc_sigmas * pooled,
                  f"residual = {residual:.4f}, pooled SE = {pooled:.4f}")
        )
        for center, count, value, se, ref in zip(
            est.bin_centers[est.defined],
            est.counts[est.defined],
            est.values[est.defined],
            est.std_errors[est.defined],
            target,
        ):
            rows.append(("backward_drift", t_last, float(center),
                         int(count), float(value), float(se), float(ref)))
        rows.append(("duality_residual", t_last, None,
                     int(est.counts[est.defined].sum()), residual, pooled, 0.0))

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
        rows.append(("martingale_mean", r.time, None, mc.n_paths,
                     r.mean_ratio, r.se_ratio, 1.0))
        if r.cond_residual is not None:
            rows.append(("martingale_conditional", r.time, None, mc.n_paths,
                         r.cond_residual, r.cond_pooled_se, 0.0))

    # coarse-stride ensemble: sample-mean functionals against quadrature at
    # every stored time
    ens = simulate_ensemble(
        cfg.model, p0, mc.dt, mc.t_end, mc.n_paths, mc.seed, store_every=mc.store_every
    )

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
            data = _fields(json.load(fh), ("base", "parameter", "values", "outputs"), "sweep")
        base = _require(data, "base", "sweep")
        if isinstance(base, str):
            with open(path.parent / base) as fh:
                base = json.load(fh)
        _fields(base, _CONFIG_KEYS, "sweep.base")
        values = _require(data, "values", "sweep")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values: must be a non-empty list")
        return cls(
            base=base,
            parameter=str(data.get("parameter", "override")),
            values=values,
            outputs=_optional_string(data.get("outputs"), "sweep.outputs"),
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
        node = node.get(key)
        if not isinstance(node, dict):
            raise ConfigError(f"sweep.parameter: {dotted!r} names no field of the base config")
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
        # the member's reports go before the next member's run
        del result
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
        refined = replace(cfg, grid=grid, solver=solver)
        pbar = refined.stationary_density()
        traj = solve(refined.initial_density(), cfg.model, t_samples, solver)
        err = max(
            abs(row.varentropy - bench.varentropy(t))
            for t, row in zip(t_samples, report(traj, pbar, cfg.model.sigma))
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
