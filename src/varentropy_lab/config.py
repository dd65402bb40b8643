"""Scenario and sweep configs: reading, parsing and validation.

A scenario is one JSON document naming a drift model, an initial density,
a grid, a time step and the sample times; a sweep holds a base scenario and
the override objects its members merge into it. The checks' bounds are not
config fields. Every field is checked when the document is parsed, and a
bad one raises ``ConfigError`` naming its path (``config.mc.seed: must be
>= 0, got -1``), so a run refuses a bad config before anything is solved.
Parsing also builds the run's start density and solve mesh, once, and
refuses a grid that truncates the initial or the stationary density, and
a solve of that mesh too long to take.
"""

from __future__ import annotations

import bisect
import copy
import json
import math
import numbers
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .drifts import GradientDrift, invariant_density, linear_drift
from .fokker_planck import SolveError, SolverConfig, substep_plan
from .grids import (
    SAME_TIME_TOL,
    Density,
    Grid,
    gaussian_mass_outside,
    integrate,
    make_uniform_grid,
    mixture_density,
    normalized_density,
)
from .monte_carlo import ensemble_times
from .ou_exact import OUBenchmark

#: Mass allowed outside the grid for initial and stationary densities.
GRID_MASS_TOL = 1e-10

#: Largest count of an array-sized field: the most float64 elements numpy
#: can shape in one array.
MAX_COUNT = np.iinfo(np.intp).max // 8

#: Euler-Maruyama steps of the densely stored Monte Carlo ensemble that the
#: backward-drift and martingale diagnostics read.
DENSE_STEPS = 50


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending field path."""


def _load_json(path: Path, where: str):
    """The JSON document in ``path``; a file that cannot be read or parsed
    is a config error at ``where``, the field that names the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"{where}: cannot read {path}: {err.strerror}") from err
    except ValueError as err:
        raise ConfigError(f"{where}: {path} is not JSON: {err}") from err


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


def _numbers(data: dict, keys: Sequence[str], path: str) -> dict:
    return {k: _number(_require(data, k, path), f"{path}.{k}") for k in keys}


def _kind(data, keys_by_kind: dict, path: str) -> str:
    """The ``kind`` of a block that holds no field outside that kind's keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be an object, got {data!r}")
    kind = data.get("kind")
    if kind not in keys_by_kind:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    _fields(data, keys_by_kind[kind], path)
    return kind


def _string(value, path: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{path}: must be a string, got {value!r}")


def _integer(value, path: str) -> int:
    """An integer config field; an integral float such as ``1e5`` counts."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{path}: must be an integer, got {value!r}")


def _count(value, path: str) -> int:
    """An integer field that sizes an array, refused above ``MAX_COUNT``."""
    count = _integer(value, path)
    if count > MAX_COUNT:
        raise ConfigError(f"{path}: {value!r} is more than the {MAX_COUNT} float64 "
                          f"elements an array can hold")
    return count


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo block: one ensemble stored at a coarse stride feeds the
    functional estimates, a second densely stored ensemble of
    ``DENSE_STEPS`` steps feeds the backward-drift and martingale
    diagnostics (whose statistics need consecutive fine steps). Both
    ensembles end within the run."""

    n_paths: int
    dt: float
    seed: int
    t_end: float
    store_every: int = 1
    bins: int = 31
    bin_span: float = 4.0  # bins cover [-span, span] around the state-space origin

    @classmethod
    def from_dict(cls, data: dict, path: str, horizon: float) -> "McConfig":
        _fields(data, cls.__dataclass_fields__, path)
        n_paths = _count(_require(data, "n_paths", path), f"{path}.n_paths")
        dt = _number(_require(data, "dt", path), f"{path}.dt")
        seed = _integer(_require(data, "seed", path), f"{path}.seed")
        t_end = _number(data.get("t_end", min(1.0, horizon)), f"{path}.t_end")
        store_every = _integer(data.get("store_every", cls.store_every), f"{path}.store_every")
        bins = _count(data.get("bins", cls.bins), f"{path}.bins")
        bin_span = _number(data.get("bin_span", cls.bin_span), f"{path}.bin_span")
        if n_paths < 2:
            raise ConfigError(f"{path}.n_paths: must be >= 2")
        if seed < 0:
            raise ConfigError(f"{path}.seed: must be >= 0, got {seed}")
        if not 0 < dt < math.inf:
            raise ConfigError(f"{path}.dt: must be positive and finite")
        if dt <= SAME_TIME_TOL:
            raise ConfigError(f"{path}.dt: steps of {dt:g} would merge in the solve mesh, "
                              f"which counts times within {SAME_TIME_TOL:g} as one")
        if DENSE_STEPS * dt > horizon + 1e-12:
            raise ConfigError(f"{path}.dt: the dense ensemble's {DENSE_STEPS} steps of {dt:g} "
                              f"pass t_end of the run, {horizon:g}")
        if not 0 < t_end <= horizon + 1e-12:
            raise ConfigError(f"{path}.t_end: must lie in (0, t_end of the run]")
        for key, stride in (("t_end", 1), ("store_every", store_every)):
            try:
                ensemble_times(dt, t_end, stride)
            except ValueError as err:
                raise ConfigError(f"{path}.{key}: {err}") from err
        if bins < 3:
            raise ConfigError(f"{path}.bins: need at least 3 bin edges")
        if not 0 < bin_span < math.inf:
            raise ConfigError(f"{path}.bin_span: must be positive and finite")
        try:
            make_uniform_grid(-bin_span, bin_span, bins)
        except ValueError as err:
            raise ConfigError(f"{path}.bin_span: bin grid: {err}") from err
        return cls(n_paths, dt, seed, t_end, store_every, bins, bin_span)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; see ``configs/`` for examples.

    Construction checks ``initial`` and builds, once, what a run solves
    (``dataclasses.replace`` builds it again): the start density ``start``;
    ``time_sets``, the sample times, then, with a Monte Carlo block, the
    dense and the coarse ensembles' stored times, each with its rows in
    ``mesh``, packed (a list's ints would take four times the memory); and
    ``mesh``, the solve's times, where a time within ``SAME_TIME_TOL`` of
    the previous one is that one, merged by Python's sort (numpy's would
    add its code pages to the run's resident memory). Parsing refuses
    samples or Monte Carlo steps that close, so only times of different
    sets merge.
    """

    name: str
    model: GradientDrift
    initial: dict
    grid: Grid
    solver: SolverConfig
    t_end: float
    n_samples: int
    mc: Optional[McConfig]
    base_dir: Path = field(default_factory=Path)
    start: Density = field(init=False, compare=False, repr=False)
    time_sets: tuple = field(init=False, compare=False, repr=False)
    mesh: list[float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        initial, start = _initial(self.initial, self.grid, self.base_dir)
        _check_stationary_mass(self.model, self.grid)
        sets = [np.linspace(0.0, self.t_end, self.n_samples)]
        if self.mc is not None:
            mc = self.mc
            sets.append(ensemble_times(mc.dt, DENSE_STEPS * mc.dt))
            sets.append(ensemble_times(mc.dt, mc.t_end, mc.store_every))
        mesh: list[float] = []
        for t in sorted(set().union(*(times.tolist() for times in sets))):
            if not mesh or t - mesh[-1] > SAME_TIME_TOL:
                mesh.append(t)
        try:
            substep_plan(self.grid, self.model, np.array(mesh), self.solver)
        except SolveError as err:
            raise ConfigError(f"config.solver: {err}") from err
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "time_sets", tuple(
            (times, array("q", [bisect.bisect(mesh, t) - 1 for t in times.tolist()]))
            for times in sets))
        object.__setattr__(self, "mesh", mesh)

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        return cls.from_dict(_load_json(path, "config"), base_dir=path.parent)

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | Path = ".") -> "ScenarioConfig":
        _fields(data, _CONFIG_KEYS, "config")
        name = _string(_require(data, "name", "config"), "config.name")
        model = _parse_drift(_require(data, "drift", "config"))
        grid_spec = _fields(_require(data, "grid", "config"), ("lo", "hi", "n"), "config.grid")
        bounds = _numbers(grid_spec, ("lo", "hi"), "config.grid")
        n = _count(_require(grid_spec, "n", "config.grid"), "config.grid.n")
        try:
            grid = make_uniform_grid(bounds["lo"], bounds["hi"], n)
        except ValueError as err:
            raise ConfigError(f"config.grid: {err}") from err
        solver_spec = _fields(_require(data, "solver", "config"), ("dt",), "config.solver")
        dt = _number(_require(solver_spec, "dt", "config.solver"), "config.solver.dt")
        try:
            solver = SolverConfig(dt)
        except ValueError as err:
            raise ConfigError(f"config.solver: {err}") from err
        time_spec = _fields(_require(data, "time", "config"), ("t_end", "n_samples"), "config.time")
        t_end = _number(_require(time_spec, "t_end", "config.time"), "config.time.t_end")
        n_samples = _count(
            _require(time_spec, "n_samples", "config.time"), "config.time.n_samples"
        )
        if not 0 < t_end < math.inf:
            raise ConfigError("config.time.t_end: must be positive and finite")
        if n_samples < 3:
            raise ConfigError("config.time.n_samples: need at least 3 samples")
        spacing = t_end / (n_samples - 1)
        if spacing <= SAME_TIME_TOL:
            raise ConfigError(f"config.time.n_samples: samples {spacing:g} apart would merge "
                              f"in the solve mesh, which counts times within "
                              f"{SAME_TIME_TOL:g} as one")
        initial = _require(data, "initial", "config")
        mc = None
        if data.get("mc") is not None:
            mc = McConfig.from_dict(data["mc"], "config.mc", horizon=t_end)
        return cls(name, model, initial, grid, solver, t_end, n_samples, mc, Path(base_dir))

    def time_samples(self) -> np.ndarray:
        return self.time_sets[0][0]

    def initial_density(self) -> Density:
        return self.start

    def stationary_density(self) -> Density:
        return invariant_density(self.model, self.grid)

    def exact(self) -> Optional[OUBenchmark]:
        """The closed forms of this scenario when it is the exactly solvable
        benchmark (linear drift rate -1/2, sigma 1, Gaussian start of mean 0)."""
        if self.initial["kind"] != "gaussian" or self.initial["mean"] != 0.0:
            return None
        bench = OUBenchmark(self.initial["variance"])
        return bench if self.model == bench.model() else None


#: Keys of a scenario config document.
_CONFIG_KEYS = ("name", "drift", "initial", "grid", "solver", "time", "mc")

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
    kind = _kind(data, _DRIFT_KEYS, path)
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
        return GradientDrift(coeffs, sigma=sigma)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _initial(data, grid: Grid, base_dir: Path) -> tuple[dict, Density]:
    """The ``initial`` block with every number checked and converted, and the
    density it gives on ``grid``, refused if more than ``GRID_MASS_TOL`` of
    its mass lies outside the grid. Construction comes here, once, so a
    table file is read once per config. A Gaussian is the one-component
    mixture of weight 1, which gives the same bits."""
    path = "config.initial"
    kind = _kind(data, _INITIAL_KEYS, path)
    if kind == "table":
        initial = {"kind": kind, "path": str(_require(data, "path", path))}
        try:
            # an empty file is refused like an unreadable one: loadtxt
            # reports it with a UserWarning, raised here as an error
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                values = np.loadtxt(base_dir / initial["path"], dtype=float)
            if values.ndim != 1 or len(values) != grid.n:
                raise ValueError(f"table must hold {grid.n} values")
            p0 = normalized_density(grid, values)
        except (OSError, ValueError, UserWarning) as err:
            raise ConfigError(f"{path}.path: {err}") from err
        outside = float(max(p0.values[0], p0.values[-1]) / p0.values.max())
    else:
        if kind == "gaussian":
            initial = {"kind": kind, **_numbers(data, ("mean", "variance"), path)}
            comps, where = [{"weight": 1.0, **initial}], path
        else:
            comps = _require(data, "components", path)
            if not isinstance(comps, list):
                raise ConfigError(f"{path}.components: must be a list")
            keys = ("weight", "mean", "variance")
            comps = [
                _numbers(_fields(c, keys, f"{path}.components[{i}]"), keys,
                         f"{path}.components[{i}]")
                for i, c in enumerate(comps)
            ]
            initial, where = {"kind": kind, "components": comps}, f"{path}.components"
        try:
            p0 = mixture_density(grid, [(c["weight"], c["mean"], c["variance"]) for c in comps])
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
        outside = sum(
            c["weight"] * gaussian_mass_outside(grid.lo, grid.hi, c["mean"], c["variance"])
            for c in comps
        )
    if outside > GRID_MASS_TOL:
        raise ConfigError(
            f"config.grid: initial density mass outside the grid is "
            f"{outside:.3e} > {GRID_MASS_TOL:g}; widen [lo, hi]"
        )
    return initial, p0


def _check_stationary_mass(model: GradientDrift, grid: Grid):
    """Refuse a drift that does not confine, whose stationary density
    overflows, or a grid that cuts more than ``GRID_MASS_TOL`` of that
    density's mass. Its far tails may underflow to zero."""
    if not model.confining:
        raise ConfigError("config.drift: potential must be confining")
    lo, hi = grid.lo, grid.hi
    try:
        wide = make_uniform_grid(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), 2 * grid.n)
    except ValueError as err:
        raise ConfigError(f"config.grid: twice as wide, to check the stationary mass: "
                          f"{err}") from err
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = invariant_density(model, wide).values
    except ArithmeticError as err:
        raise ConfigError(f"config.drift: stationary density out of float range: {err}") from err
    outside = 1.0 - integrate(np.where((wide.x >= lo) & (wide.x <= hi), values, 0.0), wide)
    if outside > GRID_MASS_TOL:
        raise ConfigError(
            f"config.grid: stationary density mass outside the grid is "
            f"{outside:.3e} > {GRID_MASS_TOL:g}; widen [lo, hi]"
        )


@dataclass(frozen=True)
class SweepConfig:
    """A base scenario document and the overrides its members merge into it.

    The base holds every scenario field but ``mc``: members run grid-only.
    ``base_dir`` is the sweep file's directory, against which the members'
    relative paths resolve.
    """

    base: dict
    values: list
    base_dir: Path = field(default_factory=Path)

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepConfig":
        path = Path(path)
        data = _fields(_load_json(path, "sweep"), ("base", "values"), "sweep")
        base = _fields(_require(data, "base", "sweep"),
                       [key for key in _CONFIG_KEYS if key != "mc"], "sweep.base")
        values = _require(data, "values", "sweep")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values: must be a non-empty list")
        for index, value in enumerate(values):
            if not isinstance(value, dict):
                raise ConfigError(f"sweep.values[{index}]: must be an object, got {value!r}")
        return cls(base, values, path.parent)

    def member(self, value: dict) -> tuple[str, ScenarioConfig]:
        """The label and the parsed scenario of the member that merges
        ``value`` into the base. Members are grid-only, so a value that sets
        ``mc`` is refused."""
        if "mc" in value:
            raise ConfigError("sweep.values: a member may not set 'mc'; members run grid-only "
                              "and write no reports")
        data, label = _deep_merge(self.base, value), json.dumps(value, sort_keys=True)
        data["name"] = f"{_string(data.get('name', 'sweep'), 'config.name')}[{label}]"
        return label, ScenarioConfig.from_dict(data, base_dir=self.base_dir)

    def members(self) -> list[tuple[str, ScenarioConfig]]:
        """:meth:`member` of every value, in order, so that a bad value is
        refused before any member runs; the error names its index and value."""
        parsed = []
        for index, value in enumerate(self.values):
            try:
                parsed.append(self.member(value))
            except ConfigError as err:
                raise ConfigError(
                    f"{err} (sweep.values[{index}] = {json.dumps(value, sort_keys=True)})"
                ) from err
        return parsed


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out
