"""Declarative experiment runner.

Running a scenario (parsed by :mod:`varentropy_lab.config`) produces CSV
reports and a list of pass/fail tolerance checks. A run solves the PDE once,
on the sample times merged with the stored times of both Monte Carlo
ensembles, so the functionals report, the solver checks and the Monte Carlo
references all read one solution. The solution is reduced as it is
stepped: the solver yields it in checked chunks of one functionals kernel
block, with the mass of every row, where the report and the lowest node
read them, and only the rows at the Monte Carlo times are kept. Each check
compares two computations and is one function returning a :class:`Check`.
Sweeps rerun a base scenario across a list of parameter overrides and
tabulate the sign behaviour of the varentropy rate; consecutive members
that share a grid, drift, solver config and solve mesh are solved together,
however many, one block of states per kernel call, in chunks of one
kernel block per member, and each member's run then reads its share. The
convergence study reruns the exactly solvable benchmark on a ladder of
refined meshes and reports observed orders.

Runs are deterministic end to end (Monte Carlo included, via seeds): a
scenario run twice produces byte-identical CSV files, and a sweep member's
rows are those of its run alone. Output files are written atomically.
"""

from __future__ import annotations

import bisect
import math
import os
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import ConfigError, ScenarioConfig, SweepConfig, Tolerances
from .fokker_planck import SolveError, solve, solved_chunks
from .functionals import (
    FunctionalReport,
    block_rows,
    central_difference,
    relative_entropy,
    report,
    varentropy,
    varentropy_rate,
)
from .grids import SAME_TIME_TOL, Density, DensityTrajectory, make_uniform_grid
from .monte_carlo import (
    DEFAULT_MIN_COUNT,
    MartingaleRow,
    backward_drift_target,
    ensemble_columns,
    ensemble_times,
    estimate_backward_drift,
    martingale_diagnostic,
    mc_functionals,
    simulate_ensemble,
)
from .ou_exact import OUBenchmark


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
    report: FunctionalReport

    @property
    def exit_code(self) -> int:
        return 0 if all(c.passed for c in self.checks) else 1


def _worst(values: Sequence[float] | np.ndarray) -> float:
    """The largest of ``values``, or NaN if any of them is NaN, so that a
    check fails on it: Python's ``max`` drops a NaN that is not first."""
    return float(np.max(values))


def _worst_relative(name: str, values: np.ndarray, refs: np.ndarray, floor: float,
                    bound: float) -> Check:
    """Passes when ``|value - ref| / max(|ref|, floor) <= bound`` for every
    value and its ref."""
    worst = _worst(np.append(0.0, np.abs(values - refs) / np.maximum(np.abs(refs), floor)))
    return Check(name, worst <= bound, f"max rel err = {worst:.3e} (tol {bound:g})")


def _mass_conservation(masses: np.ndarray, mass_tol: float) -> Check:
    worst = float(np.max(np.abs(masses - 1.0)))
    return Check("mass_conservation", worst <= mass_tol,
                 f"max |mass-1| = {worst:.3e} (tol {mass_tol:g})")


def _positivity(lowest: float) -> Check:
    return Check("positivity", lowest >= 0.0, f"min node value = {lowest:.3e}")


def _stationary_fixed_point(cfg: ScenarioConfig, pbar: Density) -> Check:
    """One solver step of size dt from the stationary density leaves it."""
    stepped = solve(pbar, cfg.model, np.array([0.0, cfg.solver.dt]), cfg.solver)[1]
    err = float(np.max(np.abs(stepped.values - pbar.values)))
    bound = cfg.tolerances.fixed_point_sup
    return Check("stationary_fixed_point", err <= bound,
                 f"sup |step(pbar) - pbar| = {err:.3e} (tol {bound:g})")


def _varentropy_rate_consistency(rep: FunctionalReport, tol: Tolerances) -> Check:
    """The rate formula against the trajectory's central differences."""
    return _worst_relative("varentropy_rate_consistency", rep.varentropy_rate[1:-1],
                           rep.varentropy_rate_fd, tol.rate_floor, tol.varentropy_rate_rel)


def _entropy_rate_consistency(rep: FunctionalReport, entropy_fd: np.ndarray,
                              tol: Tolerances) -> Check:
    return _worst_relative("entropy_rate_consistency", rep.entropy_rate[1:-1], entropy_fd,
                           tol.rate_floor, tol.entropy_rate_rel)


def _entropy_rate_nonpositive(rep: FunctionalReport) -> Check:
    highest = _worst(rep.entropy_rate)
    return Check("entropy_rate_nonpositive", highest <= 0.0,
                 f"max entropy rate = {highest:.3e}")


def _vs_exact(rep: FunctionalReport, bench: OUBenchmark, quantity: str,
              tol: Tolerances) -> Check:
    """One reported quantity against the benchmark's closed form of it,
    evaluated per time with ``math``: ``np.exp`` can round differently."""
    exact = np.array([getattr(bench, quantity)(t) for t in rep.time.tolist()])
    return _worst_relative(f"{quantity}_vs_exact", getattr(rep, quantity), exact, 1e-12,
                           tol.oracle_rel)


def _mc_duality(residual: Optional[float], pooled: float, tol: Tolerances,
                undefined: str) -> Check:
    """The binned backward-drift residual within ``mc_sigmas`` pooled
    standard errors; fails with ``undefined`` when no bin was usable."""
    if residual is None:
        return Check("mc_duality", False, undefined)
    return Check("mc_duality", residual <= tol.mc_sigmas * pooled,
                 f"residual = {residual:.4f}, pooled SE = {pooled:.4f}")


def _mc_martingale_mean(marti: Sequence[MartingaleRow], tol: Tolerances) -> Check:
    worst = _worst([abs(r.mean_ratio - 1.0) / r.se_ratio for r in marti])
    return Check("mc_martingale_mean", worst <= tol.mc_sigmas,
                 f"worst |mean-1|/se = {worst:.2f}")


def _mc_martingale_conditional(marti: Sequence[MartingaleRow], tol: Tolerances,
                               undefined: str) -> Check:
    """The worst binned martingale residual within ``mc_sigmas`` pooled
    standard errors; fails with ``undefined`` when no bin was usable at any
    time."""
    ratios = [r.cond_residual / r.cond_pooled_se for r in marti if r.cond_residual is not None]
    if not ratios:
        return Check("mc_martingale_conditional", False, undefined)
    worst = _worst(ratios)
    return Check("mc_martingale_conditional", worst <= tol.mc_sigmas,
                 f"worst residual/pooled SE = {worst:.2f}")


def _mc_functionals_agreement(rows: Sequence[tuple], tol: Tolerances) -> Check:
    """Sample means against quadrature, over the ``mc_diagnostics.csv`` rows
    of the functionals; a row with no spread (``se`` 0) is skipped."""
    worst = _worst([0.0] + [abs(value - ref) / se for *_, value, se, ref in rows if se != 0.0])
    return Check("mc_functionals_agreement", worst <= tol.mc_sigmas,
                 f"worst |mc - quadrature|/se = {worst:.2f}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_atomic(path: Path, text: str):
    """Write ``text`` to a new file beside ``path`` and rename it over
    ``path``. The file gets mode 0o666 less the umask, as ``open`` gives it;
    its random name keeps concurrent writers of one path apart."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
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


# ---------------------------------------------------------------------------
# scenario run
# ---------------------------------------------------------------------------


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str | Path | None = None,
    solved: Optional[_Solved] = None,
) -> ScenarioResult:
    """Solve the scenario, evaluate every configured check, write reports.

    Writes into ``out_dir``, when it is given, ``functionals.csv`` (one row
    per sample time), ``consistency.csv`` (closed-form rates against
    trajectory finite differences at interior times), ``checks.csv``, and
    ``mc_diagnostics.csv`` when a Monte Carlo block is configured; with no
    ``out_dir`` it writes nothing. The solve is :func:`_solve_streamed` of
    this one scenario, unless ``solved`` gives the scenario's share of a
    group's; the sweep passes each member its own. Returns the in-memory
    result; ``exit_code`` is zero only if every check passed.
    """
    tol = cfg.tolerances
    if solved is None:
        time_sets, mesh = _solve_times(cfg)
        (solved,) = _solve_streamed([cfg], [time_sets], mesh)
    rep, pbar = solved.report, solved.pbar
    entropy_fd = central_difference(rep.relative_entropy, rep.time)
    checks = [
        _mass_conservation(solved.masses, cfg.solver.mass_tol),
        _positivity(solved.lowest),
        _stationary_fixed_point(cfg, pbar),
        _varentropy_rate_consistency(rep, tol),
        _entropy_rate_consistency(rep, entropy_fd, tol),
        _entropy_rate_nonpositive(rep),
    ]
    bench = cfg.exact()
    if bench is not None:
        checks += [_vs_exact(rep, bench, q, tol) for q in ("varentropy", "varentropy_rate")]

    mc_rows = []
    if cfg.mc is not None:
        mc_checks, mc_rows = _run_mc_diagnostics(cfg, *solved.kept, pbar)
        checks += mc_checks

    target = None if out_dir is None else Path(out_dir)
    if target is not None:
        columns = [getattr(rep, f).tolist() for f in FunctionalReport.CSV_FIELDS]
        # the finite difference leaves the two end samples' cells empty
        columns[-1] = ([None] + columns[-1] + [None])[:len(rep)]
        _write_csv(target / "functionals.csv", FunctionalReport.CSV_FIELDS, zip(*columns))
        varentropy_rate, entropy_rate = rep.varentropy_rate[1:-1], rep.entropy_rate[1:-1]
        _write_csv(
            target / "consistency.csv",
            ("time", "varentropy_rate", "varentropy_rate_fd", "abs_diff_varentropy_rate",
             "entropy_rate", "entropy_rate_fd", "abs_diff_entropy_rate"),
            zip(*(column.tolist() for column in (
                rep.time[1:-1], varentropy_rate, rep.varentropy_rate_fd,
                np.abs(varentropy_rate - rep.varentropy_rate_fd),
                entropy_rate, entropy_fd, np.abs(entropy_rate - entropy_fd),
            ))),
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

    return ScenarioResult(cfg.name, target, checks, rep)


def _solve_times(cfg: ScenarioConfig) -> tuple[list[np.ndarray], list[float]]:
    """The time sets that a run's outputs read, and the mesh of its one solve.

    The sets are the sample times, then, with a Monte Carlo block, the
    dense and the coarse ensembles' stored times. The mesh holds every time
    of every set; times within ``SAME_TIME_TOL`` of the previous mesh time
    are that mesh time, and each set reads the rows of its times' mesh
    times. The few hundred times are merged with Python's sort: numpy's sort
    and search kernels would add their code pages to the run's resident
    memory.
    """
    time_sets = [cfg.time_samples()]
    if cfg.mc is not None:
        mc = cfg.mc
        time_sets.append(ensemble_times(mc.dt, mc.diag_steps * mc.dt))
        time_sets.append(ensemble_times(mc.dt, mc.t_end, mc.store_every))
    mesh: list[float] = []
    for t in sorted(set().union(*(times.tolist() for times in time_sets))):
        if not mesh or t - mesh[-1] > SAME_TIME_TOL:
            mesh.append(t)
    return time_sets, mesh


@dataclass(frozen=True, eq=False)
class _Solved:
    """What a run reads of its solve: its stationary density ``pbar``, the
    report of its sample rows, the mass of every mesh row, the lowest node
    value of them all, and the rows of each Monte Carlo time set."""

    pbar: Density
    report: FunctionalReport
    masses: np.ndarray
    lowest: float
    kept: list[DensityTrajectory]


def _solve_streamed(
    cfgs: Sequence[ScenarioConfig], time_sets: Sequence[Sequence[np.ndarray]], mesh: list[float]
) -> list[_Solved]:
    """Solve the scenarios ``cfgs``, which share the grid, drift and solver
    config of the first and the solve mesh ``mesh``, as one block of
    :func:`solved_chunks`, and reduce each one's rows as they come.

    ``time_sets`` gives each scenario's sets of :func:`_solve_times`. The
    chunks are of ``block_rows(n)`` mesh times, checked, with the mass of
    every row. Of each, the lowest node is taken, :func:`report` takes each
    scenario's sample rows, and the rows at its Monte Carlo times are copied
    out. Each scenario's report joins its segments' columns
    (:meth:`FunctionalReport.from_columns`), so it and every number here
    equal :func:`solve` of that scenario alone followed by :func:`report`,
    bit for bit. A failing scenario raises :class:`SolveError` as
    :func:`solved_chunks` names it.
    """
    grid, model, solver = cfgs[0].grid, cfgs[0].model, cfgs[0].solver
    chunks = solved_chunks([cfg.initial_density() for cfg in cfgs], model, np.array(mesh),
                           solver, block_rows(grid.n))
    pbars = [cfg.stationary_density() for cfg in cfgs]
    # each scenario's time sets, with the mesh index of every time, packed:
    # the Python ints of a list would take four times the memory
    plans = [[(times, array("q", [bisect.bisect(mesh, t) - 1 for t in times.tolist()]))
              for times in sets] for sets in time_sets]
    masses = np.empty((len(cfgs), len(mesh)))
    lowest = np.full(len(cfgs), np.inf)
    # each scenario's report columns after time, filled a segment at a time
    fields = FunctionalReport.CSV_FIELDS[1:-1]
    columns = [np.empty((len(fields), len(plan[0][0]))) for plan in plans]
    kept = [[np.empty((len(times), grid.n)) for times, _ in plan[1:]] for plan in plans]
    for base, rows, row_masses in chunks:
        end = base + rows.shape[1]
        masses[:, base:end] = row_masses
        np.minimum(lowest, rows.min(axis=(1, 2)), out=lowest)
        for m, ((samples, index), *mc_plans) in enumerate(plans):
            lo, hi = bisect.bisect_left(index, base), bisect.bisect_left(index, end)
            if hi > lo:
                # a run of consecutive rows is a view of the chunk, any
                # other pick a copy
                pick = [i - base for i in index[lo:hi]]
                if pick == list(range(pick[0], pick[-1] + 1)):
                    pick = slice(pick[0], pick[-1] + 1)
                segment = DensityTrajectory._from_rows(samples[lo:hi], grid, rows[m, pick],
                                                       row_masses[m, pick])
                part = report(segment, pbars[m], cfgs[m].model.sigma)
                columns[m][:, lo:hi] = [getattr(part, field) for field in fields]
            for (_, index), out in zip(mc_plans, kept[m]):
                lo, hi = bisect.bisect_left(index, base), bisect.bisect_left(index, end)
                out[lo:hi] = rows[m, [i - base for i in index[lo:hi]]]
    return [
        _Solved(pbar, FunctionalReport.from_columns(plan[0][0], *member_columns), row_masses,
                float(low), [DensityTrajectory._from_rows(times, grid, out, row_masses[index])
                             for (times, index), out in zip(plan[1:], kept_rows)])
        for pbar, member_columns, row_masses, low, plan, kept_rows
        in zip(pbars, columns, masses, lowest, plans, kept)
    ]


def _run_mc_diagnostics(
    cfg: ScenarioConfig,
    dense_traj: DensityTrajectory,
    traj: DensityTrajectory,
    pbar: Density,
) -> tuple[list[Check], list[tuple]]:
    """Run the configured ensembles; return the Monte Carlo checks and the
    ``mc_diagnostics.csv`` rows.

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
    residual = pooled = None
    defined = est.defined
    if np.any(defined):
        target = backward_drift_target(est, cfg.model, dense_traj[last])
        residual = est.residual(target)
        pooled = est.pooled_standard_error()
        rows += [
            ("backward_drift", t_last, float(center), int(count), float(value), float(se),
             float(ref))
            for center, count, value, se, ref in zip(
                est.bin_centers[defined], est.counts[defined], est.values[defined],
                est.std_errors[defined], target)
        ]
        rows.append(("duality_residual", t_last, None, int(est.counts[defined].sum()),
                     residual, pooled, 0.0))
    undefined = f"no bin reached min_count = {DEFAULT_MIN_COUNT} samples ({mc.n_paths} paths)"
    checks = [
        _mc_duality(residual, pooled, tol, undefined),
        _mc_martingale_mean(marti, tol),
        _mc_martingale_conditional(marti, tol, undefined),
    ]
    for r in marti:
        rows.append(("martingale_mean", r.time, None, mc.n_paths,
                     r.mean_ratio, r.se_ratio, 1.0))
        if r.cond_residual is not None:
            rows.append(("martingale_conditional", r.time, None, mc.n_paths,
                         r.cond_residual, r.cond_pooled_se, 0.0))

    # coarse-stride ensemble: sample-mean functionals against quadrature at
    # every stored time
    paths = simulate_ensemble(
        cfg.model, p0, mc.dt, mc.t_end, mc.n_paths, mc.seed, store_every=mc.store_every
    )
    functional_rows = []
    for x, p_t in zip(paths.T, traj.states, strict=True):
        est_f = mc_functionals(x, p_t, pbar, cfg.model.sigma)
        for name, value, se, ref in (
            ("entropy_mc", est_f.relative_entropy, est_f.relative_entropy_se,
             relative_entropy(p_t, pbar)),
            ("varentropy_mc", est_f.varentropy, est_f.varentropy_se, varentropy(p_t, pbar)),
            ("varentropy_rate_mc", est_f.varentropy_rate, est_f.varentropy_rate_se,
             varentropy_rate(p_t, pbar, cfg.model.sigma)),
        ):
            functional_rows.append((name, est_f.time, None, mc.n_paths, value, se, ref))
    checks.append(_mc_functionals_agreement(functional_rows, tol))
    return checks, rows + functional_rows


# ---------------------------------------------------------------------------
# monotonicity sweep
# ---------------------------------------------------------------------------


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


def _solve_groups(members: Sequence[tuple[str, ScenarioConfig]]) -> list[tuple[tuple, list]]:
    """Runs of consecutive members whose one solve can step them together,
    each with its key ``(grid, model, solver, mesh)``, which they all share.
    A member is ``(label, cfg, time_sets)``, with the sets of
    :func:`_solve_times`."""
    groups: list[tuple[tuple, list]] = []
    for label, cfg in members:
        time_sets, mesh = _solve_times(cfg)
        key = (cfg.grid, cfg.model, cfg.solver, mesh)
        if groups and groups[-1][0] == key:
            groups[-1][1].append((label, cfg, time_sets))
        else:
            groups.append((key, [(label, cfg, time_sets)]))
    return groups


def _sweep_row(label: str, result: ScenarioResult) -> SweepRow:
    """The sweep row of one member's run."""
    rates, varentropies = result.report.varentropy_rate, result.report.varentropy
    scale = float(np.max(np.abs(rates)))
    sign_tol = 1e-6 * scale if scale > 0 else 0.0
    k_max = int(np.argmax(varentropies))
    interior_max = 0 < k_max < len(varentropies) - 1
    return SweepRow(
        label=label,
        min_rate=float(rates.min()),
        max_rate=float(rates.max()),
        sign_change=bool(rates.min() < -sign_tol and rates.max() > sign_tol),
        time_of_max=float(result.report.time[k_max]) if interior_max else None,
        varentropy_initial=float(varentropies[0]),
        varentropy_final=float(varentropies[-1]),
        failed_checks=tuple(c.name for c in result.checks if not c.passed),
    )


def monotonicity_sweep(sweep: SweepConfig) -> list[SweepRow]:
    """Rerun the base scenario across parameter values and record, for each,
    the extremes of the varentropy rate over time, whether the rate changes
    sign, and the time of the varentropy maximum when it is interior.

    No expected sign is asserted: the rate formula's bracket is indefinite
    and the sweep exists to record what actually happens. Each row also
    keeps the names of the member's failed tolerance checks. Every member
    is parsed before the first one runs. Each group of
    :func:`_solve_groups` is solved once by :func:`_solve_streamed`, which
    holds one chunk of rows per member, never a trajectory; each member then
    runs on its share of it, checks and report included. A solver error
    names the member that met it; one in a group's solve comes before the
    group's earlier members have run.
    """
    rows: list[SweepRow] = []
    for (_, _, _, mesh), group in _solve_groups(sweep.members()):
        try:
            solved = _solve_streamed([cfg for _, cfg, _ in group],
                                     [time_sets for _, _, time_sets in group], mesh)
        except SolveError as err:
            raise RuntimeError(f"sweep member {group[err.start][0]}: {err}") from err
        for (label, cfg, _), member in zip(group, solved):
            try:
                rows.append(_sweep_row(label, run_scenario(cfg, solved=member)))
            except RuntimeError as err:
                raise RuntimeError(f"sweep member {label}: {err}") from err
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
    single ratio is reported. Either refusal is a ``ConfigError``, raised
    before any solve.
    """
    if levels < 2:
        raise ConfigError(f"--levels: need at least 2 levels, got {levels}")
    bench = cfg.exact()
    if bench is None:
        raise ConfigError("config: the convergence study requires the exactly solvable "
                          "benchmark: linear drift rate -0.5, sigma 1, Gaussian start of mean 0")
    t_samples = cfg.time_samples()
    exact = np.array([bench.varentropy(t) for t in t_samples.tolist()])
    rows: list[ConvergenceRow] = []
    prev_err = None
    for level in range(levels):
        factor = 2**level
        grid = make_uniform_grid(cfg.grid.lo, cfg.grid.hi, (cfg.grid.n - 1) * factor + 1)
        solver = replace(cfg.solver, dt=cfg.solver.dt / factor)
        refined = replace(cfg, grid=grid, solver=solver)
        pbar = refined.stationary_density()
        traj = solve(refined.initial_density(), cfg.model, t_samples, solver)
        err = _worst(np.abs(report(traj, pbar, cfg.model.sigma).varentropy - exact))
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
