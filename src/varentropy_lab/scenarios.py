"""Declarative experiment runner.

Running a scenario (parsed by :mod:`varentropy_lab.config`) produces CSV
reports and a list of pass/fail tolerance checks. A run solves the PDE once,
from its config's start, on its config's solve mesh (the sample times and
the stored times of both Monte Carlo ensembles), so the functionals report
and the Monte Carlo references read one solution. The solution is reduced
as it is stepped: the solver yields it in checked chunks of one functionals
kernel block, which the report reads, and only the rows at the Monte Carlo
times are kept. The solver's own checks (finite, non-negative, unit mass)
end a run that fails them, so no run check repeats them. Each check
compares two computations, can fail, and is one function returning a
:class:`Check`; one function reads every Monte Carlo check from the
``mc_diagnostics.csv`` rows.
Sweeps rerun a base scenario across a list of parameter overrides and
tabulate the sign behaviour of the varentropy rate; consecutive members
that share a grid, drift, solver config and solve mesh are solved together,
however many, one block of states per kernel call, in chunks of one
kernel block per member, and each member's run then reads its share. The
convergence study reruns a scenario with a closed-form law on a ladder of
refined meshes and yields each level's error and observed order as it ends.

Runs are deterministic end to end (Monte Carlo included, via seeds): a
scenario run twice produces byte-identical CSV files, and a sweep member's
rows are those of its run alone. Output files are written atomically.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .config import DENSE_STEPS, ConfigError, ScenarioConfig, SweepConfig
from .drifts import GradientDrift
from .fokker_planck import SolveError, SolverConfig, solve, solved_chunks
from .functionals import (
    FunctionalReport,
    block_rows,
    central_difference,
    relative_entropy,
    report,
    varentropy,
    varentropy_rate,
)
from .grids import Density, DensityTrajectory, make_uniform_grid
from .monte_carlo import (
    DEFAULT_MIN_COUNT,
    backward_drift_target,
    ensemble_columns,
    estimate_backward_drift,
    martingale_diagnostic,
    mc_functionals,
    simulate_ensemble,
)
from .ou_exact import OUBenchmark

# The bounds of the run's checks are fixed here, not read from the config,
# so that no config can loosen the checks its run is judged by.

#: Largest ``sup |step(pbar) - pbar|`` of one solver step from the stationary density.
FIXED_POINT_SUP = 1e-8
#: Largest relative error of a reported quantity against the closed-form law.
ORACLE_REL = 1e-3
#: Largest relative error of the closed-form varentropy and entropy rates
#: against the central differences of the varentropy and the entropy.
VARENTROPY_RATE_REL = 0.01
ENTROPY_RATE_REL = 0.01
#: Floor of the reference's magnitude in those two relative errors.
RATE_FLOOR = 1e-6
#: Most standard errors that a Monte Carlo estimate may lie from its reference.
MC_SIGMAS = 3.0


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


def _stationary_fixed_point(model: GradientDrift, solver: SolverConfig, pbar: Density) -> Check:
    """One solver step of size dt from the stationary density leaves it."""
    stepped = solve(pbar, model, np.array([0.0, solver.dt]), solver)[1]
    err = float(np.max(np.abs(stepped.values - pbar.values)))
    return Check("stationary_fixed_point", err <= FIXED_POINT_SUP,
                 f"sup |step(pbar) - pbar| = {err:.3e} (tol {FIXED_POINT_SUP:g})")


def _vs_exact(rep: FunctionalReport, bench: OUBenchmark, quantity: str) -> Check:
    """One reported quantity against the law's closed form of it,
    evaluated per time with ``math``: ``np.exp`` can round differently."""
    exact = np.array([getattr(bench, quantity)(t) for t in rep.time.tolist()])
    return _worst_relative(f"{quantity}_vs_exact", getattr(rep, quantity), exact, 1e-12,
                           ORACLE_REL)


#: Each Monte Carlo check: the ``mc_diagnostics.csv`` kinds of its rows,
#: and its detail, given the worst deviation in standard errors and the
#: value and standard error of its row.
_MC_CHECKS = {
    "mc_duality": (("duality_residual",), "residual = {value:.4f}, pooled SE = {se:.4f}"),
    "mc_martingale_mean": (("martingale_mean",), "worst |mean-1|/se = {worst:.2f}"),
    "mc_martingale_conditional": (("martingale_conditional",),
                                  "worst residual/pooled SE = {worst:.2f}"),
    "mc_functionals_agreement": (("entropy_mc", "varentropy_mc", "varentropy_rate_mc"),
                                 "worst |mc - quadrature|/se = {worst:.2f}"),
}


def _mc_checks(rows: Sequence[tuple], undefined: str) -> list[Check]:
    """The Monte Carlo checks, read from the ``mc_diagnostics.csv`` rows.

    Each passes when the worst ``|value - reference| / std_error`` over the
    rows of its kinds is within ``MC_SIGMAS``, and fails with ``undefined``
    when it has no row. The standard error is floored at the float
    resolution of the reference, ``1e-12 * max(1, |reference|)``, so an
    estimate equal to its reference to rounding passes; a NaN fails.
    """
    checks = []
    for name, (kinds, detail) in _MC_CHECKS.items():
        mine = [row[4:] for row in rows if row[0] in kinds]
        if not mine:
            checks.append(Check(name, False, undefined))
            continue
        value, se, ref = np.array(mine, dtype=float).T
        z = np.abs(value - ref) / np.maximum(se, 1e-12 * np.maximum(1.0, np.abs(ref)))
        k = int(np.argmax(z))  # the first NaN, if there is one
        worst = float(z[k])
        checks.append(Check(name, worst <= MC_SIGMAS,
                            detail.format(worst=worst, value=value[k], se=se[k])))
    return checks


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
    if solved is None:
        (solved,) = _solve_streamed([cfg])
    rep, pbar = solved.report, solved.pbar
    entropy_fd = central_difference(rep.relative_entropy, rep.time)
    varentropy_fd = central_difference(rep.varentropy, rep.time)
    checks = [
        solved.fixed_point,
        _worst_relative("varentropy_rate_consistency", rep.varentropy_rate[1:-1], varentropy_fd,
                        RATE_FLOOR, VARENTROPY_RATE_REL),
        _worst_relative("entropy_rate_consistency", rep.entropy_rate[1:-1], entropy_fd,
                        RATE_FLOOR, ENTROPY_RATE_REL),
    ]
    bench = cfg.exact()
    if bench is not None:
        checks += [_vs_exact(rep, bench, q) for q in ("varentropy", "varentropy_rate")]

    mc_rows = []
    if cfg.mc is not None:
        mc_rows = _run_mc_diagnostics(cfg, *solved.kept, pbar)
        checks += _mc_checks(mc_rows, f"no bin reached min_count = {DEFAULT_MIN_COUNT} "
                                      f"samples ({cfg.mc.n_paths} paths)")

    target = None if out_dir is None else Path(out_dir)
    if target is not None:
        columns = [getattr(rep, f).tolist() for f in FunctionalReport.FIELDS]
        # the finite difference leaves the two end samples' cells empty
        columns.append(([None] + varentropy_fd.tolist() + [None])[:len(rep)])
        _write_csv(target / "functionals.csv", (*FunctionalReport.FIELDS, "varentropy_rate_fd"),
                   zip(*columns))
        varentropy_rate, entropy_rate = rep.varentropy_rate[1:-1], rep.entropy_rate[1:-1]
        _write_csv(
            target / "consistency.csv",
            ("time", "varentropy_rate", "varentropy_rate_fd", "abs_diff_varentropy_rate",
             "entropy_rate", "entropy_rate_fd", "abs_diff_entropy_rate"),
            zip(*(column.tolist() for column in (
                rep.time[1:-1], varentropy_rate, varentropy_fd,
                np.abs(varentropy_rate - varentropy_fd),
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


@dataclass(frozen=True, eq=False)
class _Solved:
    """What a run reads of its solve: its stationary density ``pbar``, the
    report of its sample rows, the rows of each Monte Carlo time set, and
    the stationary fixed-point check of its solver, which depends on the
    grid, drift and solver alone."""

    pbar: Density
    report: FunctionalReport
    kept: list[DensityTrajectory]
    fixed_point: Check


def _solve_streamed(cfgs: Sequence[ScenarioConfig]) -> list[_Solved]:
    """Solve the scenarios ``cfgs``, which share the grid, drift, solver
    config and solve mesh of the first, as one block of
    :func:`solved_chunks`, and reduce each one's rows as they come.

    The chunks are of ``block_rows(n)`` mesh times, checked. Of each,
    :func:`report` takes each scenario's rows whole, into columns over the
    whole mesh, and the rows of its Monte Carlo time sets are copied out. A
    row's report does not depend on its chunk, so each scenario's report,
    its columns at the mesh rows of its sample times, and every number here
    equal :func:`solve` of that scenario alone followed by :func:`report`,
    bit for bit. A failing
    scenario raises :class:`SolveError` as :func:`solved_chunks` names it.
    The scenarios share one stationary fixed-point check, taken once, after
    the last chunk.
    """
    grid, model, solver, mesh = cfgs[0].grid, cfgs[0].model, cfgs[0].solver, cfgs[0].mesh
    mesh_times = np.array(mesh)
    chunks = solved_chunks([cfg.initial_density() for cfg in cfgs], model, mesh_times, solver,
                           block_rows(grid.n))
    # the group shares its grid and drift, so its stationary density too
    pbar = cfgs[0].stationary_density()
    plans = [cfg.time_sets for cfg in cfgs]
    # each scenario's report columns after time, one entry per mesh time
    fields = FunctionalReport.FIELDS[1:]
    columns = np.empty((len(cfgs), len(fields), len(mesh)))
    kept = [[np.empty((len(times), grid.n)) for times, _ in plan[1:]] for plan in plans]
    for base, rows in chunks:
        end = base + rows.shape[1]
        for m, (_, *mc_plans) in enumerate(plans):
            part = report(DensityTrajectory._from_rows(mesh_times[base:end], grid, rows[m]),
                          pbar, model.sigma)
            columns[m, :, base:end] = [getattr(part, field) for field in fields]
            for (_, index), out in zip(mc_plans, kept[m]):
                lo, hi = bisect.bisect_left(index, base), bisect.bisect_left(index, end)
                out[lo:hi] = rows[m, [i - base for i in index[lo:hi]]]
    fixed_point = _stationary_fixed_point(model, solver, pbar)
    return [
        _Solved(pbar, FunctionalReport(samples, *member_columns[:, index]),
                [DensityTrajectory._from_rows(times, grid, out)
                 for (times, _), out in zip(mc_plans, kept_rows)],
                fixed_point)
        for member_columns, ((samples, index), *mc_plans), kept_rows
        in zip(columns, plans, kept)
    ]


def _run_mc_diagnostics(
    cfg: ScenarioConfig,
    dense_traj: DensityTrajectory,
    traj: DensityTrajectory,
    pbar: Density,
) -> list[tuple]:
    """Run the configured ensembles; return the ``mc_diagnostics.csv`` rows,
    which :func:`_mc_checks` reads.

    ``dense_traj`` and ``traj`` are the run's solution at the stored times of
    the dense and of the coarse ensemble; both start from the initial density.
    """
    mc = cfg.mc
    p0 = traj[0]
    bins = make_uniform_grid(-mc.bin_span, mc.bin_span, mc.bins)
    rows: list[tuple] = []

    # dense short ensemble: backward-drift duality and the martingale check
    # need consecutive fine steps, not the coarse functional stride. Its
    # columns stream through the martingale diagnostic as the paths advance;
    # only the last two, which the backward-drift estimate reads, are kept.
    last = DENSE_STEPS
    kept: list[np.ndarray] = []

    def dense_columns():
        for k, x in ensemble_columns(
            cfg.model, p0, mc.dt, DENSE_STEPS * mc.dt, mc.n_paths, mc.seed + 1
        ):
            if k >= last - 1:
                kept.append(x.copy())
            yield x

    marti = martingale_diagnostic(dense_columns(), dense_traj, pbar, bins=bins)
    t_last = float(dense_traj.times[last])

    est = estimate_backward_drift(*kept, mc.dt, bins)
    # free the copies: the coarse ensemble below sets the run's memory peak
    kept.clear()
    defined = est.defined
    if np.any(defined):
        target = backward_drift_target(est, cfg.model, dense_traj[last])
        rows += [
            ("backward_drift", t_last, float(center), int(count), float(value), float(se),
             float(ref))
            for center, count, value, se, ref in zip(
                est.bin_centers[defined], est.counts[defined], est.values[defined],
                est.std_errors[defined], target)
        ]
        rows.append(("duality_residual", t_last, None, int(est.counts[defined].sum()),
                     est.residual(target), est.pooled_standard_error(), 0.0))
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
    for t, x, p_t in zip(traj.times.tolist(), paths.T, traj.states, strict=True):
        est_f = mc_functionals(x, p_t, pbar, cfg.model.sigma)
        for name, value, se, ref in (
            ("entropy_mc", est_f.relative_entropy, est_f.relative_entropy_se,
             relative_entropy(p_t, pbar)),
            ("varentropy_mc", est_f.varentropy, est_f.varentropy_se, varentropy(p_t, pbar)),
            ("varentropy_rate_mc", est_f.varentropy_rate, est_f.varentropy_rate_se,
             varentropy_rate(p_t, pbar, cfg.model.sigma)),
        ):
            rows.append((name, t, None, mc.n_paths, value, se, ref))
    return rows


# ---------------------------------------------------------------------------
# monotonicity sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """Observed varentropy-rate sign data for one sweep member.

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


def _sweep_row(label: str, result: ScenarioResult) -> SweepRow:
    """The sweep row of one member's run."""
    rates, varentropies = result.report.varentropy_rate, result.report.varentropy
    scale = float(np.max(np.abs(rates)))
    sign_tol = 1e-6 * scale if scale > 0 else 0.0
    sign_change = bool(rates.min() < -sign_tol and rates.max() > sign_tol)
    k_max = int(np.argmax(varentropies))
    # a varentropy whose rate keeps one sign has no interior maximum: an
    # interior argmax then picks out rounding, not a turn of the varentropy
    interior_max = sign_change and 0 < k_max < len(varentropies) - 1
    return SweepRow(
        label=label,
        min_rate=float(rates.min()),
        max_rate=float(rates.max()),
        sign_change=sign_change,
        time_of_max=float(result.report.time[k_max]) if interior_max else None,
        varentropy_initial=float(varentropies[0]),
        varentropy_final=float(varentropies[-1]),
        failed_checks=tuple(c.name for c in result.checks if not c.passed),
    )


def monotonicity_sweep(sweep: SweepConfig) -> list[SweepRow]:
    """Rerun the base scenario with each override value and record, for each,
    the extremes of the varentropy rate over time, whether the rate changes
    sign, and, when it does, the time of the varentropy maximum if that is
    interior.

    No expected sign is asserted: the rate formula's bracket is indefinite
    and the sweep exists to record what actually happens. Each row also
    keeps the names of the member's failed tolerance checks. Every member
    is parsed before the first one runs. Each group, a run of consecutive
    members that share a grid, drift, solver config and solve mesh, is
    solved once by :func:`_solve_streamed`, which holds one chunk of rows
    per member, never a trajectory, and takes the group's one stationary
    fixed-point solve; each member then runs on its share of it, checks and
    report included, and solves nothing more. A solver error in a group's
    solve, before any member has run, names the first bad member of the
    chunk where it stopped; one in the fixed-point solve, the group's first.
    """
    rows: list[SweepRow] = []
    for _, members in itertools.groupby(sweep.members(), key=lambda member: (
            member[1].grid, member[1].model, member[1].solver, member[1].mesh)):
        group = list(members)
        try:
            solved = _solve_streamed([cfg for _, cfg in group])
        except SolveError as err:
            raise RuntimeError(f"sweep member {group[err.start][0]}: {err}") from err
        rows += [_sweep_row(label, run_scenario(cfg, solved=member))
                 for (label, cfg), member in zip(group, solved)]
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


def convergence_study(cfg: ScenarioConfig, levels: int) -> Iterator[ConvergenceRow]:
    """Errors of the computed varentropy against the closed-form law under
    simultaneous halving of the grid spacing and the time step, one row per
    level, yielded as that level's solve finishes.

    Only defined for scenarios that have that law (``ScenarioConfig.exact``:
    a linear drift from one Gaussian component). The observed
    order for level k compares errors at levels k-1 and k; with two levels a
    single ratio is reported. Each level is the config with the refined
    grid and step and no Monte Carlo block, so it solves the sample times.
    Each refusal is a ``ConfigError``, raised when this is called, before
    any solve: too few levels, a config without a closed-form law, or a
    level that construction refuses, such as a solve too long to take.
    """
    if levels < 2:
        raise ConfigError(f"--levels: need at least 2 levels, got {levels}")
    bench = cfg.exact()
    if bench is None:
        raise ConfigError("config: the convergence study requires a closed-form law: "
                          "a linear drift and a one-component Gaussian start")
    ladder = []
    for level in range(levels):
        grid = make_uniform_grid(cfg.grid.lo, cfg.grid.hi, (cfg.grid.n - 1) * 2**level + 1)
        solver = replace(cfg.solver, dt=cfg.solver.dt / 2**level)
        try:
            ladder.append(replace(cfg, grid=grid, solver=solver, mc=None))
        except ConfigError as err:
            # a solve too long to take is named by the solver's own message
            reason = err.__cause__ or err
            raise ConfigError(f"--levels: level {level} of {levels}: {reason}") from err
    exact = np.array([bench.varentropy(t) for t in cfg.time_samples().tolist()])
    return _convergence_rows(ladder, exact)


def _convergence_rows(ladder: Sequence[ScenarioConfig],
                      exact: np.ndarray) -> Iterator[ConvergenceRow]:
    prev_err = None
    for level, refined in enumerate(ladder):
        (solved,) = _solve_streamed([refined])
        err = _worst(np.abs(solved.report.varentropy - exact))
        order = None
        if prev_err is not None:
            order = math.log2(prev_err / err) if err > 0 else math.inf
        yield ConvergenceRow(level, refined.grid.n, refined.solver.dt, err, order)
        prev_err = err


def write_convergence_csv(rows: list[ConvergenceRow], path: str | Path):
    _write_csv(
        Path(path),
        ("level", "n_nodes", "dt", "max_abs_error", "observed_order"),
        ((r.level, r.n_nodes, r.dt, r.max_abs_error, r.observed_order) for r in rows),
    )
