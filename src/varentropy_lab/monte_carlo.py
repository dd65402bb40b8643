"""Euler-Maruyama path ensembles and the empirical diagnostics built on them.

The estimators here provide statistically independent cross-checks of the
grid computations:

* binned conditional means of backward increments recover the backward drift
  ``b - sigma^2 d/dx ln p_t`` (duality between the forward and reverse-time
  representations of the diffusion);
* the ratio ``pbar(X_t) / p_t(X_t)`` is a reverse-time martingale: its mean
  is one and its conditional mean given the state at a later time equals the
  ratio there;
* sample means of the log ratio and its square reproduce the quadrature
  relative entropy, varentropy and varentropy rate.

Paths are advanced with a single seeded generator, so ensembles are
reproducible bit for bit from ``(seed, model, init, dt, t_end, n_paths)``.
A parallel implementation would need to partition the stream per path; this
sequential one vectorizes over paths at each step instead. The step updates
preallocated position, drift and noise buffers in place and reflects only
when some path has left the domain. :func:`ensemble_columns` is that one
loop: it yields the live position buffer at every stored step, so a
diagnostic that reads one column at a time (:func:`martingale_diagnostic`)
runs as the paths advance and no path array is held.
:func:`simulate_ensemble` returns the same columns as a read-only,
Fortran-ordered ``(n_paths, n_times)`` array, so every stored column is
contiguous, for the callers that want whole paths; the times of its columns
are :func:`ensemble_times` of the same step, horizon and stride.

Grids are uniform, so every lookup of a path position in a grid or a bin
array is index arithmetic, ``floor((x - lo) / dx)``, corrected by one
comparison on each side against the nodes (:func:`_nodes_at_or_below`).
The cell and offset of a stored column are found once (:func:`_locate`) and
reused for every gridded function interpolated there (:func:`_interp`),
bin centers too; both give exactly ``np.interp`` and ``np.searchsorted``. The
kernels take optional output buffers, so the loop over stored columns in
:func:`martingale_diagnostic` reuses one set of path-sized arrays. Both
binned statistics, the backward-increment means and the martingale's
conditional differences, are one :class:`BinnedEstimate` of
:func:`_bin_statistics`, whose residual and pooled standard error the
checks read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .drifts import GradientDrift, backward_drift_on_grid
from .grids import (
    DEFAULT_LOG_FLOOR,
    Density,
    DensityTrajectory,
    Grid,
    gradient,
    safe_log_ratio,
)

#: Bins with fewer samples than this report no estimate.
DEFAULT_MIN_COUNT = 50


@dataclass(frozen=True, eq=False)
class BinnedEstimate:
    """Binned conditional-mean estimate with per-bin standard errors.

    ``values`` and ``std_errors`` are NaN on bins with fewer than
    ``DEFAULT_MIN_COUNT`` samples; ``defined`` masks the usable bins.
    """

    bin_centers: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    std_errors: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return self.counts >= DEFAULT_MIN_COUNT

    def pooled_standard_error(self) -> float:
        """Count-weighted root mean square of the per-bin standard errors."""
        d = self._defined_or_raise()
        c = self.counts[d]
        return float(np.sqrt(np.sum(c * self.std_errors[d] ** 2) / c.sum()))

    def residual(self, target: np.ndarray | float) -> float:
        """Count-weighted RMS misfit between the defined bins' values and
        ``target``: one value per defined bin, or one for them all."""
        d = self._defined_or_raise()
        c = self.counts[d]
        return float(np.sqrt(np.sum(c * (self.values[d] - target) ** 2) / c.sum()))

    def _defined_or_raise(self) -> np.ndarray:
        d = self.defined
        if not np.any(d):
            raise ValueError("no bins reach the minimum count")
        return d


def _sample_initial(init: Density, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from a gridded density by piecewise-linear inversion of its CDF."""
    cell_mass = 0.5 * init.grid.dx * (init.values[1:] + init.values[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(cell_mass)])
    cdf /= cdf[-1]
    return np.interp(rng.uniform(size=n_paths), cdf, init.grid.x)


def _reflect(x: np.ndarray, lo: float, hi: float) -> None:
    """Reflect positions into [lo, hi] in place, matching the zero-flux grid
    boundary."""
    # a single step rarely overshoots by more than one domain width, but
    # iterate to be safe with large dt
    for _ in range(100):
        below = x < lo
        above = x > hi
        if not (below.any() or above.any()):
            return
        np.subtract(2.0 * lo, x, out=x, where=below)
        np.subtract(2.0 * hi, x, out=x, where=above)
    raise RuntimeError("reflection failed to terminate; dt is far too large")


def ensemble_times(dt: float, t_end: float, store_every: int = 1) -> np.ndarray:
    """Times at which :func:`simulate_ensemble` stores the paths of a run
    from 0 to ``t_end`` in steps of ``dt``, every ``store_every``-th step.
    ``t_end`` must be an integer multiple of ``dt`` and the step count a
    multiple of ``store_every``.
    """
    if not dt > 0.0:
        raise ValueError(f"invalid step: dt must be positive, got {dt}")
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"invalid step: t_end={t_end} is not a multiple of dt={dt}")
    if store_every < 1 or n_steps % store_every:
        raise ValueError(
            f"must divide the {n_steps} steps of t_end / dt, got store_every={store_every}"
        )
    return dt * store_every * np.arange(n_steps // store_every + 1)


def ensemble_columns(
    model: GradientDrift,
    init: Density,
    dt: float,
    t_end: float,
    n_paths: int,
    seed: int,
    store_every: int = 1,
) -> Iterator[tuple[int, np.ndarray]]:
    """Advance ``n_paths`` Euler-Maruyama paths from ``init``, yielding
    ``(k, x)`` at the ``k``-th stored time of :func:`ensemble_times`.

    ``x`` is the live position buffer: the next step overwrites it, so a
    caller that keeps a column copies it. Initial states are drawn by
    inverse-CDF sampling of the gridded density, so ensembles and grid
    solves share exactly the same initial law. Paths reflect at the grid
    boundaries. ``t_end`` must be an integer multiple of ``dt`` and the step
    count a multiple of ``store_every``; the arguments are checked when this
    is called, not when the first column is drawn.
    """
    n_stored = len(ensemble_times(dt, t_end, store_every)) - 1
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    return _euler_maruyama(model, init, dt, n_stored * store_every, n_paths, seed, store_every)


def _euler_maruyama(
    model: GradientDrift,
    init: Density,
    dt: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    store_every: int,
) -> Iterator[tuple[int, np.ndarray]]:
    rng = np.random.default_rng(seed)
    lo, hi = init.grid.lo, init.grid.hi
    x = _sample_initial(init, n_paths, rng)
    yield 0, x
    noise_scale = model.sigma * math.sqrt(dt)
    drift = np.empty(n_paths)
    noise = np.empty(n_paths)
    for k in range(1, n_steps + 1):
        # x + drift(x) * dt + sigma * sqrt(dt) * N(0, 1), rounded as written
        model.drift(x, out=drift)
        drift *= dt
        rng.standard_normal(out=noise)
        noise *= noise_scale
        x += drift
        x += noise
        if x.min() < lo or x.max() > hi:
            _reflect(x, lo, hi)
        if k % store_every == 0:
            yield k // store_every, x


def simulate_ensemble(
    model: GradientDrift,
    init: Density,
    dt: float,
    t_end: float,
    n_paths: int,
    seed: int,
    store_every: int = 1,
) -> np.ndarray:
    """Simulate ``n_paths`` Euler-Maruyama paths from ``init`` and return
    every column that :func:`ensemble_columns` yields with the same
    arguments, as a read-only, Fortran-ordered ``(n_paths, n_times)`` array.
    Column ``k`` holds the positions at ``ensemble_times(dt, t_end,
    store_every)[k]``.
    """
    columns = ensemble_columns(model, init, dt, t_end, n_paths, seed, store_every)
    paths = np.empty((n_paths, len(ensemble_times(dt, t_end, store_every))), order="F")
    for k, x in columns:
        paths[:, k] = x
    paths.flags.writeable = False
    return paths


def _nodes_at_or_below(
    x: np.ndarray, grid: Grid, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Number of nodes of ``grid`` at or below each position:
    ``np.searchsorted(grid.x, x, side="right")``, from 0 below ``lo`` to
    ``n`` at or past ``hi``.

    The uniform-spacing guess ``floor((x - lo) / dx) + 1`` is off by at most
    one from rounding; one comparison on each side against the nodes, padded
    with -inf and +inf, puts exact nodes and their neighbours where the
    binary search would. ``out`` (intp) and ``scratch`` (float, overwritten)
    are optional buffers shaped like ``x``.
    """
    nodes = np.concatenate(([-np.inf], grid.x, [np.inf]))
    guess = np.subtract(x, grid.lo, out=scratch)
    guess /= grid.dx
    np.floor(guess, out=guess)
    guess += 1.0
    np.clip(guess, 0, grid.n, out=guess)
    count = np.empty(x.shape, dtype=np.intp) if out is None else out
    count[...] = guess
    # every index is in range by construction; mode="clip" lets take write
    # into the buffer directly
    np.take(nodes, count, out=guess, mode="clip")
    count -= x < guess
    np.take(nodes[1:], count, out=guess, mode="clip")
    count += x >= guess
    return count


def _locate(
    x: np.ndarray, grid: Grid, j: np.ndarray | None = None, offset: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Cell ``j`` and offset ``x - grid.x[j]`` of each position, as
    ``np.interp``'s search picks them, for :func:`_interp`.

    A position at or past ``hi`` gets the last node, and one below ``lo``
    the first node at offset 0, so they evaluate to the end values as in
    ``np.interp``. ``j`` and ``offset`` are optional output buffers.
    """
    offset = np.empty(x.shape) if offset is None else offset
    j = _nodes_at_or_below(x, grid, out=j, scratch=offset)
    j -= 1
    np.maximum(j, 0, out=j)
    np.take(grid.x, j, out=offset, mode="clip")
    np.subtract(x, offset, out=offset)
    np.maximum(offset, 0.0, out=offset)
    return j, offset


def _interp(
    cells: tuple[np.ndarray, np.ndarray],
    fp: np.ndarray,
    grid: Grid,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``np.interp(x, grid.x, fp)`` at the positions ``cells = _locate(x, grid)``.

    Uses numpy's own formula ``slope[j] * (x - x[j]) + fp[j]`` with
    ``slope = (fp[j+1] - fp[j]) / (x[j+1] - x[j])``, so the values are
    bit-identical; the last node's slope is 0. ``out`` and ``scratch``
    (overwritten) are optional buffers shaped like the positions.
    """
    j, offset = cells
    nodes = grid.x
    slope = np.append((fp[1:] - fp[:-1]) / (nodes[1:] - nodes[:-1]), 0.0)
    out = np.take(slope, j, out=out, mode="clip")
    out *= offset
    out += np.take(fp, j, out=scratch, mode="clip")
    return out


def _bin_statistics(
    positions: np.ndarray,
    samples: np.ndarray,
    bins: Grid,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> BinnedEstimate:
    """Means, counts and standard errors of ``samples`` binned by
    ``positions`` into the cells between consecutive nodes of ``bins``.

    ``work`` is an optional pair of buffers shaped like ``positions``: one
    intp and one float, both overwritten.
    """
    idx, scratch = (None, None) if work is None else work
    # slot i + 1 holds bin i; the first and last slots collect the positions
    # below and beyond the bins and are dropped after counting
    idx = _nodes_at_or_below(positions, bins, out=idx, scratch=scratch)
    slots = bins.n + 1
    counts = np.bincount(idx, minlength=slots)[1:-1]
    sums = np.bincount(idx, weights=samples, minlength=slots)[1:-1]
    squares = np.bincount(
        idx, weights=np.square(samples, out=scratch), minlength=slots
    )[1:-1]
    safe = np.maximum(counts, 1)
    means = sums / safe
    variances = np.maximum(squares / safe - means**2, 0.0)
    std_errors = np.sqrt(variances / np.maximum(counts - 1, 1))
    undefined = counts < DEFAULT_MIN_COUNT
    means[undefined] = np.nan
    std_errors[undefined] = np.nan
    return BinnedEstimate(0.5 * (bins.x[1:] + bins.x[:-1]), means, counts, std_errors)


def estimate_backward_drift(
    before: np.ndarray, here: np.ndarray, dt: float, bins: Grid
) -> BinnedEstimate:
    """Binned means of backward increments ``(X_t - X_{t-dt}) / dt`` given
    the bin of ``X_t``.

    ``before`` and ``here`` hold the positions of the same paths at
    ``t - dt`` and ``t``: two consecutive stored columns, such as
    ``paths[:, k - 1]`` and ``paths[:, k]`` of :func:`simulate_ensemble`
    with ``store_every`` 1.
    As the step shrinks the conditional means converge to the backward drift
    at the bin centers. Bin edges are the nodes of ``bins``.
    """
    if np.shape(before) != np.shape(here) or np.ndim(here) != 1:
        raise ValueError(
            "need two columns of the same paths, got shapes "
            f"{np.shape(before)} and {np.shape(here)}"
        )
    return _bin_statistics(here, (here - before) / dt, bins)


def backward_drift_target(est: BinnedEstimate, model: GradientDrift, p_t: Density) -> np.ndarray:
    """The backward drift computed from the density, interpolated at the
    centers of the defined bins of ``est``: the values their means estimate."""
    centers = est.bin_centers[est.defined]
    return _interp(_locate(centers, p_t.grid), backward_drift_on_grid(model, p_t), p_t.grid)


@dataclass(frozen=True)
class MartingaleRow:
    """Diagnostic of the reverse-time martingale ratio at one sample time."""

    time: float
    mean_ratio: float
    se_ratio: float
    cond_residual: Optional[float]
    cond_pooled_se: Optional[float]


def martingale_diagnostic(
    columns: Iterable[np.ndarray],
    traj: DensityTrajectory,
    pbar: Density,
    bins: Grid,
) -> list[MartingaleRow]:
    """Empirical check that ``pbar(X_t) / p_t(X_t)`` is a reverse-time
    martingale.

    ``columns`` yields the positions of the same paths at each time of
    ``traj``, in order: ``paths.T`` for a stored ensemble, or the
    columns of :func:`ensemble_columns` as the paths advance. Each column is
    read once, before the next is drawn, and the stream must hold exactly
    ``len(traj)`` columns; a mismatch raises ``ValueError``.

    At every stored time the sample mean of the ratio is reported with its
    standard error (population value 1). At every time with a stored
    predecessor the conditional check bins paths by the current state into
the cells between the nodes of ``bins`` and
    compares the bin means of the ratio at the earlier time against the bin
    means at the current time over the same paths; their difference is
    conditionally centered, and the count-weighted RMS over bins is reported
    with the pooled standard error of the per-bin differences.

    The ratio can be heavy-tailed when ``p_t`` is much narrower than
    ``pbar``, which inflates ``se_ratio``; the conditional statistic is
    binned and does not suffer from this.
    """
    if pbar.grid != traj.grid:
        raise ValueError("grid mismatch between trajectory and stationary density")

    grid = traj.grid
    n_times = len(traj)
    rows: list[MartingaleRow] = []
    for k, x in enumerate(columns):
        if k == n_times:
            raise ValueError(
                f"time mesh mismatch: more columns than the {n_times} trajectory times"
            )
        if k == 0:
            n = len(x)
            # one set of buffers serves every stored column: a fresh
            # path-sized temporary costs more in page faults than the
            # arithmetic done on it
            cells = (np.empty(n, dtype=np.intp), np.empty(n))
            work = (np.empty(n, dtype=np.intp), np.empty(n))
            ratio, previous, den = np.empty(n), np.empty(n), np.empty(n)
        _locate(x, grid, *cells)
        _interp(cells, pbar.values, grid, out=ratio, scratch=den)
        _interp(cells, traj[k].values, grid, out=den, scratch=work[1])
        ratio /= np.maximum(den, DEFAULT_LOG_FLOOR, out=den)
        mean = float(ratio.mean())
        se = float(ratio.std(ddof=1) / math.sqrt(n))
        cond_res = cond_pooled = None
        if k >= 1:
            previous -= ratio
            est = _bin_statistics(x, previous, bins, work)
            if np.any(est.defined):
                cond_res, cond_pooled = est.residual(0.0), est.pooled_standard_error()
        rows.append(MartingaleRow(float(traj.times[k]), mean, se, cond_res, cond_pooled))
        ratio, previous = previous, ratio
    if len(rows) != n_times:
        raise ValueError(
            f"time mesh mismatch: {len(rows)} columns for {n_times} trajectory times"
        )
    return rows


@dataclass(frozen=True)
class MCFunctionals:
    """Sample-mean functional estimates with standard errors."""

    time: float
    relative_entropy: float
    relative_entropy_se: float
    varentropy: float
    varentropy_se: float
    varentropy_rate: float
    varentropy_rate_se: float


def mc_functionals(x: np.ndarray, p_t: Density, pbar: Density, sigma: float) -> MCFunctionals:
    """Monte Carlo estimates of relative entropy, varentropy and the
    varentropy rate at the time of ``p_t``, from the positions ``x`` of the
    paths at that time.

    The log ratio and its slope are evaluated on the grid and linearly
    interpolated at the path positions. The rate standard error treats the
    plugged-in mean as exact; its sampling error is second order in 1/n.
    """
    logratio = safe_log_ratio(p_t, pbar)
    slope = gradient(logratio, p_t.grid)
    cells = _locate(x, p_t.grid)
    lr = _interp(cells, logratio, p_t.grid)
    sl = _interp(cells, slope, p_t.grid)
    n = len(x)

    entropy = float(lr.mean())
    entropy_se = float(lr.std(ddof=1) / math.sqrt(n))
    varent = float(lr.var(ddof=1))
    centered = lr - lr.mean()
    varent_se = float(
        math.sqrt(max((centered**4).mean() - varent**2, 0.0) / n)
    )
    integrand = sigma**2 * (-lr - 1.0 + entropy) * sl**2
    rate = float(integrand.mean())
    rate_se = float(integrand.std(ddof=1) / math.sqrt(n))
    return MCFunctionals(
        time=p_t.time,
        relative_entropy=entropy,
        relative_entropy_se=entropy_se,
        varentropy=varent,
        varentropy_se=varent_se,
        varentropy_rate=rate,
        varentropy_rate_se=rate_se,
    )
