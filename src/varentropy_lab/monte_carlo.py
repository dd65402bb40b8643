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
sequential one vectorizes over paths at each step instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .drifts import GradientDrift, backward_drift_on_grid
from .grids import (
    DEFAULT_LOG_FLOOR,
    Density,
    DensityTrajectory,
    Grid,
    gradient,
    make_uniform_grid,
    safe_log_ratio,
)

#: Bins with fewer samples than this report no estimate.
DEFAULT_MIN_COUNT = 50


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Seeded ensemble of sample paths stored at uniformly spaced times."""

    times: np.ndarray
    paths: np.ndarray  # shape (n_paths, n_times)
    seed: int
    model: GradientDrift

    def __post_init__(self):
        times = np.array(self.times, dtype=float, copy=True)
        paths = np.array(self.paths, dtype=float, copy=True)
        if paths.ndim != 2 or paths.shape[1] != len(times):
            raise ValueError("paths must be (n_paths, n_times) matching times")
        steps = np.diff(times)
        if len(steps) and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("stored times must be uniformly spaced")
        times.flags.writeable = False
        paths.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "paths", paths)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dt(self) -> float:
        """Spacing of the stored times."""
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True, eq=False)
class BinnedEstimate:
    """Binned conditional-mean estimate with per-bin standard errors.

    ``values`` and ``std_errors`` are NaN on bins with fewer than
    ``min_count`` samples; ``defined`` masks the usable bins.
    """

    bin_centers: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    std_errors: np.ndarray
    min_count: int = DEFAULT_MIN_COUNT

    @property
    def defined(self) -> np.ndarray:
        return self.counts >= self.min_count

    def pooled_standard_error(self) -> float:
        """Count-weighted root mean square of the per-bin standard errors."""
        d = self.defined
        if not np.any(d):
            raise ValueError("no bins reach the minimum count")
        c = self.counts[d]
        return float(np.sqrt(np.sum(c * self.std_errors[d] ** 2) / c.sum()))


def _sample_initial(init: Density, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from a gridded density by piecewise-linear inversion of its CDF."""
    cell_mass = 0.5 * init.grid.dx * (init.values[1:] + init.values[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(cell_mass)])
    cdf /= cdf[-1]
    return np.interp(rng.uniform(size=n_paths), cdf, init.grid.x)


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Reflect positions into [lo, hi], matching the zero-flux grid boundary."""
    # a single step rarely overshoots by more than one domain width, but
    # iterate to be safe with large dt
    for _ in range(100):
        below = x < lo
        above = x > hi
        if not (below.any() or above.any()):
            return x
        x = np.where(below, 2.0 * lo - x, x)
        x = np.where(above, 2.0 * hi - x, x)
    raise RuntimeError("reflection failed to terminate; dt is far too large")


def simulate_ensemble(
    model: GradientDrift,
    init: Density,
    dt: float,
    t_end: float,
    n_paths: int,
    seed: int,
    store_every: int = 1,
) -> PathEnsemble:
    """Simulate ``n_paths`` Euler-Maruyama paths from ``init``.

    Initial states are drawn by inverse-CDF sampling of the gridded density,
    so ensembles and grid solves share exactly the same initial law. Paths
    reflect at the grid boundaries. ``t_end`` must be an integer multiple of
    ``dt`` and the step count a multiple of ``store_every``; only every
    ``store_every``-th step is stored.
    """
    if not dt > 0.0:
        raise ValueError(f"invalid step: dt must be positive, got {dt}")
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"invalid step: t_end={t_end} is not a multiple of dt={dt}")
    if store_every < 1 or n_steps % store_every:
        raise ValueError(
            f"store_every={store_every} must divide the {n_steps} steps"
        )

    rng = np.random.default_rng(seed)
    lo, hi = init.grid.lo, init.grid.hi
    x = _sample_initial(init, n_paths, rng)
    stored = [x.copy()]
    root_dt = math.sqrt(dt)
    for k in range(1, n_steps + 1):
        x = x + model.drift(x) * dt + model.sigma * root_dt * rng.standard_normal(n_paths)
        x = _reflect(x, lo, hi)
        if k % store_every == 0:
            stored.append(x.copy())
    times = init.time + dt * store_every * np.arange(len(stored))
    return PathEnsemble(times=times, paths=np.column_stack(stored), seed=seed, model=model)


def _bin_statistics(
    positions: np.ndarray,
    samples: np.ndarray,
    edges: np.ndarray,
    min_count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts, means and standard errors of ``samples`` binned by ``positions``."""
    n_bins = len(edges) - 1
    idx = np.searchsorted(edges, positions, side="right") - 1
    ok = (idx >= 0) & (idx < n_bins)
    idx = idx[ok]
    samples = samples[ok]
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=samples, minlength=n_bins)
    squares = np.bincount(idx, weights=samples**2, minlength=n_bins)
    safe = np.maximum(counts, 1)
    means = sums / safe
    variances = np.maximum(squares / safe - means**2, 0.0)
    std_errors = np.sqrt(variances / np.maximum(counts - 1, 1))
    undefined = counts < min_count
    means[undefined] = np.nan
    std_errors[undefined] = np.nan
    return counts, means, std_errors


def estimate_backward_drift(
    ens: PathEnsemble,
    t_index: int,
    bins: Grid,
    min_count: int = DEFAULT_MIN_COUNT,
) -> BinnedEstimate:
    """Binned means of backward increments ``(X_t - X_{t-dt}) / dt`` given
    the bin of ``X_t``.

    As the step shrinks the conditional means converge to the backward drift
    at the bin centers. Bin edges are the nodes of ``bins``.
    """
    if not 1 <= t_index < len(ens.times):
        raise IndexError(f"t_index must lie in [1, {len(ens.times) - 1}], got {t_index}")
    here = ens.paths[:, t_index]
    increments = (here - ens.paths[:, t_index - 1]) / ens.dt
    counts, means, ses = _bin_statistics(here, increments, bins.x, min_count)
    centers = 0.5 * (bins.x[1:] + bins.x[:-1])
    return BinnedEstimate(centers, means, counts, ses, min_count)


def duality_residual(est: BinnedEstimate, model: GradientDrift, p_t: Density) -> float:
    """Count-weighted RMS misfit between the binned backward-increment means
    and the backward drift computed from the density.

    Under the duality between the two time directions this is statistical
    noise: at most a few pooled standard errors.
    """
    d = est.defined
    if not np.any(d):
        raise ValueError("no bins reach the minimum count")
    target = np.interp(est.bin_centers[d], p_t.grid.x, backward_drift_on_grid(model, p_t))
    c = est.counts[d]
    return float(np.sqrt(np.sum(c * (est.values[d] - target) ** 2) / c.sum()))


@dataclass(frozen=True)
class MartingaleRow:
    """Diagnostic of the reverse-time martingale ratio at one sample time."""

    time: float
    mean_ratio: float
    se_ratio: float
    cond_residual: Optional[float]
    cond_pooled_se: Optional[float]


def martingale_diagnostic(
    ens: PathEnsemble,
    traj: DensityTrajectory,
    pbar: Density,
    bins: Grid | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
) -> list[MartingaleRow]:
    """Empirical check that ``pbar(X_t) / p_t(X_t)`` is a reverse-time
    martingale.

    At every stored time the sample mean of the ratio is reported with its
    standard error (population value 1). At every time with a stored
    predecessor the conditional check bins paths by the current state and
    compares the bin means of the ratio at the earlier time against the bin
    means at the current time over the same paths; their difference is
    conditionally centered, and the count-weighted RMS over bins is reported
    with the pooled standard error of the per-bin differences.

    The ratio can be heavy-tailed when ``p_t`` is much narrower than
    ``pbar``, which inflates ``se_ratio``; the conditional statistic is
    binned and does not suffer from this.
    """
    if len(ens.times) != len(traj.times) or not np.allclose(
        ens.times, traj.times, rtol=1e-9, atol=1e-12
    ):
        raise ValueError("time mesh mismatch between ensemble and trajectory")
    if pbar.grid != traj.grid:
        raise ValueError("grid mismatch between trajectory and stationary density")
    if bins is None:
        bins = make_uniform_grid(traj.grid.lo, traj.grid.hi, 41)

    grid_x = traj.grid.x
    n = ens.n_paths
    ratios = []
    for k in range(len(traj)):
        num = np.interp(ens.paths[:, k], grid_x, pbar.values)
        den = np.maximum(
            np.interp(ens.paths[:, k], grid_x, traj[k].values), DEFAULT_LOG_FLOOR
        )
        ratios.append(num / den)

    rows: list[MartingaleRow] = []
    for k in range(len(traj)):
        ratio = ratios[k]
        mean = float(ratio.mean())
        se = float(ratio.std(ddof=1) / math.sqrt(n))
        cond_res = cond_pooled = None
        if k >= 1:
            diff = ratios[k - 1] - ratio
            counts, means, ses = _bin_statistics(
                ens.paths[:, k], diff, bins.x, min_count
            )
            d = counts >= min_count
            if np.any(d):
                c = counts[d]
                cond_res = float(np.sqrt(np.sum(c * means[d] ** 2) / c.sum()))
                cond_pooled = float(np.sqrt(np.sum(c * ses[d] ** 2) / c.sum()))
        rows.append(MartingaleRow(float(ens.times[k]), mean, se, cond_res, cond_pooled))
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


def mc_functionals(
    ens: PathEnsemble,
    traj: DensityTrajectory,
    pbar: Density,
    t_index: int,
) -> MCFunctionals:
    """Monte Carlo estimates of relative entropy, varentropy and the
    varentropy rate at one stored time.

    The log ratio and its slope are evaluated on the grid and linearly
    interpolated at the path positions. The rate standard error treats the
    plugged-in mean as exact; its sampling error is second order in 1/n.
    """
    if not 0 <= t_index < len(ens.times):
        raise IndexError(f"t_index must lie in [0, {len(ens.times) - 1}], got {t_index}")
    if len(ens.times) != len(traj.times) or not np.allclose(
        ens.times, traj.times, rtol=1e-9, atol=1e-12
    ):
        raise ValueError("time mesh mismatch between ensemble and trajectory")

    p_t = traj[t_index]
    logratio = safe_log_ratio(p_t, pbar)
    slope = gradient(logratio, p_t.grid)
    x = ens.paths[:, t_index]
    lr = np.interp(x, p_t.grid.x, logratio)
    sl = np.interp(x, p_t.grid.x, slope)
    n = ens.n_paths

    entropy = float(lr.mean())
    entropy_se = float(lr.std(ddof=1) / math.sqrt(n))
    varent = float(lr.var(ddof=1))
    centered = lr - lr.mean()
    varent_se = float(
        math.sqrt(max((centered**4).mean() - varent**2, 0.0) / n)
    )
    integrand = ens.model.sigma**2 * (-lr - 1.0 + entropy) * sl**2
    rate = float(integrand.mean())
    rate_se = float(integrand.std(ddof=1) / math.sqrt(n))
    return MCFunctionals(
        time=float(ens.times[t_index]),
        relative_entropy=entropy,
        relative_entropy_se=entropy_se,
        varentropy=varent,
        varentropy_se=varent_se,
        varentropy_rate=rate,
        varentropy_rate_se=rate_se,
    )
