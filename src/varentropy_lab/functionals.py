"""Scalar functionals of a density relative to a stationary density.

Everything is built from the local free energy, the nodewise log ratio
``logratio = ln r`` with ``r = p / pbar``:

* relative entropy: its mean under ``p``, summed as an f-divergence;
* relative Fisher information: the mean of its squared slope, which sets the
  entropy decay rate ``-(sigma^2 / 2) * fisher``;
* varentropy: its variance under ``p``;
* the varentropy rate formula
  ``sigma^2 * E[(-(logratio - mean) - 1) * slope^2]``, cross-checkable
  against :func:`central_difference` of the varentropy along a trajectory.

One kernel computes all of them for a block of states, one state per row of
an array: :func:`report` walks a trajectory's array in blocks of rows, and
each scalar function passes it a block of one row. A row's values do not
depend on the block it is in.

No integrand of the entropy, Fisher information or centred varentropy is
negative at any node, in floating point too, so nothing is clamped; near
equilibrium the entropy's O((r - 1)^2) terms track half the varentropy, not
the solve's rounding drift of the mass. All but the entropy exclude nodes
below a relative tail cut of ``p``, where huge logarithms meet vanishing weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    DEFAULT_LOG_FLOOR,
    DEFAULT_TAIL_CUT,
    Density,
    DensityTrajectory,
    Grid,
    gradient_rows,
    integrate_rows,
)


#: Bytes of each scratch array of the kernel in :func:`report`, which sets
#: how many trajectory rows one pass takes (:func:`block_rows`): 65 at 501
#: nodes, 10 at 3201. A block's four float arrays and its rows of the
#: trajectory then fit in a 2 MB L2 cache; a wider block measured no faster
#: at 501 nodes and slower at 3201, and a narrower one spreads numpy's
#: per-call cost over fewer rows.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True, slots=True, eq=False)
class FunctionalReport:
    """All functionals of one trajectory, one column per field.

    Each column is a read-only float64 array with one entry per sample.
    ``varentropy_rate`` is the closed-form rate; the finite difference it is
    checked against is a property of the sampled trajectory, not of one
    state, and is :func:`central_difference` of the columns. Every number
    must be finite.
    """

    time: np.ndarray
    relative_entropy: np.ndarray
    relative_fisher: np.ndarray
    varentropy: np.ndarray
    entropy_rate: np.ndarray
    varentropy_rate: np.ndarray

    #: The columns, in field order.
    FIELDS = ("time", "relative_entropy", "relative_fisher", "varentropy", "entropy_rate",
              "varentropy_rate")

    def __post_init__(self):
        shape = (np.size(self.time),)
        for field in self.FIELDS:
            column = np.array(getattr(self, field), dtype=np.float64)
            if column.shape != shape:
                raise ValueError(f"{field}: expected shape {shape}, got {column.shape}")
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                raise ValueError(f"{field}[{bad[0]}] = {column[bad[0]]}: must be finite")
            column.flags.writeable = False
            object.__setattr__(self, field, column)
        if ((self.relative_entropy < 0.0).any() or (self.relative_fisher < 0.0).any()
                or (self.varentropy < 0.0).any()):
            raise ValueError("entropy, Fisher information and varentropy must be >= 0")
        if (self.entropy_rate > 0.0).any():
            raise ValueError("entropy rate must be <= 0")

    def __len__(self) -> int:
        return len(self.time)


def central_difference(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Central differences of ``values`` over ``times`` at the interior samples."""
    return (values[2:] - values[:-2]) / (times[2:] - times[:-2])


def _check_sigma(sigma: float):
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")


def _buffers(rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch arrays of :func:`_block_terms` for up to ``rows`` states of
    ``n`` nodes: a ``(4, rows, n)`` float array, whose planes hold the
    weight, then products, the log ratio and the squared slope, and the
    tail mask."""
    return np.empty((4, rows, n)), np.empty((rows, n), dtype=bool)


def _block_terms(values: np.ndarray, floored_pbar: np.ndarray, grid: Grid,
                 buffers: tuple[np.ndarray, ...], out: np.ndarray):
    """Everything the functionals need from a block of states, in one pass.

    ``values`` holds one state per row, ``floored_pbar`` is the stationary
    density raised to ``DEFAULT_LOG_FLOOR`` and ``buffers`` comes from
    :func:`_buffers` with at least as many rows as ``values``; every
    nodewise term is written into it. Writes, per row, ``entropy, fisher,
    varentropy, rate_integral`` into the four rows of ``out``, a ``(4,
    len(values))`` array, with the varentropy rate equal to ``sigma**2 *
    rate_integral``; the public functions and :func:`report` all read their
    values from here. Each nodewise term is the one a single row would get
    and each integral sums one contiguous row, so a row's values do not
    depend on its block. The Fisher, varentropy and rate integrands end in
    the last three planes of the float buffer, in the order of ``out``, and
    one call integrates them all.
    """
    planes, mask = buffers[0][:, :len(values)], buffers[1][:len(values)]
    weight, product, logratio, slope_sq = planes
    np.maximum(values, DEFAULT_LOG_FLOOR, out=product)
    product /= floored_pbar
    np.log(product, out=logratio)
    # pbar * (r ln r - (r - 1)) with r = p / pbar, non-negative node by node
    np.multiply(product, logratio, out=slope_sq)
    product -= 1.0
    slope_sq -= product
    slope_sq *= floored_pbar
    out[0] = integrate_rows(slope_sq, grid)
    np.greater_equal(values, DEFAULT_TAIL_CUT * values.max(axis=1, keepdims=True), out=mask)
    # p where the mask holds, else 0: a non-negative p times 1 or 0
    np.multiply(values, mask, out=weight)
    mean = integrate_rows(np.multiply(logratio, weight, out=product), grid)
    gradient_rows(logratio, grid, out=slope_sq)
    np.multiply(slope_sq, slope_sq, out=slope_sq)
    np.multiply(slope_sq, weight, out=product)  # the Fisher integrand
    np.subtract(logratio, mean[:, None], out=slope_sq)
    np.multiply(slope_sq, slope_sq, out=logratio)
    logratio *= weight  # the varentropy integrand
    # -1 - centred and -centred - 1 are one rounding of the same number; the
    # bracket multiplies the Fisher integrand slope^2 * weight
    np.subtract(-1.0, slope_sq, out=slope_sq)
    slope_sq *= product  # the rate integrand
    out[1:] = integrate_rows(planes[1:], grid)


def _state_terms(p: Density, pbar: Density) -> tuple[float, float, float, float]:
    """:func:`_block_terms` of the one state ``p``."""
    if p.grid != pbar.grid:
        raise ValueError("grid mismatch between densities")
    floored_pbar = np.maximum(pbar.values, DEFAULT_LOG_FLOOR)
    out = np.empty((4, 1))
    _block_terms(p.values[None, :], floored_pbar, p.grid, _buffers(1, p.grid.n), out)
    return tuple(out[:, 0].tolist())


def relative_entropy(p: Density, pbar: Density) -> float:
    """The f-divergence ``integral of pbar * (r ln r - (r - 1))``, ``r = p / pbar``, in
    nats: at equal masses the Kullback-Leibler divergence of ``p`` from ``pbar``."""
    return _state_terms(p, pbar)[0]


def relative_fisher(p: Density, pbar: Density) -> float:
    """Relative Fisher information: mean squared slope of the log ratio."""
    return _state_terms(p, pbar)[1]


def varentropy(p: Density, pbar: Density) -> float:
    """Variance of the log ratio under ``p``, centred: the mean of ``(logratio - mean)^2``."""
    return _state_terms(p, pbar)[2]


def varentropy_rate(p: Density, pbar: Density, sigma: float) -> float:
    """Instantaneous rate of change of the varentropy.

    Computed as

        sigma^2 * integral of (-(logratio - mean) - 1) * slope^2 * p dx

    with ``mean`` the mean log ratio under ``p``. The bracket has no definite
    sign, so unlike the entropy rate this can be positive.
    """
    _check_sigma(sigma)
    return sigma**2 * _state_terms(p, pbar)[3]


def report(traj: DensityTrajectory, pbar: Density, sigma: float) -> FunctionalReport:
    """Evaluate every functional at every trajectory sample.

    The trajectory's array goes through the shared kernel in blocks of as
    many rows as ``_BLOCK_BYTES`` holds, into scratch arrays allocated once
    per call, so each state's log ratio, tail mask and slope are computed once
    and numpy is called once per block, not once per state; every value
    equals what the public scalar functions return for that state, so the
    reports of a trajectory's segments, joined, are the report of the whole.
    """
    if pbar.grid != traj.grid:
        raise ValueError("grid mismatch between trajectory and stationary density")
    _check_sigma(sigma)
    floored_pbar = np.maximum(pbar.values, DEFAULT_LOG_FLOOR)
    block = block_rows(traj.grid.n)
    buffers = _buffers(min(len(traj), block), traj.grid.n)
    terms = np.empty((4, len(traj)))
    for start in range(0, len(traj), block):
        _block_terms(traj.values[start:start + block], floored_pbar, traj.grid, buffers,
                     terms[:, start:start + block])
    entropy, fisher, variance, rate_integral = terms
    return FunctionalReport(traj.times, entropy, fisher, variance, -0.5 * sigma**2 * fisher,
                            sigma**2 * rate_integral)


def block_rows(n: int) -> int:
    """States of ``n`` nodes that one pass of the kernel in :func:`report`
    takes: as many rows as ``_BLOCK_BYTES`` holds, at least one."""
    return max(1, _BLOCK_BYTES // (8 * n))

