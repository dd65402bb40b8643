"""Uniform 1-D grids, gridded probability densities, trajectories of them,
and the small set of numerical primitives (trapezoid quadrature, finite
differencing, guarded log-ratios) that the rest of the library is built on.

All values are plain float64 numpy arrays; every public function is pure and
every container is immutable after construction, so everything here is safe
to share across threads. A trajectory is one read-only ``(times x nodes)``
array, and each of its states is a view of one row. Quadrature
(:func:`integrate_rows`), differencing (:func:`gradient_rows`) and the
density checks (:func:`first_invalid_row`) work on such arrays row by row in
one pass; one density is the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

#: Largest ``|mass - 1|`` of a Density.
DEFAULT_MASS_TOL = 1e-6

#: Floor used inside logarithms of density ratios.
DEFAULT_LOG_FLOOR = 1e-300

#: Relative tail cut: nodes where a density falls below this fraction
#: of its maximum are excluded from log-ratio weighted integrals, whose
#: integrands are numerically meaningless in the far tails.
DEFAULT_TAIL_CUT = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` nodes on ``[lo, hi]``."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"invalid bounds: lo={self.lo} and hi={self.hi} must be finite")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"invalid bounds: the width hi - lo of lo={self.lo} and "
                             f"hi={self.hi} overflows")
        if not self.lo < self.hi:
            raise ValueError(f"invalid bounds: lo={self.lo} must be < hi={self.hi}")
        if self.n < 3:
            raise ValueError(f"invalid bounds: need n >= 3 nodes, got {self.n}")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Node positions; endpoints are exact."""
        nodes = np.linspace(self.lo, self.hi, self.n)
        nodes.flags.writeable = False
        return nodes


def make_uniform_grid(lo: float, hi: float, n: int) -> Grid:
    """Build a uniform grid, validating bounds and node count."""
    return Grid(float(lo), float(hi), int(n))


def integrate_rows(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Trapezoid-rule integral of every row of a ``(..., grid.n)`` array, one
    per index of its leading axes.

    The interior sum of each row runs over that row alone, so a row's
    integral does not depend on the other rows.
    """
    return grid.dx * (0.5 * values[..., 0] + values[..., 1:-1].sum(axis=-1)
                      + 0.5 * values[..., -1])


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid-rule integral of nodal values over the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"length mismatch: expected {grid.n} values, got {values.shape}")
    return float(integrate_rows(values[None, :], grid)[0])


def gradient_rows(values: np.ndarray, grid: Grid, out: Optional[np.ndarray] = None) -> np.ndarray:
    """First derivative of every row of a ``(rows, grid.n)`` array: central
    differences inside, second-order one-sided stencils at the two boundary
    nodes.

    This is numpy's own uniform-spacing stencil of ``np.gradient(...,
    edge_order=2)``, coefficient for coefficient and in the same order, so
    the result is bit-identical to it without its per-call setup. The result
    goes into ``out`` when it is given: a C-contiguous float array of the
    shape of ``values`` that does not overlap it.
    """
    dx = grid.dx
    if out is None:
        out = np.empty(values.shape)
    elif out.shape != values.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous of shape {values.shape}, got {out.shape}")
    # central differences in one pass over the rows laid end to end, which
    # halves its cost against a pass per row; the differences that straddle
    # two rows land on boundary nodes, which the stencils below overwrite
    flat = np.ascontiguousarray(values).reshape(-1)
    interior = np.subtract(flat[2:], flat[:-2], out=out.reshape(-1)[1:-1])
    interior /= 2.0 * dx
    out[:, 0] = (
        (-1.5 / dx) * values[:, 0] + (2.0 / dx) * values[:, 1] + (-0.5 / dx) * values[:, 2]
    )
    out[:, -1] = (
        (0.5 / dx) * values[:, -3] + (-2.0 / dx) * values[:, -2] + (1.5 / dx) * values[:, -1]
    )
    return out


def gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """First derivative of nodal values: :func:`gradient_rows` of one row."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"length mismatch: expected {grid.n} values, got {values.shape}")
    return gradient_rows(values[None, :], grid)[0]


def first_invalid_row(
    values: np.ndarray, masses: np.ndarray, mass_tol: float
) -> Optional[tuple[tuple[int, ...], str]]:
    """Index of the first row of a ``(..., n)`` array ``values`` that is not a
    density, and why; the index has one entry per leading axis, and rows are
    taken in C order, the last leading axis fastest.

    A row must be finite, non-negative and of mass (``masses``, from
    :func:`integrate_rows`) within ``mass_tol`` of one. Returns None when every
    row is. Each condition is one reduction over the whole array.
    """
    finite = np.isfinite(values).all(axis=-1)
    non_negative = ~(values < 0.0).any(axis=-1)
    bad = ~finite | ~non_negative | ~(np.abs(masses - 1.0) <= mass_tol)
    if not bad.any():
        return None
    at = tuple(int(k) for k in np.unravel_index(bad.argmax(), bad.shape))
    if not finite[at]:
        return at, "density has non-finite values"
    if not non_negative[at]:
        return at, f"density has negative values (min {values[at].min():.3e})"
    return at, f"density mass {float(masses[at])!r} outside 1 +/- {mass_tol}"


@dataclass(frozen=True, eq=False)
class Density:
    """Non-negative, unit-mass probability density sampled on a grid.

    Construction validates finiteness, non-negativity and total mass
    (trapezoid rule) within ``DEFAULT_MASS_TOL`` of one. ``values`` is
    read-only. A density holds no time: the trajectory or the solve mesh it
    belongs to does.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"length mismatch: grid has {self.grid.n} nodes, values has shape {vals.shape}"
            )
        masses = integrate_rows(vals[None, :], self.grid)
        problem = first_invalid_row(vals[None, :], masses, DEFAULT_MASS_TOL)
        if problem is not None:
            raise ValueError(problem[1])
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _checked(cls, grid: Grid, values: np.ndarray) -> "Density":
        """A density over read-only ``values`` whose checks the caller has
        already made: no copy, no second pass over the nodes."""
        out = object.__new__(cls)
        for name, value in (("grid", grid), ("values", values)):
            object.__setattr__(out, name, value)
        return out

    def mass(self) -> float:
        return integrate(self.values, self.grid)

    def mean(self) -> float:
        return integrate(self.grid.x * self.values, self.grid)

    def variance(self) -> float:
        mu = self.mean()
        return integrate((self.grid.x - mu) ** 2 * self.values, self.grid)


@dataclass(frozen=True, eq=False, init=False)
class DensityTrajectory:
    """Densities on one grid at strictly increasing times, held as one
    read-only ``(len(times), grid.n)`` array.

    ``traj[k]``, the state at ``times[k]``, is a :class:`Density` over row
    ``k`` of that array: a read-only view, neither copied nor checked again,
    and the one record of its time is ``times``. ``states`` derives the
    tuple of all of them. Built from ``(times, states)``, the states are
    stacked once; the solver and its stream build a trajectory from an
    array they have checked themselves.
    """

    times: np.ndarray
    grid: Grid
    values: np.ndarray

    def __init__(self, times: np.ndarray, states: Iterable[Density]):
        times = np.array(times, dtype=float, copy=True)
        states = tuple(states)
        if times.ndim != 1 or len(times) != len(states):
            raise ValueError("times and states must have equal length")
        if not states:
            raise ValueError("a trajectory needs at least one state")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        grid = states[0].grid
        for s in states:
            if s.grid is not grid and s.grid != grid:
                raise ValueError("all states must share one grid")
        self._set(times, grid, np.stack([s.values for s in states]))

    @classmethod
    def _from_rows(cls, times: np.ndarray, grid: Grid, values: np.ndarray) -> "DensityTrajectory":
        """A trajectory over rows the caller has checked to be densities."""
        out = object.__new__(cls)
        out._set(np.array(times, dtype=float, copy=True), grid, values)
        return out

    def _set(self, times, grid, values):
        for array in (times, values):
            array.flags.writeable = False
        for name, value in (("times", times), ("grid", grid), ("values", values)):
            object.__setattr__(self, name, value)

    @property
    def states(self) -> tuple[Density, ...]:
        return tuple(self[k] for k in range(len(self)))

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, k: int) -> Density:
        return Density._checked(self.grid, self.values[k])


def safe_log_ratio(p: Density, q: Density) -> np.ndarray:
    """Nodewise ``ln(max(p, DEFAULT_LOG_FLOOR) / max(q, DEFAULT_LOG_FLOOR))``.

    The floor keeps the logarithm finite where either density underflows;
    callers combining the result with tail-sensitive integrals should also
    apply :func:`support_mask`.
    """
    if p.grid != q.grid:
        raise ValueError("grid mismatch between densities")
    return np.log(
        np.maximum(p.values, DEFAULT_LOG_FLOOR) / np.maximum(q.values, DEFAULT_LOG_FLOOR)
    )


def support_mask(p: Density) -> np.ndarray:
    """Boolean mask of nodes where ``p`` reaches ``DEFAULT_TAIL_CUT * max(p)``."""
    return p.values >= DEFAULT_TAIL_CUT * p.values.max()


def normalized_density(grid: Grid, values: np.ndarray) -> Density:
    """Normalize a non-negative, not identically zero vector into a Density."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"length mismatch: expected {grid.n} values, got {values.shape}")
    if np.any(values < 0.0):
        raise ValueError("cannot normalize a vector with negative entries")
    mass = integrate(values, grid)
    if mass <= 0.0:
        raise ValueError("cannot normalize a vector with zero mass")
    return Density(grid, values / mass)


def gaussian_density(grid: Grid, mean: float, variance: float) -> Density:
    """Gaussian density sampled on the grid and renormalized by quadrature:
    the one-component :func:`mixture_density` of weight 1."""
    return mixture_density(grid, [(1.0, mean, variance)])


def checked_mixture(components: Iterable[tuple[float, float, float]]) -> list:
    """The ``(weight, mean, variance)`` triples of a Gaussian mixture, as a
    list: at least one, the weights positive and summing to one, every mean
    and variance finite and every variance positive."""
    components = list(components)
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.array([c[0] for c in components], dtype=float)
    if not np.all(weights > 0.0):
        raise ValueError("mixture weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {weights.sum()!r}, expected 1")
    for _, mean, variance in components:
        if not math.isfinite(mean):
            raise ValueError(f"mean must be finite, got {mean}")
        if not math.isfinite(variance):
            raise ValueError(f"variance must be finite, got {variance}")
        if variance <= 0.0:
            raise ValueError(f"variance must be positive, got {variance}")
    return components


def mixture_density(grid: Grid, components: Iterable[tuple[float, float, float]]) -> Density:
    """Gaussian mixture from ``(weight, mean, variance)`` triples, refused
    as :func:`checked_mixture` refuses them."""
    values = np.zeros(grid.n)
    for w, mu, var in checked_mixture(components):
        # a square past float range gives exp(-inf) = 0, the right limit
        with np.errstate(over="ignore"):
            values += w * np.exp(-((grid.x - mu) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return normalized_density(grid, values)


def gaussian_mass_outside(lo: float, hi: float, mean: float, variance: float) -> float:
    """Exact mass of a Gaussian outside ``[lo, hi]`` (via the error function)."""
    from math import erfc, sqrt

    s = sqrt(2.0 * variance)
    return 0.5 * erfc((hi - mean) / s) + 0.5 * erfc((mean - lo) / s)
