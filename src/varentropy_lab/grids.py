"""Uniform 1-D grids, gridded probability densities, and the small set of
numerical primitives (trapezoid quadrature, finite differencing, guarded
log-ratios) that the rest of the library is built on.

All values are plain float64 numpy arrays; every public function is pure and
every container is immutable after construction, so everything here is safe
to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

#: Default relative mass tolerance accepted when validating a Density.
DEFAULT_MASS_TOL = 1e-6

#: Default floor used inside logarithms of density ratios.
DEFAULT_LOG_FLOOR = 1e-300

#: Default relative tail cut: nodes where a density falls below this fraction
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


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid-rule integral of nodal values over the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"length mismatch: expected {grid.n} values, got {values.shape}")
    return float(grid.dx * (0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]))


def gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """First derivative: central differences inside, second-order one-sided
    stencils at the two boundary nodes."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"length mismatch: expected {grid.n} values, got {values.shape}")
    return np.gradient(values, grid.dx, edge_order=2)


def laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Second derivative: three-point central stencil inside, second-order
    one-sided four-point stencils at the boundaries."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"length mismatch: expected {grid.n} values, got {values.shape}")
    dx2 = grid.dx**2
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / dx2
    out[0] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]) / dx2
    out[-1] = (2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]) / dx2
    return out


@dataclass(frozen=True, eq=False)
class Density:
    """Non-negative, unit-mass probability density sampled on a grid.

    ``time`` tags the model time the density belongs to. Construction
    validates finiteness, non-negativity and total mass (trapezoid rule)
    against ``mass_tol``. ``values`` is read-only, so the mass integrated
    there is kept and returned by :meth:`mass`.
    """

    grid: Grid
    values: np.ndarray
    time: float = 0.0
    mass_tol: float = field(default=DEFAULT_MASS_TOL, repr=False)
    _mass: float = field(init=False, repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"length mismatch: grid has {self.grid.n} nodes, values has shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("density has non-finite values")
        if np.any(vals < 0.0):
            raise ValueError(f"density has negative values (min {vals.min():.3e})")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        mass = integrate(vals, self.grid)
        if abs(mass - 1.0) > self.mass_tol:
            raise ValueError(f"density mass {mass!r} outside 1 +/- {self.mass_tol}")
        object.__setattr__(self, "_mass", mass)

    def mass(self) -> float:
        return self._mass

    def mean(self) -> float:
        return integrate(self.grid.x * self.values, self.grid)

    def variance(self) -> float:
        mu = self.mean()
        return integrate((self.grid.x - mu) ** 2 * self.values, self.grid)

    def at_time(self, time: float) -> "Density":
        """Same values tagged with a different model time."""
        return Density(self.grid, self.values, time=float(time), mass_tol=self.mass_tol)


@dataclass(frozen=True, eq=False)
class DensityTrajectory:
    """Sequence of densities on one grid at strictly increasing times."""

    times: np.ndarray
    states: tuple[Density, ...]

    def __post_init__(self):
        times = np.array(self.times, dtype=float, copy=True)
        states = tuple(self.states)
        if times.ndim != 1 or len(times) != len(states):
            raise ValueError("times and states must have equal length")
        if len(times) and np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        grid = states[0].grid if states else None
        for t, s in zip(times, states):
            if s.grid is not grid and s.grid != grid:
                raise ValueError("all states must share one grid")
            if abs(s.time - t) > 1e-9:
                raise ValueError(f"state time {s.time} does not match mesh time {t}")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> Density:
        return self.states[i]


def safe_log_ratio(p: Density, q: Density, floor: float = DEFAULT_LOG_FLOOR) -> np.ndarray:
    """Nodewise ``ln(max(p, floor) / max(q, floor))``.

    The floor keeps the logarithm finite where either density underflows;
    callers combining the result with tail-sensitive integrals should also
    apply :func:`support_mask`.
    """
    if p.grid != q.grid:
        raise ValueError("grid mismatch between densities")
    if not floor > 0.0:
        raise ValueError(f"floor must be positive, got {floor}")
    return np.log(np.maximum(p.values, floor) / np.maximum(q.values, floor))


def support_mask(p: Density, rel_cut: float = DEFAULT_TAIL_CUT) -> np.ndarray:
    """Boolean mask of nodes where ``p`` exceeds ``rel_cut * max(p)``."""
    return p.values >= rel_cut * p.values.max()


def normalized_density(grid: Grid, values: np.ndarray, time: float = 0.0) -> Density:
    """Normalize a non-negative, not identically zero vector into a Density."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"length mismatch: expected {grid.n} values, got {values.shape}")
    if np.any(values < 0.0):
        raise ValueError("cannot normalize a vector with negative entries")
    mass = integrate(values, grid)
    if mass <= 0.0:
        raise ValueError("cannot normalize a vector with zero mass")
    return Density(grid, values / mass, time=time)


def _check_gaussian_parameters(mean: float, variance: float):
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean}")
    if not math.isfinite(variance):
        raise ValueError(f"variance must be finite, got {variance}")
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")


def gaussian_density(grid: Grid, mean: float, variance: float, time: float = 0.0) -> Density:
    """Gaussian density sampled on the grid and renormalized by quadrature."""
    _check_gaussian_parameters(mean, variance)
    z = (grid.x - mean) ** 2 / (2.0 * variance)
    values = np.exp(-z) / np.sqrt(2.0 * np.pi * variance)
    return normalized_density(grid, values, time=time)


def mixture_density(
    grid: Grid,
    components: Iterable[tuple[float, float, float]],
    time: float = 0.0,
) -> Density:
    """Gaussian mixture from ``(weight, mean, variance)`` triples.

    Weights must be positive and sum to one.
    """
    components = list(components)
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.array([c[0] for c in components], dtype=float)
    if not np.all(weights > 0.0):
        raise ValueError("mixture weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {weights.sum()!r}, expected 1")
    values = np.zeros(grid.n)
    for w, mu, var in components:
        _check_gaussian_parameters(mu, var)
        values += w * np.exp(-((grid.x - mu) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return normalized_density(grid, values, time=time)


def gaussian_mass_outside(lo: float, hi: float, mean: float, variance: float) -> float:
    """Exact mass of a Gaussian outside ``[lo, hi]`` (via the error function)."""
    from math import erfc, sqrt

    s = sqrt(2.0 * variance)
    return 0.5 * erfc((hi - mean) / s) + 0.5 * erfc((mean - lo) / s)
