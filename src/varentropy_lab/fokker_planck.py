"""Conservative finite-volume integration of the drift-diffusion continuity
equation

    dp/dt = d/dx [ -b(x) p + (sigma^2 / 2) dp/dx ]

on a truncated interval with reflecting (zero-flux) boundaries, plus the
reverse-time harmonicity residual used to cross-check the backward-drift
representation of the same process.

The fluxes are discretized one way only, by the Chang-Cooper method (Chang
& Cooper, J. Comput. Phys. 6, 1970): exponentially fitted two-point fluxes,
the Scharfetter-Gummel weighting. The fitting weight on each cell is computed
from the exact potential difference across the cell, which makes the
grid-sampled stationary density an exact fixed point of the discrete
operator for every drift in :mod:`varentropy_lab.drifts`, not just
asymptotically. Time stepping is theta-weighted; when the explicit part of
the update would violate the positivity bound
``(1 - theta) * dt * max|diag| <= 1`` the step is transparently split into
equal substeps, so no step produces a negative node value.

Each step conserves trapezoid-rule mass to rounding because the update is
in flux form and the boundary fluxes are identically zero. :func:`solve`
writes its output times into one preallocated ``(times x nodes)`` array and
checks every row of it in one pass when stepping is done.

The implicit matrix ``I - theta dt L`` of a step depends only on the
generator, ``theta`` and the substep size ``dt``, and a run uses only a few
distinct substep sizes. Each generator therefore factors that tridiagonal
matrix once per ``(dt, theta)`` with LAPACK ``gttrf`` and reuses the factors
for every step of that size through ``gttrs`` (the LU / Thomas reuse for a
constant tridiagonal operator), together with the prebuilt coefficients of
the explicit stage. The number of cached sizes is bounded, so irregular
output meshes cannot grow memory.

The two LAPACK routines come from scipy's compiled f2py wrapper
``scipy/linalg/_flapack*.so``, the module that ``scipy.linalg.lapack``
re-exports, loaded on its own on the first factored step: importing them
through ``scipy.linalg`` would load that whole package as well. A scipy
that keeps no such file gets the public import instead; either way the same
compiled functions run.

One output interval is one kernel call: all its steps have one size, its
nominal steps each split into the same number of positivity substeps, so
the factored step is looked up once and every substep runs in place in a
state buffer that the generator holds, padded with one zero node at each
end. The explicit stage of a substep is one ``(3, n)`` coefficient array
times the three shifted windows of that buffer, summed over the three rows,
and ``gttrs`` then overwrites the buffer's interior with the solution.
Every product and sum rounds as in ``c_i v_i + l_i v_{i-1} + u_i v_{i+1}``
evaluated left to right, so the states do not depend on this layout.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .drifts import GradientDrift, backward_drift_on_grid
from .grids import (
    DEFAULT_LOG_FLOOR,
    DEFAULT_MASS_TOL,
    Density,
    DensityTrajectory,
    Grid,
    first_invalid_row,
    gradient,
    integrate,
    laplacian,
    integrate_rows,
    support_mask,
)

#: Most substep sizes whose factored step one generator keeps. The shipped
#: meshes need 8-10: ``linspace`` rounding makes equal-looking output
#: intervals differ in their last bits.
_STEP_CACHE_SIZE = 16


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping configuration of the Chang-Cooper flux discretization,
    the only one the solver has (see module docstring).

    dt:        nominal time step used for sub-stepping between output times.
    theta:     implicitness weight in [0, 1]; 1/2 is second order in time.
    mass_tol:  maximum |mass - 1| tolerated on any produced state.
    """

    dt: float
    theta: float = 0.5
    mass_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 < self.mass_tol < math.inf:
            raise ValueError(f"mass_tol must be positive and finite, got {self.mass_tol}")


def _flapack_spec():
    """The import spec of scipy's compiled LAPACK wrapper, found without
    importing scipy, or None when this scipy has no ``linalg/_flapack*.so``."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
    finder = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    return finder.find_spec("scipy.linalg._flapack")


@functools.cache
def _gt_routines():
    """LAPACK ``dgttrf`` and ``dgttrs``, loaded once per process (see the
    module docstring)."""
    spec = _flapack_spec()
    if spec is None:
        from scipy.linalg.lapack import dgttrf, dgttrs
        return dgttrf, dgttrs
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgttrf, flapack.dgttrs


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), the exponential-fitting weight, stable near 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-12
    out[small] = 1.0 - 0.5 * z[small]
    zs = z[~small]
    # a large potential drop overflows e^z to inf, and z / inf = 0 is the
    # right limit
    with np.errstate(over="ignore"):
        denominator = np.expm1(zs)
    out[~small] = zs / denominator
    return out


class _Generator:
    """Tridiagonal spatial generator L with dp/dt = L p, assembled once per
    (grid, model) and reused across steps.

    ``run`` keeps the factored step of each ``(dt, theta)``, at most
    ``_STEP_CACHE_SIZE`` of them, dropping the oldest when full, and steps
    the state in place in the generator's zero-padded buffer.
    """

    def __init__(self, grid: Grid, model: GradientDrift):
        x = grid.x
        dx = grid.dx
        diff = model.sigma**2 / 2.0
        # cell weight from the exact potential drop across the cell:
        # the discrete stationary state then reproduces exp(-2 Phi / sigma^2)
        # nodewise exactly.
        w = -2.0 * (model.potential(x[1:]) - model.potential(x[:-1])) / model.sigma**2
        a_edge = (diff / dx) * _bernoulli(-w)  # coefficient of p_i   in flux_{i+1/2}
        c_edge = (diff / dx) * _bernoulli(w)   # coefficient of p_{i+1} in flux_{i+1/2}

        # finite-volume cells: half cells at the two boundary nodes
        widths = np.full(grid.n, dx)
        widths[0] = widths[-1] = 0.5 * dx

        lower = np.zeros(grid.n)
        diag = np.zeros(grid.n)
        upper = np.zeros(grid.n)
        # row i of L: (flux_{i-1/2} - flux_{i+1/2}) / width_i, boundary fluxes = 0
        lower[1:] = a_edge / widths[1:]
        diag[1:] -= c_edge / widths[1:]
        diag[:-1] -= a_edge / widths[:-1]
        upper[:-1] = c_edge / widths[:-1]

        self.lower = lower
        self.diag = diag
        self.upper = upper
        self.max_rate = float(np.max(-diag))
        self._steps: dict[tuple[float, float], tuple[np.ndarray, list]] = {}
        # the state between substeps, with a zero node at each end: row k of
        # the window view is the state shifted by k - 1 nodes
        padded = np.zeros(grid.n + 2)
        self._state = padded[1:-1]
        self._windows = sliding_window_view(padded, grid.n)
        self._products = np.empty((3, grid.n))

    def positivity_dt(self, theta: float) -> float:
        """Largest dt for which the explicit stage keeps non-negative data
        non-negative (infinite for the fully implicit step)."""
        if theta >= 1.0 or self.max_rate == 0.0:
            return math.inf
        return 1.0 / ((1.0 - theta) * self.max_rate)

    def _factored_step(self, dt: float, theta: float) -> tuple[np.ndarray, list]:
        """The theta step of size ``dt``: the sub-, main and superdiagonal of
        the explicit stage ``I + (1-theta) dt L`` as the rows of one ``(3, n)``
        array, each aligned with the node it updates (so the zero ends of
        ``lower`` and ``upper`` multiply the padding nodes), and the LAPACK
        ``gttrf`` factors of ``I - theta dt L``."""
        # loaded on the first factored step, not with the package, so parsing
        # a config or printing the oracle loads no LAPACK
        dgttrf, _ = _gt_routines()
        explicit = (1.0 - theta) * dt
        coefficients = np.stack(
            (explicit * self.lower, 1.0 + explicit * self.diag, explicit * self.upper)
        )
        *factors, info = dgttrf(
            -theta * dt * self.lower[1:],
            1.0 - theta * dt * self.diag,
            -theta * dt * self.upper[:-1],
        )
        if info != 0:
            raise RuntimeError(f"tridiagonal time-step factorization failed (info={info})")
        return coefficients, factors

    def run(self, values: np.ndarray, dt: float, theta: float, n_steps: int) -> np.ndarray:
        """``n_steps`` theta-weighted steps of size ``dt`` from ``values``,
        each solving (I - theta dt L) v+ = (I + (1-theta) dt L) v in place.

        Returns the generator's state buffer, which the next call overwrites.
        """
        key = (dt, theta)
        step = self._steps.get(key)
        if step is None:
            if len(self._steps) >= _STEP_CACHE_SIZE:
                del self._steps[next(iter(self._steps))]  # oldest entry first
            step = self._steps[key] = self._factored_step(dt, theta)
        explicit, factors = step
        dgttrs = _gt_routines()[1]
        state, windows, products = self._state, self._windows, self._products
        np.copyto(state, values)
        for _ in range(n_steps):
            np.multiply(explicit, windows, out=products)
            np.add.reduce(products, axis=0, out=state)
            _, info = dgttrs(*factors, state, overwrite_b=True)
            if info != 0:
                raise RuntimeError(f"tridiagonal time-step solve failed (info={info})")
        return state


def solve(
    p0: Density, model: GradientDrift, t_grid: np.ndarray, cfg: SolverConfig
) -> DensityTrajectory:
    """Integrate from ``p0`` and sample the solution at ``t_grid``.

    ``t_grid`` must be strictly increasing and start at ``p0.time``. Each
    output interval is split into equal nominal steps no longer than
    ``cfg.dt``, each of them into equal substeps within the positivity bound,
    and all of them run in one kernel call. Each output time fills one row of
    a preallocated ``(len(t_grid), n)`` array. The produced rows are then
    checked in one pass over the whole array: finite, non-negative, and of
    trapezoid mass within both ``cfg.mass_tol`` and the :class:`Density`
    default of one; a failure raises ``RuntimeError`` naming the first bad
    time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if abs(t_grid[0] - p0.time) > 1e-12:
        raise ValueError(f"t_grid must start at p0.time={p0.time}, got {t_grid[0]}")
    if len(t_grid) > 1 and np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")

    gen = _Generator(p0.grid, model)
    dt_pos = gen.positivity_dt(cfg.theta)
    values = np.empty((len(t_grid), p0.grid.n))
    values[0] = p0.values
    for k in range(1, len(t_grid)):
        width = t_grid[k] - t_grid[k - 1]
        n_nominal = max(1, math.ceil(width / cfg.dt - 1e-12))
        nominal = width / n_nominal
        n_pos = max(1, math.ceil(nominal / dt_pos - 1e-12)) if math.isfinite(dt_pos) else 1
        try:
            values[k] = gen.run(values[k - 1], nominal / n_pos, cfg.theta, n_nominal * n_pos)
        except RuntimeError as err:
            raise RuntimeError(f"solve failed advancing to t={t_grid[k]:g}: {err}") from err

    masses = integrate_rows(values, p0.grid)
    # row 0 is p0, a Density already checked against its own tolerance
    problem = first_invalid_row(values[1:], masses[1:], min(cfg.mass_tol, DEFAULT_MASS_TOL))
    if problem is not None:
        k, why = problem
        raise RuntimeError(f"solve failed advancing to t={t_grid[k + 1]:g}: {why}")
    return DensityTrajectory._from_rows(t_grid, p0.grid, values, masses)


def reverse_harmonic_residual(
    traj: DensityTrajectory, pbar: Density, model: GradientDrift, t_index: int
) -> np.ndarray:
    """Nodewise residual of the reverse-time harmonicity of ``pbar / p_t``.

    The ratio of the stationary density to any solution of the forward
    equation is annihilated by the backward-in-time operator

        d/dt + b_minus(x) d/dx - (sigma^2 / 2) d^2/dx^2,

    where ``b_minus = b - sigma^2 d/dx ln p_t`` is the backward drift. This
    function evaluates that operator discretely: the time derivative by a
    central difference across the neighbouring trajectory samples, space
    derivatives by the grid stencils. Nodes below the tail cut of ``p_t`` are reported
    as zero; elsewhere the residual converges to zero at second order in the
    grid spacing and the trajectory sampling interval.
    """
    if not 0 < t_index < len(traj) - 1:
        raise IndexError(
            f"t_index must be interior (0 < i < {len(traj) - 1}), got {t_index}"
        )
    if pbar.grid != traj.grid:
        raise ValueError("grid mismatch between trajectory and stationary density")

    grid = traj.grid
    p_prev, p_here, p_next = (traj[t_index + k] for k in (-1, 0, 1))

    def ratio(p: Density) -> np.ndarray:
        return pbar.values / np.maximum(p.values, DEFAULT_LOG_FLOOR)

    dratio_dt = (ratio(p_next) - ratio(p_prev)) / (
        traj.times[t_index + 1] - traj.times[t_index - 1]
    )
    b_minus = backward_drift_on_grid(model, p_here)
    r = ratio(p_here)
    residual = (
        dratio_dt
        + b_minus * gradient(r, grid)
        - 0.5 * model.sigma**2 * laplacian(r, grid)
    )
    return np.where(support_mask(p_here), residual, 0.0)


def weighted_residual_norm(residual: np.ndarray, p: Density) -> float:
    """L2 norm of a nodewise residual weighted by the density ``p``."""
    return math.sqrt(max(integrate(residual**2 * p.values, p.grid), 0.0))
