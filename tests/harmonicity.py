"""Test-side checks of the reverse-time harmonicity of ``pbar / p_t`` and the
second-derivative stencil they use. No run of the package reaches them: the
Monte Carlo martingale diagnostic tests the same property in every run."""

import math

import numpy as np

from varentropy_lab import backward_drift_on_grid, gradient, integrate, support_mask
from varentropy_lab.grids import DEFAULT_LOG_FLOOR


def laplacian(values, grid):
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


def reverse_harmonic_residual(traj, pbar, model, t_index):
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

    def ratio(p):
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


def weighted_residual_norm(residual, p):
    """L2 norm of a nodewise residual weighted by the density ``p``."""
    return math.sqrt(max(integrate(residual**2 * p.values, p.grid), 0.0))
