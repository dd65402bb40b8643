"""Gradient drift fields of scalar drift-diffusion processes.

Every drift is ``-potential'(x)`` for a quartic polynomial potential, with a
constant diffusion coefficient ``sigma``. A confining potential has the
stationary density ``exp(-2 * potential / sigma^2)``, normalized on a grid.
The linear (Ornstein-Uhlenbeck) drift ``rate * x`` is the quadratic member
``-rate * x^2 / 2`` of the family; :func:`linear_drift` builds it. The
backward drift ``b - sigma^2 d/dx ln p`` of a gridded density, the drift of
the time-reversed process, is defined here once for the solver, the Monte
Carlo diagnostics and the runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import DEFAULT_LOG_FLOOR, Density, Grid, gradient, normalized_density


@dataclass(frozen=True)
class QuarticPotential:
    """Polynomial potential ``c0 + c1 x + c2 x^2 + c3 x^3 + c4 x^4``.

    Confinement (value growing to +inf in both tails) is decidable from the
    coefficients: either ``c4 > 0``, or ``c4 == c3 == 0`` with ``c2 > 0``.
    """

    coeffs: tuple[float, float, float, float, float]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) != 5:
            raise ValueError(f"expected 5 coefficients c0..c4, got {len(c)}")
        if not all(math.isfinite(v) for v in c):
            raise ValueError(f"coefficients must be finite, got {c}")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x):
        c0, c1, c2, c3, c4 = self.coeffs
        return c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))

    def derivative(self, x, out=None):
        """``c1 + x (2 c2 + x (3 c3 + x 4 c4))``, evaluated in place in ``out``
        when it is given."""
        _, c1, c2, c3, c4 = self.coeffs
        out = np.multiply(x, 4.0, out=out)
        out *= c4
        out += 3.0 * c3
        out *= x
        out += 2.0 * c2
        out *= x
        out += c1
        return out

    @property
    def confining(self) -> bool:
        _, _, c2, c3, c4 = self.coeffs
        return c4 > 0.0 or (c4 == 0.0 and c3 == 0.0 and c2 > 0.0)


@dataclass(frozen=True)
class GradientDrift:
    """Drift ``-potential'(x)`` with diffusion coefficient ``sigma``."""

    potential_spec: QuarticPotential
    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    def drift(self, x, out=None):
        """``-potential'(x)``, written into ``out`` when it is given."""
        slope = self.potential_spec.derivative(np.asarray(x, dtype=float), out=out)
        return np.negative(slope, out=out)

    def potential(self, x):
        return self.potential_spec(np.asarray(x, dtype=float))

    @property
    def confining(self) -> bool:
        return self.potential_spec.confining


def linear_drift(rate: float, sigma: float = 1.0) -> GradientDrift:
    """The linear drift ``rate * x``: potential ``-rate * x^2 / 2``, confining
    (mean-reverting) iff ``rate < 0``."""
    return GradientDrift(QuarticPotential((0.0, 0.0, -rate / 2.0, 0.0, 0.0)), sigma=sigma)


def double_well_drift(sigma: float = 1.0) -> GradientDrift:
    """The symmetric double well ``x^4/4 - x^2/2`` (minima at x = +/-1)."""
    return GradientDrift(QuarticPotential((0.0, 0.0, -0.5, 0.0, 0.25)), sigma=sigma)


def invariant_density(model: GradientDrift, grid: Grid) -> Density:
    """Stationary density ``exp(-2 potential / sigma^2)`` normalized on the grid.

    Raises for non-confining models, whose stationary measure is not
    normalizable.
    """
    if not model.confining:
        raise ValueError(f"model is not confining: {model!r}")
    log_values = -2.0 * model.potential(grid.x) / model.sigma**2
    # subtract the max before exponentiating so steep potentials do not underflow
    values = np.exp(log_values - log_values.max())
    return normalized_density(grid, values)


def backward_drift_on_grid(model: GradientDrift, p_t: Density) -> np.ndarray:
    """Backward drift ``b - sigma^2 d/dx ln p_t`` on the nodes of ``p_t``: the
    drift of the same diffusion run backwards in time from law ``p_t``."""
    log_p = np.log(np.maximum(p_t.values, DEFAULT_LOG_FLOOR))
    return model.drift(p_t.grid.x) - model.sigma**2 * gradient(log_p, p_t.grid)
