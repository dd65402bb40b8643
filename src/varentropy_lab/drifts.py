"""Gradient drift fields of scalar drift-diffusion processes.

Every drift is ``-potential'(x)`` for a quartic polynomial potential, with a
constant diffusion coefficient ``sigma``. A confining potential has the
stationary density ``exp(-2 * potential / sigma^2)``, normalized on a grid.
The linear (Ornstein-Uhlenbeck) drift ``rate * x`` is the quadratic member
``-rate * x^2 / 2`` of the family; :func:`linear_drift` builds it. The
backward drift ``b - sigma^2 d/dx ln p`` of a gridded density, the drift of
the time-reversed process, is defined here for the Monte Carlo
diagnostics, which estimate it from path increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import DEFAULT_LOG_FLOOR, Density, Grid, gradient, normalized_density


@dataclass(frozen=True)
class GradientDrift:
    """Drift ``-potential'(x)`` with diffusion coefficient ``sigma``, for the
    potential ``c0 + c1 x + c2 x^2 + c3 x^3 + c4 x^4`` of ``coeffs``.

    Confinement (potential growing to +inf in both tails) is decidable from
    the coefficients: either ``c4 > 0``, or ``c4 == c3 == 0`` with ``c2 > 0``.
    """

    coeffs: tuple[float, float, float, float, float]
    sigma: float = 1.0

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) != 5:
            raise ValueError(f"expected 5 coefficients c0..c4, got {len(c)}")
        if not all(math.isfinite(v) for v in c):
            raise ValueError(f"coefficients must be finite, got {c}")
        object.__setattr__(self, "coeffs", c)
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    @cached_property
    def _horner(self) -> tuple[float, tuple[float, ...], float]:
        """Horner coefficients ``(lead, middle, constant)`` of the drift
        ``-c1 - 2 c2 x - 3 c3 x^2 - 4 c4 x^3``, highest power first, with
        leading zeros dropped down to the coefficient of x.

        Negation is exact and ``x * (-4 c4)`` rounds as ``(x * 4) * c4``, so
        each step rounds as in the negated ``c1 + x (2 c2 + x (3 c3 + x 4 c4))``;
        a zero result may differ from it only in its sign.
        """
        _, c1, c2, c3, c4 = self.coeffs
        terms = [-(4.0 * c4), -(3.0 * c3), -(2.0 * c2)]
        while len(terms) > 1 and terms[0] == 0.0:
            terms.pop(0)
        return terms[0], tuple(terms[1:]), -c1

    def drift(self, x, out=None):
        """``-potential'(x)``, written into ``out`` when it is given.

        Horner's scheme on :attr:`_horner`; adding a zero coefficient is
        skipped, so the double well takes four passes over ``x``.
        """
        x = np.asarray(x, dtype=float)
        lead, middle, constant = self._horner
        out = np.multiply(x, lead, out=out)
        for coeff in middle:
            if coeff != 0.0:
                out += coeff
            out *= x
        if constant != 0.0:
            out += constant
        return out

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        c0, c1, c2, c3, c4 = self.coeffs
        return c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))

    @property
    def confining(self) -> bool:
        _, _, c2, c3, c4 = self.coeffs
        return c4 > 0.0 or (c4 == 0.0 and c3 == 0.0 and c2 > 0.0)


def linear_drift(rate: float, sigma: float = 1.0) -> GradientDrift:
    """The linear drift ``rate * x``: potential ``-rate * x^2 / 2``, confining
    (mean-reverting) iff ``rate < 0``."""
    return GradientDrift((0.0, 0.0, -rate / 2.0, 0.0, 0.0), sigma=sigma)


def double_well_drift(sigma: float = 1.0) -> GradientDrift:
    """The symmetric double well ``x^4/4 - x^2/2`` (minima at x = +/-1)."""
    return GradientDrift((0.0, 0.0, -0.5, 0.0, 0.25), sigma=sigma)


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
