"""Closed forms for the standard Ornstein-Uhlenbeck benchmark.

The process ``dX = -X/2 dt + dW`` started from a centered Gaussian with
variance ``v0`` stays Gaussian with variance ``v(t) = 1 + (v0 - 1) e^{-t}``
and relaxes to the standard normal. Every functional the library computes
numerically has an elementary closed form here, which makes this the
ground-truth oracle for the solver, the quadrature functionals and the
Monte Carlo estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drifts import GradientDrift, linear_drift


@dataclass(frozen=True)
class OUBenchmark:
    """Exact solution data for the unit-diffusion, rate -1/2 OU process."""

    initial_variance: float

    DRIFT_RATE = -0.5
    SIGMA = 1.0

    def __post_init__(self):
        if not self.initial_variance > 0.0:
            raise ValueError(
                f"initial variance must be positive, got {self.initial_variance}"
            )

    def model(self) -> GradientDrift:
        return linear_drift(self.DRIFT_RATE, self.SIGMA)

    @staticmethod
    def _check_time(t: float) -> float:
        if t < 0.0:
            raise ValueError(f"time must be non-negative, got {t}")
        return float(t)

    def variance(self, t: float) -> float:
        """v(t) = 1 + (v0 - 1) e^{-t}; solves v' = 1 - v."""
        t = self._check_time(t)
        return 1.0 + (self.initial_variance - 1.0) * math.exp(-t)

    def log_density_ratio(self, t: float, x):
        """ln(p_t / pbar)(x) = -ln s_t - (x^2 / 2)(1 - s_t^2) / s_t^2."""
        v = self.variance(t)
        x = np.asarray(x, dtype=float)
        return -0.5 * math.log(v) - 0.5 * x**2 * (1.0 - v) / v

    def relative_entropy(self, t: float) -> float:
        v = self.variance(t)
        return -0.5 * math.log(v) - 0.5 * (1.0 - v)

    def relative_fisher(self, t: float) -> float:
        v = self.variance(t)
        return (1.0 - v) ** 2 / v

    def entropy_rate(self, t: float) -> float:
        """-(1 - v)^2 / (2 v); equals -(sigma^2/2) times the Fisher information."""
        v = self.variance(t)
        return -0.5 * (1.0 - v) ** 2 / v

    def varentropy(self, t: float) -> float:
        """(1 - v)^2 / 2, equivalently its initial value times e^{-2t}."""
        v = self.variance(t)
        return 0.5 * (1.0 - v) ** 2

    def varentropy_rate(self, t: float) -> float:
        """-(1 - v)^2, i.e. exactly -2 times the varentropy."""
        v = self.variance(t)
        return -((1.0 - v) ** 2)
