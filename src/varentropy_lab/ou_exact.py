"""Closed forms for Gaussian laws under a linear drift.

The Ornstein-Uhlenbeck process ``dX = rate X dt + sigma dW`` (``rate < 0``)
started from N(m0, v0) stays Gaussian, with mean ``m(t) = m0 e^{rate t}``
and variance ``v(t) = s2 + (v0 - s2) e^{2 rate t}``, and relaxes to N(0, s2),
``s2 = -sigma^2 / (2 rate)``. Every functional the library computes
numerically has an elementary closed form here, which makes this the
ground-truth oracle for the solver, the quadrature functionals and the
Monte Carlo estimators. The defaults are the centred unit benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drifts import GradientDrift, linear_drift


@dataclass(frozen=True)
class OUBenchmark:
    """Exact law of ``dX = rate X dt + sigma dW`` from N(initial_mean,
    initial_variance); below, ``q = v / s2``."""

    initial_variance: float
    initial_mean: float = 0.0
    rate: float = -0.5
    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.initial_variance < math.inf and math.isfinite(self.initial_mean)
                and -math.inf < self.rate < 0.0 < self.sigma < math.inf
                and 0.0 < -self.sigma * self.sigma / (2.0 * self.rate) < math.inf):
            raise ValueError(f"need a positive initial variance and sigma, a negative rate and "
                             f"a positive stationary variance, all finite; got {self}")

    def model(self) -> GradientDrift:
        return linear_drift(self.rate, self.sigma)

    def _moments(self, t: float) -> tuple[float, float, float]:
        """``m(t)``, ``v(t)`` and the stationary variance ``s2``."""
        if not t >= 0.0:
            raise ValueError(f"time must be non-negative, got {t}")
        s2 = -self.sigma**2 / (2.0 * self.rate)
        m = self.initial_mean * math.exp(self.rate * t)
        return m, s2 + (self.initial_variance - s2) * math.exp(2.0 * self.rate * t), s2

    def mean(self, t: float) -> float:
        """m(t) = m0 e^{rate t}; solves m' = rate m."""
        return self._moments(t)[0]

    def variance(self, t: float) -> float:
        """v(t) = s2 + (v0 - s2) e^{2 rate t}; solves v' = 2 rate v + sigma^2."""
        return self._moments(t)[1]

    def log_density_ratio(self, t: float, x):
        """ln(p_t / pbar)(x) = -ln(q) / 2 - (x - m)^2 / (2 v) + x^2 / (2 s2)."""
        m, v, s2 = self._moments(t)
        x = np.asarray(x, dtype=float)
        return -0.5 * math.log(v / s2) - (x - m) ** 2 / (2.0 * v) + x**2 / (2.0 * s2)

    def relative_entropy(self, t: float) -> float:
        m, v, s2 = self._moments(t)
        return -0.5 * math.log(v / s2) - 0.5 * (1.0 - v / s2 - m**2 / s2)

    def relative_fisher(self, t: float) -> float:
        m, v, s2 = self._moments(t)
        return (1.0 - v / s2) ** 2 / v + m**2 / s2**2

    def entropy_rate(self, t: float) -> float:
        """-(sigma^2 / 2) times the relative Fisher information."""
        return -0.5 * self.sigma**2 * self.relative_fisher(t)

    def varentropy(self, t: float) -> float:
        """(1 - q)^2 / 2 + m^2 v / s2^2; from a centred start, its initial
        value times e^{4 rate t}."""
        m, v, s2 = self._moments(t)
        return 0.5 * (1.0 - v / s2) ** 2 + m**2 * v / s2**2

    def varentropy_rate(self, t: float) -> float:
        """2 rate ((1 - q)^2 + m^2 (2 v - s2) / s2^2); from a centred start,
        exactly 4 rate times the varentropy."""
        m, v, s2 = self._moments(t)
        return 2.0 * self.rate * ((1.0 - v / s2) ** 2 + m**2 * (2.0 * v - s2) / s2**2)
