"""Scalar functionals of a density relative to a stationary density.

Everything is built from the local free energy, the nodewise log ratio
``ln(p / pbar)``:

* relative entropy: its mean under ``p``;
* relative Fisher information: the mean of its squared slope, which sets the
  entropy decay rate ``-(sigma^2 / 2) * fisher``;
* varentropy: its variance under ``p``;
* the varentropy rate formula
  ``sigma^2 * E[(-logratio - 1 + entropy) * slope^2]``, cross-checkable
  against a finite difference of the varentropy along a solved trajectory.

Log-ratio weighted integrals exclude nodes below a relative tail cut of the
weighting density; the integrands there are products of huge logarithms and
vanishing weights and carry no reliable information. Relative entropy,
Fisher information and varentropy are clamped at zero from below against
rounding-level cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import (
    DEFAULT_LOG_FLOOR,
    DEFAULT_TAIL_CUT,
    Density,
    DensityTrajectory,
    gradient,
    integrate,
    safe_log_ratio,
    support_mask,
)


@dataclass(frozen=True)
class FunctionalReport:
    """All functionals of one trajectory sample.

    ``varentropy_rate`` is the closed-form rate; ``varentropy_rate_fd`` is the
    central finite difference of the varentropy along the trajectory, present
    only at interior sample times.
    """

    time: float
    relative_entropy: float
    relative_fisher: float
    varentropy: float
    entropy_rate: float
    varentropy_rate: float
    varentropy_rate_fd: Optional[float] = None

    #: CSV column order used by the scenario runner.
    CSV_FIELDS = (
        "time",
        "relative_entropy",
        "relative_fisher",
        "varentropy",
        "entropy_rate",
        "varentropy_rate",
        "varentropy_rate_fd",
    )

    def __post_init__(self):
        if self.relative_entropy < 0.0 or self.relative_fisher < 0.0 or self.varentropy < 0.0:
            raise ValueError("entropy, Fisher information and varentropy must be >= 0")
        if self.entropy_rate > 0.0:
            raise ValueError("entropy rate must be <= 0")


def local_free_energy(
    p: Density, pbar: Density, floor: float = DEFAULT_LOG_FLOOR
) -> np.ndarray:
    """Nodewise log ratio ``ln(p / pbar)`` with floored arguments."""
    return safe_log_ratio(p, pbar, floor)


def _masked_weight(p: Density, rel_cut: float) -> np.ndarray:
    return np.where(support_mask(p, rel_cut), p.values, 0.0)


def _check_sigma(sigma: float):
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")


def _state_terms(
    p: Density, pbar: Density, rel_cut: float
) -> tuple[float, float, float, float]:
    """Everything the functionals need from one state, in one pass.

    The log ratio, the masked weight and the squared slope are each computed
    once. Returns ``(entropy, fisher, varentropy, rate_integral)`` with the
    varentropy rate equal to ``sigma**2 * rate_integral``; the public
    functions and :func:`report` all read their values from here.
    """
    logratio = local_free_energy(p, pbar)
    weight = _masked_weight(p, rel_cut)
    first = integrate(logratio * weight, p.grid)
    second = integrate(logratio**2 * weight, p.grid)
    slope_sq = gradient(logratio, p.grid) ** 2
    entropy = max(first, 0.0)
    fisher = max(integrate(slope_sq * weight, p.grid), 0.0)
    variance = max(second - first**2, 0.0)
    rate_integral = integrate((-logratio - 1.0 + entropy) * slope_sq * weight, p.grid)
    return entropy, fisher, variance, rate_integral


def relative_entropy(
    p: Density, pbar: Density, rel_cut: float = DEFAULT_TAIL_CUT
) -> float:
    """Kullback-Leibler divergence of ``p`` from ``pbar`` in nats."""
    return _state_terms(p, pbar, rel_cut)[0]


def relative_fisher(
    p: Density, pbar: Density, rel_cut: float = DEFAULT_TAIL_CUT
) -> float:
    """Relative Fisher information: mean squared slope of the log ratio."""
    return _state_terms(p, pbar, rel_cut)[1]


def varentropy(p: Density, pbar: Density, rel_cut: float = DEFAULT_TAIL_CUT) -> float:
    """Variance of the log ratio under ``p`` (second moment minus squared mean)."""
    return _state_terms(p, pbar, rel_cut)[2]


def varentropy_centered(
    p: Density, pbar: Density, rel_cut: float = DEFAULT_TAIL_CUT
) -> float:
    """Varentropy as the integral of the squared centered log ratio.

    Algebraically identical to :func:`varentropy`; kept as an independent
    assembly for cross-checks.
    """
    logratio = local_free_energy(p, pbar)
    weight = _masked_weight(p, rel_cut)
    center = integrate(logratio * weight, p.grid)
    return max(integrate((logratio - center) ** 2 * weight, p.grid), 0.0)


def varentropy_self_normalized(
    p: Density, pbar: Density, rel_cut: float = DEFAULT_TAIL_CUT
) -> float:
    """Varentropy as a centered expectation with the masked weight renormalized.

    Third equivalent assembly; differs from the others only through the mass
    lost to the tail cut.
    """
    logratio = local_free_energy(p, pbar)
    weight = _masked_weight(p, rel_cut)
    mass = integrate(weight, p.grid)
    mean = integrate(logratio * weight, p.grid) / mass
    return max(integrate((logratio - mean) ** 2 * weight, p.grid) / mass, 0.0)


def free_energy_rate(
    p: Density, pbar: Density, sigma: float, rel_cut: float = DEFAULT_TAIL_CUT
) -> float:
    """Decay rate of the relative entropy: ``-(sigma^2 / 2) * fisher``."""
    _check_sigma(sigma)
    return -0.5 * sigma**2 * relative_fisher(p, pbar, rel_cut)


def varentropy_rate(
    p: Density, pbar: Density, sigma: float, rel_cut: float = DEFAULT_TAIL_CUT
) -> float:
    """Instantaneous rate of change of the varentropy.

    Computed as

        sigma^2 * integral of (-logratio - 1 + entropy) * slope^2 * p dx

    with ``entropy`` the relative entropy of ``p`` from ``pbar``. The bracket
    has no definite sign, so unlike the entropy rate this can be positive.
    """
    _check_sigma(sigma)
    return sigma**2 * _state_terms(p, pbar, rel_cut)[3]


def report(
    traj: DensityTrajectory,
    pbar: Density,
    sigma: float,
    rel_cut: float = DEFAULT_TAIL_CUT,
) -> list[FunctionalReport]:
    """Evaluate every functional at every trajectory sample.

    Each state goes through one pass of the shared kernel, so its log ratio,
    tail mask and slope are computed once; every value equals what the
    public scalar functions return for that state. The finite-difference
    varentropy rate uses the trajectory's native sampling (central
    differences over neighbouring samples) and is None at the two end
    samples.
    """
    if pbar.grid != traj.grid:
        raise ValueError("grid mismatch between trajectory and stationary density")
    _check_sigma(sigma)
    terms = [_state_terms(state, pbar, rel_cut) for state in traj.states]
    rows: list[FunctionalReport] = []
    for k, (entropy, fisher, variance, rate_integral) in enumerate(terms):
        fd = None
        if 0 < k < len(traj) - 1:
            fd = (terms[k + 1][2] - terms[k - 1][2]) / (
                traj.times[k + 1] - traj.times[k - 1]
            )
        rows.append(
            FunctionalReport(
                time=float(traj.times[k]),
                relative_entropy=entropy,
                relative_fisher=fisher,
                varentropy=variance,
                entropy_rate=-0.5 * sigma**2 * fisher,
                varentropy_rate=sigma**2 * rate_integral,
                varentropy_rate_fd=fd,
            )
        )
    return rows
