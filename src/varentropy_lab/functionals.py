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

One kernel computes all of them for a block of states, one state per row of
an array: :func:`report` walks a trajectory's array in blocks of rows, and
each scalar function passes it a block of one row. A row's values do not
depend on the block it is in.

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
    gradient_rows,
    integrate_rows,
)


#: Trajectory rows per pass of the kernel in :func:`report`. Large enough
#: that numpy's per-call overhead is spread over many states, small enough
#: that a block's temporaries add nothing measurable to a run's peak memory.
_BLOCK = 16


@dataclass(frozen=True, slots=True)
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


def _check_sigma(sigma: float):
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")


def _block_terms(
    values: np.ndarray, pbar: Density, rel_cut: float
) -> list[tuple[float, float, float, float]]:
    """Everything the functionals need from a block of states, in one pass.

    ``values`` holds one state per row. The log ratio, the masked weight and
    the squared slope are each computed once for the whole block. Returns,
    per row, ``(entropy, fisher, varentropy, rate_integral)`` with the
    varentropy rate equal to ``sigma**2 * rate_integral``; the public
    functions and :func:`report` all read their values from here. Each
    nodewise term is the one a single row would get and each integral sums
    one contiguous row, so a row's values do not depend on its block.
    """
    grid = pbar.grid
    logratio = np.log(
        np.maximum(values, DEFAULT_LOG_FLOOR) / np.maximum(pbar.values, DEFAULT_LOG_FLOOR)
    )
    weight = np.where(values >= rel_cut * values.max(axis=1, keepdims=True), values, 0.0)
    firsts = integrate_rows(logratio * weight, grid).tolist()
    seconds = integrate_rows(logratio**2 * weight, grid).tolist()
    slope_sq = gradient_rows(logratio, grid) ** 2
    fishers = integrate_rows(slope_sq * weight, grid).tolist()
    entropies = [max(first, 0.0) for first in firsts]
    shifted = -logratio - 1.0 + np.array(entropies)[:, None]
    rates = integrate_rows(shifted * slope_sq * weight, grid).tolist()
    # ``first**2`` stays a Python float power: numpy's array square is
    # x * x, which can differ from it in the last bit
    return [
        (entropy, max(fisher, 0.0), max(second - first**2, 0.0), rate)
        for entropy, first, second, fisher, rate in zip(entropies, firsts, seconds, fishers, rates)
    ]


def _state_terms(
    p: Density, pbar: Density, rel_cut: float
) -> tuple[float, float, float, float]:
    """:func:`_block_terms` of the one state ``p``."""
    if p.grid != pbar.grid:
        raise ValueError("grid mismatch between densities")
    return _block_terms(p.values[None, :], pbar, rel_cut)[0]


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

    The trajectory's array goes through the shared kernel in blocks of
    ``_BLOCK`` rows, so each state's log ratio, tail mask and slope are
    computed once and numpy is called once per block, not once per state;
    every value equals what the public scalar functions return for that
    state. The finite-difference varentropy rate uses the trajectory's
    native sampling (central differences over neighbouring samples) and is
    None at the two end samples.
    """
    if pbar.grid != traj.grid:
        raise ValueError("grid mismatch between trajectory and stationary density")
    _check_sigma(sigma)
    terms = []
    for start in range(0, len(traj), _BLOCK):
        terms.extend(_block_terms(traj.values[start:start + _BLOCK], pbar, rel_cut))
    times = traj.times.tolist()
    rows: list[FunctionalReport] = []
    for k, (entropy, fisher, variance, rate_integral) in enumerate(terms):
        fd = None
        if 0 < k < len(times) - 1:
            fd = (terms[k + 1][2] - terms[k - 1][2]) / (times[k + 1] - times[k - 1])
        rows.append(
            FunctionalReport(
                time=times[k],
                relative_entropy=entropy,
                relative_fisher=fisher,
                varentropy=variance,
                entropy_rate=-0.5 * sigma**2 * fisher,
                varentropy_rate=sigma**2 * rate_integral,
                varentropy_rate_fd=fd,
            )
        )
    return rows
