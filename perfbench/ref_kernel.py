"""Reference kernel: a fixed piece of numpy/scipy work that measures how fast
the machine runs right now.

The machine this benchmark was written on lends a few cores of a shared host.
Other tenants' load changes its speed by up to 2x, in spells of seconds to
minutes, and each vCPU's speed moves on its own. The harness runs this
kernel on the same CPU as the CLI, just before and just after each
invocation, and reports the invocation's wall time divided by the kernel's
(``wall_rel``). That ratio cancels most of the machine's drift; the raw wall
times are recorded beside it.

The kernel imports nothing from ``varentropy_lab``, so no change to the
package can change it. Its mix follows the two workloads: a tridiagonal
implicit step plus entropy sums on a 501-node grid, repeated (the per-call
overhead regime of the sweep), and an Euler-Maruyama ensemble of 1e5 paths
with a histogram (the large-array regime of the Monte Carlo cross-checks).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_banded

GRID_STEPS = 2400
GRID_N = 501
PATHS = 100_000
PATH_STEPS = 24


def grid_part(steps: int = GRID_STEPS, n: int = GRID_N) -> float:
    """Implicit steps of a double-well Fokker-Planck equation on ``n`` nodes,
    with entropy, varentropy and Fisher-like sums after every step."""
    x = np.linspace(-3.5, 3.5, n)
    dx = x[1] - x[0]
    p = np.exp(-((x - 1.0) ** 2) / 0.18) + np.exp(-((x + 1.0) ** 2) / 0.18)
    p /= p.sum() * dx
    diffusion, advection = 0.5 / dx**2, (x - x**3) / (2.0 * dx)
    lower, upper = diffusion + advection, diffusion - advection
    diag = np.full(n, -2.0 * diffusion)
    r = 0.5e-3
    acc = 0.0
    for _ in range(steps):
        ab = np.zeros((3, n))
        ab[0, 1:] = -r * upper[:-1]
        ab[1] = 1.0 - r * diag
        ab[2, :-1] = -r * lower[1:]
        rhs = p.copy()
        rhs[1:-1] += r * (lower[:-2] * p[:-2] + diag[1:-1] * p[1:-1] + upper[2:] * p[2:])
        p = np.maximum(solve_banded((1, 1), ab, rhs), 0.0)
        p /= p.sum() * dx
        log_p = np.log(np.maximum(p, 1e-300))
        entropy = -float(np.sum(p * log_p)) * dx
        varentropy = float(np.sum(p * log_p**2)) * dx - entropy**2
        grad = np.gradient(p, dx)
        acc += entropy + varentropy + float(np.sum(grad * grad / np.maximum(p, 1e-12))) * dx
    return acc


def paths_part(n_paths: int = PATHS, steps: int = PATH_STEPS) -> float:
    """Euler-Maruyama steps of a double-well SDE for ``n_paths`` paths, with
    a histogram and an interpolation over the ensemble after every step."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n_paths)
    dt = 1e-2
    edges = np.linspace(-3.5, 3.5, 141)
    acc = 0.0
    for _ in range(steps):
        x = x + (x - x**3) * dt + np.sqrt(dt) * rng.standard_normal(n_paths)
        counts, _ = np.histogram(x, bins=edges)
        acc += float(np.interp(x, edges[:-1], counts).mean())
    return acc


def run() -> float:
    """Wall seconds of one pass of the kernel."""
    start = time.perf_counter()
    grid_part()
    paths_part()
    return time.perf_counter() - start
