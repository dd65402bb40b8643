"""Conservative finite-volume integration of the drift-diffusion continuity
equation

    dp/dt = d/dx [ -b(x) p + (sigma^2 / 2) dp/dx ]

on a truncated interval with reflecting (zero-flux) boundaries.

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
in flux form and the boundary fluxes are identically zero. One loop steps
and checks every solve: :func:`solved_chunks` steps one or more starts on
one grid together and fills a buffer of a given number of output times per
start; each time it is full, one pass takes the mass of every row and
checks the rows, and the chunk is yielded. :func:`solve` is its one chunk
of every output time of one start. A caller that needs only some numbers
of each state reduces the chunks as they come and holds no trajectory, as
every scenario run does (``scenarios._solve_streamed``).

The implicit matrix ``I - theta dt L`` of a step depends only on the
generator, ``theta`` and the substep size ``dt``, and a run uses only a few
distinct substep sizes. Each generator therefore factors that tridiagonal
matrix once per ``(dt, theta)`` with LAPACK ``dgttrf`` and keeps the factors
(the LU / Thomas reuse for a constant tridiagonal operator) with the
prebuilt arguments of each call a substep makes, for a bounded number of
sizes, so irregular output meshes cannot grow memory. A solve builds its
own generator and shares it, and its buffers, with no other solve, so
solves may run in separate threads.

One output interval is one kernel call: all its substeps have one size.
The kernel steps a block of m states, one per row of the generator's two
``(m, n)`` state buffers: one state for :func:`solve`, one per start for
:func:`solved_chunks`. A substep is two LAPACK calls between the buffers,
with ``NRHS = m`` and both leading dimensions ``LDX = LDB = n``:
``dlagtm`` writes the explicit stage ``(I + (1-theta) dt L) v`` of one into
the other, and ``dgttrs`` solves there in place. Both routines treat each
right-hand side on its own, with the operations a single one gets (LAPACK
Users' Guide, Anderson et al., 3rd ed., 1999), so each start's rows equal
its solve alone bit for bit. Both
are bare ``ctypes`` function pointers, declaring no argument types, so the
prebuilt pointer arguments pass unconverted, and ``info`` is read once per
interval. At n = 501 a substep of one state takes about 11 us, 8.5 us of it
LAPACK arithmetic and 2.2 us call overhead, which argument conversion and
an ``info`` read per substep made 2.7 us (x86_64, median of in-process
timings). A block shares the call overhead and the loads of the factors
among its states: the 8 members of the 1201-sample sweep take 0.62 s
solved one by one, 0.52 s in groups of 3 and 0.46 s as one group of 8 (one
pinned CPU, median of 5, in process). A stream of chunks holds no
trajectory, so the sweep steps all 8 as one group.

``dlagtm`` rounds node i as ``((0 + l_i v_{i-1}) + c_i v_i) + u_i v_{i+1}``,
the three-point sum evaluated left to right. On x86_64, where this was
checked, the states therefore equal separately assembled steps bit for bit;
a LAPACK compiled with fused multiply-add contraction (GCC's default on
aarch64) may fuse a product into the running sum and round differently.

The routines are loaded once per process, on the first factored step, from
the OpenBLAS bundled in numpy's wheel (symbols ``scipy_dgttrf_64_`` and so
on: 64-bit integers, gfortran's hidden string lengths), found through
numpy's own extension module with no scipy import. Where numpy has no such
library they come from the capsules of scipy's ``cython_lapack`` (32-bit
integers), loaded as a file of its own without ``scipy.linalg``. Both run
the same reference LAPACK code and, on x86_64, give the same bytes.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Iterator, Sequence

import numpy as np

from .drifts import GradientDrift
from .grids import (
    DEFAULT_MASS_TOL,
    Density,
    DensityTrajectory,
    Grid,
    first_invalid_row,
    integrate_rows,
)

#: Most substep sizes whose factored step one generator keeps, the memory
#: bound for irregular meshes. ``linspace`` rounding makes equal-looking output
#: intervals differ in their last bits: a solve of a shipped config needs up
#: to 11 sizes (``run ou_benchmark``), the one group of the 1201-sample sweep
#: 10.
_STEP_CACHE_SIZE = 16

#: Most node-substeps (substeps times nodes, per start) of one solve, about
#: 4 hours at 15 ns each; the shipped solves take 4.8e6 to 2.3e8.
MAX_NODE_SUBSTEPS = 1e12


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


def _openblas_addresses():
    """The addresses of ``dgttrf``, ``dgttrs`` and ``dlagtm`` in the OpenBLAS
    that numpy's wheel bundles, or None where numpy links no such library."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on this handle also searches the libraries the module links
        library = ctypes.CDLL(_multiarray_umath.__file__)
        return [ctypes.cast(getattr(library, f"scipy_{name}_64_"), ctypes.c_void_p).value
                for name in ("dgttrf", "dgttrs", "dlagtm")]
    except (ImportError, OSError, AttributeError):
        return None


def _cython_lapack():
    """scipy's Cython LAPACK module, loaded from its file in ``scipy/linalg``
    without importing ``scipy.linalg``."""
    scipy = importlib.util.find_spec("scipy")
    finder = scipy and FileFinder(os.path.join(scipy.submodule_search_locations[0], "linalg"),
                                  (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder and finder.find_spec("scipy.linalg.cython_lapack")
    if spec is None:
        raise ImportError("no LAPACK: numpy bundles no OpenBLAS and scipy no cython_lapack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _gt_routines():
    """``dgttrf``, ``dgttrs`` and ``dlagtm`` as bare ctypes function pointers,
    their integer type, and the arguments that the calling convention appends
    to each call of the last two (see the module docstring).

    The pointers declare no argument types, so a call passes its prebuilt
    ``c_void_p`` and ``c_size_t`` arguments as they are, converting none."""
    addresses = _openblas_addresses()
    if addresses is not None:
        integer, lengths = ctypes.c_int64, (ctypes.c_size_t(1),)
    else:
        cython_lapack = _cython_lapack()
        api, obj = ctypes.pythonapi, ctypes.py_object
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))
        pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", api))
        capsules = [cython_lapack.__pyx_capi__[r] for r in ("dgttrf", "dgttrs", "dlagtm")]
        addresses = [pointer(capsule, name(capsule)) for capsule in capsules]
        integer, lengths = ctypes.c_int32, ()
    dgttrf, dgttrs, dlagtm = map(ctypes.CFUNCTYPE(None), addresses)
    return dgttrf, dgttrs, dlagtm, integer, lengths


def _pointers(*arrays: np.ndarray) -> tuple:
    """Pointer arguments to the data of ``arrays``, each keeping its array alive."""
    return tuple(array.ctypes.data_as(ctypes.c_void_p) for array in arrays)


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
    solve and reused across its steps.

    ``run`` keeps the factored step of each ``(dt, theta)``, at most
    ``_STEP_CACHE_SIZE`` of them, dropping the oldest when full, and steps
    a block of ``width`` states back and forth between the generator's two
    ``(width, n)`` state buffers.
    """

    def __init__(self, grid: Grid, model: GradientDrift, width: int = 1):
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
        self.width = width
        self._steps: dict[tuple[float, float], tuple] = {}
        # the block of states between substeps, which read one buffer and
        # write the other, and the two pointers that every prebuilt call passes
        self._buffers = np.empty((2, width, grid.n))
        self._states = _pointers(*self._buffers)

    def positivity_dt(self, theta: float) -> float:
        """Largest dt for which the explicit stage keeps non-negative data
        non-negative (infinite for the fully implicit step)."""
        if theta >= 1.0 or self.max_rate == 0.0:
            return math.inf
        return 1.0 / ((1.0 - theta) * self.max_rate)

    def _factored_step(self, dt: float, theta: float) -> tuple:
        """One theta step of size ``dt``, ready to call: ``dlagtm`` and
        ``dgttrs``; the prebuilt arguments of ``dlagtm`` (alpha 1, beta 0) from
        state buffer 0 into buffer 1, then of ``dgttrs`` in buffer 1 with the
        ``dgttrf`` factors of ``I - theta dt L``, and the same two from buffer 1
        into buffer 0; and the ``info`` that ``dgttrs`` sets. A buffer holds
        one state per row, so the right-hand-side count is the generator's
        width and both leading dimensions are n."""
        # loaded here, not with the package, so parsing a config loads no LAPACK
        dgttrf, dgttrs, dlagtm, integer, lengths = _gt_routines()
        n, nrhs, info = (np.array([k], dtype=integer) for k in (self.diag.size, self.width, 0))
        trans, alpha, beta = np.array(b"N"), np.array([1.0]), np.array([0.0])

        def shifted(scale):  # the three diagonals of I + scale L
            return scale * self.lower[1:], 1.0 + scale * self.diag, scale * self.upper[:-1]

        explicit = shifted((1.0 - theta) * dt)
        factors = (*shifted(-theta * dt), np.empty(n[0] - 2), np.empty(n[0], dtype=integer))
        # one pointer per array, shared by every call that passes the array
        trans_ptr, n_ptr, nrhs_ptr, alpha_ptr, beta_ptr, info_ptr = _pointers(
            trans, n, nrhs, alpha, beta, info)
        explicit_ptr, factors_ptr = _pointers(*explicit), _pointers(*factors)
        dgttrf(n_ptr, *factors_ptr, info_ptr)
        if info[0] != 0:
            raise RuntimeError(f"tridiagonal time-step factorization failed (info={info[0]})")
        calls = [((trans_ptr, n_ptr, nrhs_ptr, alpha_ptr, *explicit_ptr, v, n_ptr, beta_ptr, w,
                   n_ptr, *lengths),
                  (trans_ptr, n_ptr, nrhs_ptr, *factors_ptr, w, n_ptr, info_ptr, *lengths))
                 for v, w in (self._states, self._states[::-1])]
        return dlagtm, dgttrs, calls, info

    def run(self, values: np.ndarray, dt: float, theta: float, n_steps: int) -> np.ndarray:
        """``n_steps`` theta-weighted steps of size ``dt`` from each state of
        ``values``, an ``(m, n)`` block or one state of n nodes, each solving
        (I - theta dt L) v+ = (I + (1-theta) dt L) v.

        Returns the generator's state buffer that holds the last states, in
        the shape of ``values``; the next call overwrites it. A block of
        another width than the generator's raises ``ValueError``.
        """
        block = np.reshape(values, (-1, self.diag.size))
        if len(block) != self.width:
            raise ValueError(f"a generator of width {self.width} cannot step "
                             f"a block of width {len(block)}")
        key = (dt, theta)
        step = self._steps.get(key)
        if step is None:
            if len(self._steps) >= _STEP_CACHE_SIZE:
                del self._steps[next(iter(self._steps))]  # oldest entry first
            step = self._steps[key] = self._factored_step(dt, theta)
        dlagtm, dgttrs, calls, info = step
        np.copyto(self._buffers[0], block)
        # the calls alternate between the two directions, buffer 0 to 1 first
        for explicit, implicit in itertools.islice(itertools.cycle(calls), n_steps):
            dlagtm(*explicit)
            dgttrs(*implicit)
        # dgttrs sets info only for an illegal argument, and every substep
        # passes the same ones but the states, so the last call speaks for all
        if info[0]:
            raise RuntimeError(f"tridiagonal time-step solve failed (info={info[0]})")
        return self._buffers[n_steps % 2].reshape(np.shape(values))


class SolveError(RuntimeError):
    """A solve failed, or was refused before stepping. ``start`` indexes,
    among the starts solved together, the one whose trajectory failed; a
    failure or refusal of the stepping itself, which no start causes, is the
    first start's, whose solve alone would meet it first."""

    def __init__(self, message: str, start: int = 0):
        super().__init__(message)
        self.start = start


def substep_plan(grid: Grid, model: GradientDrift, times: np.ndarray, cfg: SolverConfig,
                 gen: _Generator | None = None) -> list[tuple[float, int]]:
    """The substep size and count that a solve steps each interval of
    ``times`` by: equal nominal steps no longer than ``cfg.dt``, each split
    into equal substeps within the positivity bound of ``gen``, the solve's
    generator, built here if not given (no LAPACK is loaded). Raises
    :class:`SolveError` if substeps times nodes exceed ``MAX_NODE_SUBSTEPS``.
    """
    dt_pos = (gen or _Generator(grid, model)).positivity_dt(cfg.theta)
    widths = np.diff(times)
    # an infinite dt_pos gives one substep; a count past float range is inf
    with np.errstate(over="ignore"):
        n_nominal = np.maximum(1.0, np.ceil(widths / cfg.dt - 1e-12))
        n_pos = np.maximum(1.0, np.ceil(widths / n_nominal / dt_pos - 1e-12))
        counts, sizes = n_nominal * n_pos, widths / n_nominal / n_pos
        substeps = float(counts.sum())
    if substeps * grid.n > MAX_NODE_SUBSTEPS:
        raise SolveError(f"{substeps:.3g} substeps of {grid.n} nodes, as short as "
                         f"{sizes.min():.3g}, make {substeps * grid.n:.3g} node-substeps, "
                         f"more than the {MAX_NODE_SUBSTEPS:g} a solve may take")
    return list(zip(sizes.tolist(), counts.astype(int).tolist()))


def solve(
    p0: Density, model: GradientDrift, t_grid: np.ndarray, cfg: SolverConfig
) -> DensityTrajectory:
    """Integrate from ``p0`` and sample the solution at ``t_grid``.

    ``t_grid`` must be strictly increasing and start at ``p0.time``. Each
    output interval is split into equal nominal steps no longer than
    ``cfg.dt``, each of them into equal substeps within the positivity bound,
    and all of them run in one kernel call. This is the one chunk of
    :func:`solved_chunks` from the one start ``p0``: each output time fills
    one row of a preallocated ``(len(t_grid), n)`` array, whose rows are then
    checked in one pass, and a failure raises :class:`SolveError` naming the
    first bad time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    ((_, values, masses),) = solved_chunks([p0], model, t_grid, cfg, t_grid.size)
    return DensityTrajectory._from_rows(t_grid, p0.grid, values[0], masses[0])


def solved_chunks(
    starts: Sequence[Density], model: GradientDrift, t_grid: np.ndarray, cfg: SolverConfig,
    rows: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Step every density of ``starts``, all on one grid, through ``t_grid``
    together, and yield their checked states ``rows`` output times at a time.

    Each kernel call steps the whole block of starts, one row per start
    (see the module docstring), so each start's rows equal its solve alone
    bit for bit, by :func:`substep_plan`, which may refuse the solve. Its
    states fill a ``(len(starts), rows, n)`` buffer. Each time the buffer
    is full, and once at the end, one pass integrates the mass of every row
    and checks every row: finite, non-negative, and of trapezoid mass within
    both ``cfg.mass_tol`` and the :class:`Density` default of one. Row 0
    holds the starts, already checked as densities. Then the chunk is
    yielded as ``(first output index, values, masses)``, where ``values``
    is a view of the buffer that the next chunk overwrites. Once a start has failed nothing more is yielded, but every
    interval is still stepped; at the end the first start, in order, whose
    rows failed raises :class:`SolveError` with its index, naming its first
    bad time. A failure of the stepping itself raises at once. The arguments
    are checked when this is called, not when the first chunk is drawn.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if not starts:
        raise ValueError("need at least one start")
    grid = starts[0].grid
    for p0 in starts:
        if p0.grid != grid:
            raise ValueError("all starts must share one grid")
        if abs(t_grid[0] - p0.time) > 1e-12:
            raise ValueError(f"t_grid must start at p0.time={p0.time}, got {t_grid[0]}")
    if len(t_grid) > 1 and np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    gen = _Generator(grid, model, width=len(starts))
    return _chunks(np.array([p0.values for p0 in starts]), gen, grid, t_grid.tolist(),
                   substep_plan(grid, model, t_grid, cfg, gen), cfg, rows)


def _chunks(block: np.ndarray, gen: _Generator, grid: Grid, times: list[float],
            plan: list[tuple[float, int]], cfg: SolverConfig,
            rows: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The stepping and checking loop of :func:`solved_chunks` from the
    states ``block``, by ``gen`` through the intervals of ``plan``."""
    mass_tol = min(cfg.mass_tol, DEFAULT_MASS_TOL)
    buffer = np.empty((len(block), min(rows, len(times)), grid.n))
    failed = None  # the SolveError of the first failing start so far
    base = 0  # the output index of the buffer's first row
    for k in range(len(times)):
        if k:
            size, count = plan[k - 1]
            try:
                block = gen.run(block, size, cfg.theta, count)
            except RuntimeError as err:
                raise SolveError(f"solve failed advancing to t={times[k]:g}: {err}") from err
        buffer[:, k - base] = block
        if k + 1 - base < buffer.shape[1] and k + 1 < len(times):
            continue
        values = buffer[:, :k + 1 - base]
        masses = integrate_rows(values, grid)
        first = 1 if base == 0 else 0
        problem = first_invalid_row(values[:, first:], masses[:, first:], mass_tol)
        if problem is not None and (failed is None or problem[0][0] < failed.start):
            (start, j), why = problem
            failed = SolveError(f"solve failed advancing to t={times[base + first + j]:g}: {why}",
                                start)
        if failed is None:
            yield base, values, masses
        base = k + 1
    if failed is not None:
        raise failed
