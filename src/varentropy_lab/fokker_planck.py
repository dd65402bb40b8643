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
asymptotically. Time stepping is Crank-Nicolson, the trapezoidal rule,
second order in time; when the explicit half of the update would violate
the positivity bound ``dt * max|diag| / 2 <= 1`` the step is transparently
split into equal substeps, so no step produces a negative node value.

The generator L is in detailed balance with the sampled stationary density
pbar: the flux across each cell vanishes at pbar. So ``S = D^-1 L D`` is
symmetric for ``d_i = sqrt(pbar_i / width_i) = exp(-Phi(x_i) / sigma^2) /
sqrt(width_i)``, with the off-diagonal ``sqrt(upper_i lower_{i+1})`` and L's
diagonal (Chang & Cooper; Mohammadi & Borzi, J. Numer. Math. 23, 2015), and
a Crank-Nicolson step of L is ``D`` times that step of S times ``D^-1``. The
generator computes d from the potential, centred in log space (its largest
and smallest logarithms equally far from 0), and steps in that basis, the
symmetric path, unless the form cannot be represented. Then it keeps the
pivoted LU of L, the LU path, with d = 1. It decides from its own arrays,
with no option:

* a cell whose coupling is one-way (the fitting weight ``B(z)`` is 0 where
  ``e^z`` overflows, so ``sqrt(upper_i lower_{i+1})`` is 0) takes the LU
  path;
* so does a log scale ``ln d`` that spreads wider than
  ``_MAX_LOG_SCALE_SPREAD`` (256), whose d or 1/d would reach beyond 1e56.

Both shipped ``run`` configs and the shipped sweep take the symmetric path
(spreads 16 and 31); a quartic ``x^4`` at sigma 0.5 on [-7, 7] takes the LU
path (spread 9600, and 22 one-way cells).

On the symmetric path the implicit matrix ``I - dt S / 2`` is a symmetric
M-matrix, so positive definite, and it is factored as ``L D L^T`` without
pivoting (LAPACK ``dpttrf``) and solved with ``dpttrs``; the explicit stage
multiplies by ``I + dt S / 2``. Both stages keep non-negative data
non-negative exactly, in floating point, not just up to rounding: within the
positivity bound the explicit stage sums non-negative products, and the
``L D L^T`` solve's multipliers are non-positive, so its forward and back
substitutions add non-negative terms and divide by positive pivots. The
scaling by 1/d and by d multiplies by positive numbers.

Mass is conserved to rounding. On the LU path the update is in flux form
and the boundary fluxes are identically zero, so each step conserves
trapezoid-rule mass to rounding. The symmetric path's step is that flux-form
step only up to the rounding of ``D S D^-1``: d comes from the potential,
and the Bernoulli weights from its differences, so the two agree only to
rounding, which grows with the spread of ``ln d``. The measured drift stays
at the level of rounding: ``run double_well_relax`` has a largest ``|mass - 1|`` of 2.0e-13,
where the LU path gave 2.4e-13.

One loop steps
and checks every solve: :func:`solved_chunks` steps one or more starts on
one grid together and fills a buffer of a given number of output times per
start; each time it is full, one pass takes the mass of every row and
checks the rows, and the chunk is yielded. :func:`solve` is its one chunk
of every output time of one start. A caller that needs only some numbers
of each state reduces the chunks as they come and holds no trajectory, as
every scenario run does (``scenarios._solve_streamed``).

The implicit matrix ``I - dt A / 2`` of a step, with A = S or L, depends
only on the generator and the substep size ``dt``, and a run uses only a
few distinct substep sizes. Each generator therefore factors that
tridiagonal matrix once per ``dt``, with ``dpttrf`` or ``dgttrf``,
and keeps the factors with the prebuilt arguments of each call a substep
makes, for a bounded number of sizes, so irregular output meshes cannot grow
memory. A solve builds its own generator and shares it, and its buffers,
with no other solve, so solves may run in separate threads.

One output interval is one kernel call: all its substeps have one size.
The kernel steps a block of m states, one per row of the generator's two
``(m, n)`` state buffers: one state for :func:`solve`, one per start for
:func:`solved_chunks`. It divides the block by d once, takes every
substep as two LAPACK calls between the buffers, with ``NRHS = m`` and both
leading dimensions ``LDX = LDB = n``, and multiplies the last states by d
once. ``dlagtm`` writes the explicit stage ``(I + dt A / 2) v`` of
one buffer into the other, and ``dpttrs`` (or ``dgttrs``) solves there in
place. These routines treat each right-hand side on its own, with the
operations a single one gets (LAPACK Users' Guide, Anderson et al., 3rd ed.,
1999), so each start's rows equal its solve alone bit for bit. They are bare
``ctypes`` function pointers, declaring no argument types, so the prebuilt
pointer arguments pass unconverted, and ``info`` is read once per interval.
At n = 501 a substep of the 8-state block of the sweep takes about 40 us on
the symmetric path and 68 us on the LU path, where ``dgttrs`` alone took
62 us (x86_64, one pinned CPU, median of 7 in-process runs of 2000
substeps). The ``L D L^T`` substitutions are two passes with one multiply
and subtract each on the recurrence; ``dgttrs`` tests a pivot per node and
carries a second superdiagonal. A block shares the call overhead and the
loads of the factors among its states, and a stream of chunks holds no
trajectory, so the sweep steps all 8 members as one group.

``dlagtm`` rounds node i as ``((0 + l_i v_{i-1}) + c_i v_i) + u_i v_{i+1}``,
the three-point sum evaluated left to right. On x86_64, where this was
checked, the states therefore equal separately assembled steps bit for bit
(scipy's ``dptsv`` on the symmetric path, its banded solver on the LU
path); a LAPACK compiled with fused multiply-add contraction (GCC's default
on aarch64) may fuse a product into the running sum and round differently.

The routines are loaded once per process, on the first factored step, from
the OpenBLAS bundled in numpy's wheel (symbols ``scipy_dpttrs_64_`` and so
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
from .grids import Density, DensityTrajectory, Grid, first_invalid_row, integrate_rows

#: Most substep sizes whose factored step one generator keeps, the memory
#: bound for irregular meshes. ``linspace`` rounding makes equal-looking output
#: intervals differ in their last bits: a solve of a shipped config needs up
#: to 11 sizes (``run ou_benchmark``), the one group of the 1201-sample sweep
#: 10.
_STEP_CACHE_SIZE = 16

#: Largest ``|mass - 1|`` that a solved state may have: a solve whose
#: state drifts further fails, and so ends the run that asked for it.
MASS_TOL = 1e-10

#: Most node-substeps (substeps times nodes, per start) of one solve, about
#: 4 hours at 15 ns each; the shipped solves take 4.8e6 to 2.3e8.
MAX_NODE_SUBSTEPS = 1e12

#: Widest spread ``max - min`` of ``ln d`` that the symmetric path takes.
#: Centred, d and 1/d then lie within e^128 (about 1e56) of 1, so the scaled
#: states keep all but 56 of the 308 decades below 1 that a float holds, and
#: the rounding of ``exp`` stays within about 128 units in the last place of
#: d. The shipped configs spread 16 (``ou_benchmark``) to 31 (the double well).
_MAX_LOG_SCALE_SPREAD = 256.0


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping configuration of the Chang-Cooper flux discretization,
    the only one the solver has (see module docstring).

    dt:        nominal time step used for sub-stepping between output times.
    """

    dt: float

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


#: The LAPACK routines of a factored step, in the order :func:`_lapack_routines`
#: returns them.
_ROUTINES = ("dgttrf", "dgttrs", "dpttrf", "dpttrs", "dlagtm")


def _openblas_addresses():
    """The addresses of the :data:`_ROUTINES` in the OpenBLAS that numpy's
    wheel bundles, or None where numpy links no such library."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on this handle also searches the libraries the module links
        library = ctypes.CDLL(_multiarray_umath.__file__)
        return [ctypes.cast(getattr(library, f"scipy_{name}_64_"), ctypes.c_void_p).value
                for name in _ROUTINES]
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
def _lapack_routines():
    """The :data:`_ROUTINES` as bare ctypes function pointers, their integer
    type, and the arguments that the calling convention appends to each call
    of a routine with a character argument (see the module docstring).

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
        capsules = [cython_lapack.__pyx_capi__[r] for r in _ROUTINES]
        addresses = [pointer(capsule, name(capsule)) for capsule in capsules]
        integer, lengths = ctypes.c_int32, ()
    return (*map(ctypes.CFUNCTYPE(None), addresses), integer, lengths)


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
    solve and reused across its steps, with its symmetric form
    ``S = D^-1 L D`` where that form can be represented (see the module
    docstring): ``symmetric`` says which path the steps take.

    ``run`` keeps the factored step of each substep size ``dt``, at most
    ``_STEP_CACHE_SIZE`` of them, dropping the oldest when full, and steps
    a block of ``width`` states back and forth between the generator's two
    ``(width, n)`` state buffers.
    """

    def __init__(self, grid: Grid, model: GradientDrift, width: int = 1):
        x = grid.x
        dx = grid.dx
        diff = model.sigma**2 / 2.0
        phi = model.potential(x)
        # cell weight from the exact potential drop across the cell:
        # the discrete stationary state then reproduces exp(-2 Phi / sigma^2)
        # nodewise exactly.
        w = -2.0 * (phi[1:] - phi[:-1]) / model.sigma**2
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
        # the detailed-balance basis: S = D^-1 L D is symmetric for
        # d_i = sqrt(pbar_i / width_i), with the off-diagonal sqrt(upper_i lower_i+1)
        log_scale = -phi / model.sigma**2 - 0.5 * np.log(widths)
        high, low = log_scale.max(), log_scale.min()
        self.coupling = np.sqrt(upper[:-1] * lower[1:])
        self.symmetric = bool(high - low <= _MAX_LOG_SCALE_SPREAD
                              and np.all((self.coupling > 0.0) & (self.coupling < math.inf)))
        # d centred in log space; on the LU path 1, which scales exactly
        self.scale = np.exp(log_scale - 0.5 * (high + low)) if self.symmetric else np.ones(grid.n)
        self.max_rate = float(np.max(-diag))
        self.width = width
        self._steps: dict[float, tuple] = {}
        # the block of states between substeps, which read one buffer and
        # write the other, and the two pointers that every prebuilt call passes
        self._buffers = np.empty((2, width, grid.n))
        self._states = _pointers(*self._buffers)

    def positivity_dt(self) -> float:
        """Largest dt for which the explicit stage ``I + dt L / 2`` keeps
        non-negative data non-negative (infinite where L's diagonal
        underflows to zero)."""
        if self.max_rate == 0.0:
            return math.inf
        return 1.0 / (0.5 * self.max_rate)

    def _factored_step(self, dt: float) -> tuple:
        """One Crank-Nicolson step of size ``dt``, ready to call: ``dlagtm``
        and the solve routine, ``dpttrs`` on the symmetric path and
        ``dgttrs`` on the LU path; the prebuilt arguments of ``dlagtm``
        (alpha 1, beta 0) with ``I + dt A / 2`` from state buffer 0 into
        buffer 1, then of the solve in buffer 1 with the factors of
        ``I - dt A / 2`` (``dpttrf``,
        or ``dgttrf``), and the same two from buffer 1 into buffer 0; and the
        ``info`` that the solve sets. ``A`` is ``S`` or ``L``. A buffer holds
        one state per row, so the right-hand-side count is the generator's
        width and both leading dimensions are n."""
        # loaded here, not with the package, so parsing a config loads no LAPACK
        dgttrf, dgttrs, dpttrf, dpttrs, dlagtm, integer, lengths = _lapack_routines()
        n, nrhs, info = (np.array([k], dtype=integer) for k in (self.diag.size, self.width, 0))
        trans, alpha, beta = np.array(b"N"), np.array([1.0]), np.array([0.0])
        sub, sup = ((self.coupling, self.coupling) if self.symmetric
                    else (self.lower[1:], self.upper[:-1]))

        def shifted(scale):  # the three diagonals of I + scale A
            return scale * sub, 1.0 + scale * self.diag, scale * sup

        explicit = shifted(0.5 * dt)
        lower, centre, upper = shifted(-0.5 * dt)
        # one pointer per array, shared by every call that passes the array
        trans_ptr, n_ptr, nrhs_ptr, alpha_ptr, beta_ptr, info_ptr = _pointers(
            trans, n, nrhs, alpha, beta, info)
        if self.symmetric:
            # LDL^T: the diagonal of D and the subdiagonal of L, in place
            factor, solve_step, factors, head, tail = dpttrf, dpttrs, (centre, lower), (), ()
        else:
            factor, solve_step, head, tail = dgttrf, dgttrs, (trans_ptr,), lengths
            factors = (lower, centre, upper, np.empty(n[0] - 2), np.empty(n[0], dtype=integer))
        explicit_ptr, factors_ptr = _pointers(*explicit), _pointers(*factors)
        factor(n_ptr, *factors_ptr, info_ptr)
        if info[0] != 0:
            raise RuntimeError(f"tridiagonal time-step factorization failed (info={info[0]})")
        calls = [((trans_ptr, n_ptr, nrhs_ptr, alpha_ptr, *explicit_ptr, v, n_ptr, beta_ptr, w,
                   n_ptr, *lengths),
                  (*head, n_ptr, nrhs_ptr, *factors_ptr, w, n_ptr, info_ptr, *tail))
                 for v, w in (self._states, self._states[::-1])]
        return dlagtm, solve_step, calls, info

    def run(self, values: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
        """``n_steps`` Crank-Nicolson steps of size ``dt`` from each state of
        ``values``, an ``(m, n)`` block or one state of n nodes, each solving
        (I - dt L / 2) v+ = (I + dt L / 2) v. On the symmetric path
        the block is divided by the scale d before the first step and
        multiplied by it after the last.

        Returns the generator's state buffer that holds the last states, in
        the shape of ``values``; the next call overwrites it. A block of
        another width than the generator's raises ``ValueError``.
        """
        block = np.reshape(values, (-1, self.diag.size))
        if len(block) != self.width:
            raise ValueError(f"a generator of width {self.width} cannot step "
                             f"a block of width {len(block)}")
        step = self._steps.get(dt)
        if step is None:
            if len(self._steps) >= _STEP_CACHE_SIZE:
                del self._steps[next(iter(self._steps))]  # oldest entry first
            step = self._steps[dt] = self._factored_step(dt)
        dlagtm, solve_step, calls, info = step
        np.divide(block, self.scale, out=self._buffers[0])
        # the calls alternate between the two directions, buffer 0 to 1 first
        for explicit, implicit in itertools.islice(itertools.cycle(calls), n_steps):
            dlagtm(*explicit)
            solve_step(*implicit)
        # the solve sets info only for an illegal argument, and every substep
        # passes the same ones but the states, so the last call speaks for all
        if info[0]:
            raise RuntimeError(f"tridiagonal time-step solve failed (info={info[0]})")
        out = self._buffers[n_steps % 2]
        out *= self.scale
        return out.reshape(np.shape(values))


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
    dt_pos = (gen or _Generator(grid, model)).positivity_dt()
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
    ((_, values),) = solved_chunks([p0], model, t_grid, cfg, t_grid.size)
    return DensityTrajectory._from_rows(t_grid, p0.grid, values[0])


def solved_chunks(
    starts: Sequence[Density], model: GradientDrift, t_grid: np.ndarray, cfg: SolverConfig,
    rows: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Step every density of ``starts``, all on one grid, through ``t_grid``
    together, and yield their checked states ``rows`` output times at a time.

    Each kernel call steps the whole block of starts, one row per start
    (see the module docstring), so each start's rows equal its solve alone
    bit for bit, by :func:`substep_plan`, which may refuse the solve. Its
    states fill a ``(len(starts), rows, n)`` buffer. Each time the buffer
    is full, and once at the end, one pass integrates the mass of every row
    and checks every row: finite, non-negative, and of trapezoid mass within
    ``MASS_TOL`` of one. Row 0 holds the starts, already checked as
    densities. Then the chunk is yielded as ``(first output index, values)``,
    where ``values`` is a view of the buffer that the next chunk overwrites.
    Once a start has failed nothing more is yielded, but every interval is
    still stepped; at the end the first start, in order, whose rows failed
    raises :class:`SolveError` with its index, naming its first bad time.
    A failure of the stepping itself raises at once. The arguments are
    checked when this is called, not when the first chunk is drawn.
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
                   substep_plan(grid, model, t_grid, cfg, gen), rows)


def _chunks(block: np.ndarray, gen: _Generator, grid: Grid, times: list[float],
            plan: list[tuple[float, int]],
            rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """The stepping and checking loop of :func:`solved_chunks` from the
    states ``block``, by ``gen`` through the intervals of ``plan``."""
    buffer = np.empty((len(block), min(rows, len(times)), grid.n))
    failed = None  # the SolveError of the first failing start so far
    base = 0  # the output index of the buffer's first row
    for k in range(len(times)):
        if k:
            size, count = plan[k - 1]
            try:
                block = gen.run(block, size, count)
            except RuntimeError as err:
                raise SolveError(f"solve failed advancing to t={times[k]:g}: {err}") from err
        buffer[:, k - base] = block
        if k + 1 - base < buffer.shape[1] and k + 1 < len(times):
            continue
        values = buffer[:, :k + 1 - base]
        masses = integrate_rows(values, grid)
        first = 1 if base == 0 else 0
        problem = first_invalid_row(values[:, first:], masses[:, first:], MASS_TOL)
        if problem is not None and (failed is None or problem[0][0] < failed.start):
            (start, j), why = problem
            failed = SolveError(f"solve failed advancing to t={times[base + first + j]:g}: {why}",
                                start)
        if failed is None:
            yield base, values
        base = k + 1
    if failed is not None:
        raise failed
