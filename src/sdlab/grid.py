"""Periodic-grid spectral core.

A cubic torus of side ``L`` sampled with ``n`` points per axis carries
complex scalar fields (GridFunction) and real d-component vector fields,
the drifts (GridVectorField).  Fractional resolvent powers of the
Laplacian act as Fourier multipliers (zeta + |k|^2)^(-alpha) on the
discrete frequency set, which makes every operator in this package exact
on the grid up to floating point.

Every transform in sdlab goes through ``fftn``/``ifftn``/``irfftn`` here.
A grid's axes are the trailing d axes of an array, ``Grid.axes`` =
(-d, ..., -1), and leading axes are a batch: one call over ``Grid.axes``
transforms one grid array, a ``(d,) + shape`` stack of them (the spectral
gradient's), or a ``(d, s) + shape`` stack of a batch of s.  A call on fewer than
``THREADED_MIN_NODES`` (64^3) values in all runs on one worker, so a
(3, 32^3) stack does; a larger one runs on ``fft_workers()`` workers
(``SDL_THREADS`` or ``--threads``).  Below 64^3 a second worker costs a
thread hand-off that the call does not earn back.  pocketfft computes
each 1-D line the same way on any thread and in any batch, so neither
the worker count nor the stacking changes a result.

The elementwise passes between the transforms of a Neumann series follow
the same rule through ``split_pass``: on a grid of 64^3 values or more, a
pass runs on min(``fft_workers()``, n) slabs of the first grid axis, one
on the calling thread and the rest on a thread pool built on first use;
below it, the pass is one numpy call on the whole arrays.  Each output
value is computed by the same operations either way.

Independent small calls share the workers the same way.
``estimate_op_norm`` at p != 2 runs its random starts in groups of
``batch_limit(grid)`` starts at most, each group one batch whose
``(d, s) + shape`` gradient stack stays below THREADED_MIN_NODES values,
so every transform and pass inside a group runs on one worker; the
groups run through ``run_on_workers``, one on the calling thread and the
rest on the slab pool.  Where one start's ``(d,) + shape`` stack reaches
THREADED_MIN_NODES (64^3 in d = 3), ``batch_limit`` is 0 and the starts
run one at a time on the calling thread, with their transforms and passes
on the workers.  So work is either split inside one large call or spread
over small independent calls, never both, and no pool task waits on the
pool.  Measured on 2 vCPU against one start at a time: the eight 32^3
p = 2.5 loop norms of acceptance criterion 5 (64 starts each) went from
81-97 s to 54-67 s, and ``sdbench`` ``certify`` (eight 16^3 ones, 8 starts
each) from 2.30 to 2.01 s of ``wall_s``.  The Monte Carlo path lane
shares them too: ``sim.simulate_paths`` steps one noise block on the
calling thread while the pool draws the next, one numpy call that
releases the GIL.  With one worker, ``run_on_workers`` calls its tasks in
order on the calling thread, so its callers need no branch on the count.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy.fft as _fft

from .errors import ComplexFieldError, GridMismatchError, NonFiniteFieldError

__all__ = [
    "Grid",
    "GridFunction",
    "GridVectorField",
    "lp_norm",
    "pairing",
    "bessel_norm",
    "laplacian_apply",
    "gradient_apply",
    "fft_workers",
    "set_fft_workers",
    "split_pass",
    "run_on_workers",
    "batch_limit",
]


def parse_thread_count(value):
    """An ``SDL_THREADS`` value as a positive worker count, or None when it is unset or invalid.

    A bad value must not break ``import sdlab`` (the default count is
    used); the CLI reports it.
    """
    try:
        n = int(value)
    except (TypeError, ValueError):
        return None
    return n if n > 0 else None


_FFT_WORKERS = parse_thread_count(os.environ.get("SDL_THREADS")) or min(4, os.cpu_count() or 1)
# the smallest transform that gets fft_workers() workers; smaller ones get one
THREADED_MIN_NODES = 64 ** 3
# fourier_eval works in blocks of points whose intermediate stays within this size
FOURIER_EVAL_BLOCK_BYTES = 16 * 2**20


def set_fft_workers(n):
    """Set the workers of a transform, or an elementwise ``split_pass``, of at least THREADED_MIN_NODES values.

    Smaller calls always run on one worker, a pass never on more workers
    than its first grid axis has planes, and results do not depend on the
    count.  Raises ValueError when ``n`` is below 1.
    """
    global _FFT_WORKERS
    n = int(n)
    if n < 1:
        raise ValueError(f"expected a positive FFT worker count, got {n}")
    _FFT_WORKERS = n


def fft_workers():
    """The workers of a transform, or a ``split_pass``, of at least THREADED_MIN_NODES values."""
    return _FFT_WORKERS


# (fft_workers(), pool of fft_workers() - 1 threads) of split_pass, built on first use
_SLAB_POOL = None
_SLAB_POOL_LOCK = threading.Lock()


def _slab_pool():
    global _SLAB_POOL
    with _SLAB_POOL_LOCK:
        if _SLAB_POOL is None or _SLAB_POOL[0] != _FFT_WORKERS:
            if _SLAB_POOL is not None:
                _SLAB_POOL[1].shutdown(wait=False)
            _SLAB_POOL = (_FFT_WORKERS, ThreadPoolExecutor(_FFT_WORKERS - 1, thread_name_prefix="sdlab-slab"))
        return _SLAB_POOL[1]


def run_on_workers(tasks):
    """Call each of ``tasks``, at most fft_workers() of them: the first on the calling
    thread and the rest on the slab pool; returns their results in order when all are done.

    With one worker, any number of tasks run in order on the calling
    thread, as does a single task, and no pool is built.  A task must not
    wait on the pool itself: it makes only calls that run on one worker.
    The first exception raised by a task is raised here.
    """
    if len(tasks) == 1 or _FFT_WORKERS == 1:
        return [task() for task in tasks]
    pool = _slab_pool()
    futures = [pool.submit(task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def batch_limit(grid):
    """The most grid arrays a batch may hold while its ``(d, s) + shape`` stack stays below
    THREADED_MIN_NODES values: 21 on 16^3 and 2 on 32^3 (d = 3), and 0 where one
    ``(d,) + shape`` stack reaches it (64^3)."""
    return (THREADED_MIN_NODES - 1) // (grid.d * grid.node_count())


def split_pass(kernel, *args, grid):
    """Run the elementwise ``kernel(*args)``, on slabs of the first grid axis from THREADED_MIN_NODES grid values.

    The array arguments carry the axes of ``grid`` last, and any leading
    axes are a stack or a batch.  The grid's n^d nodes pick the path:
    below THREADED_MIN_NODES, or with one worker, the kernel runs once on
    the arguments as they are.  Otherwise it runs on min(fft_workers(), n)
    slabs of about n/count planes each, the first on the calling thread
    and the rest on the pool, and returns when all are done.  An array
    argument is cut along its first grid axis (axis ``ndim - d``, so a
    ``(d,) + shape`` stack is cut along axis 1 and a ``(d, s) + shape`` one
    along axis 2) when that axis has the n planes; any other argument (an
    axis of length 1 that broadcasts, a scalar, a ufunc, None) is passed
    whole.  The kernel must write each output value from the inputs at
    the same position only: then every value is computed by the same
    operations on any split.
    """
    n = grid.n
    count = min(_FFT_WORKERS, n) if grid.node_count() >= THREADED_MIN_NODES else 1
    if count == 1:
        kernel(*args)
        return

    def run(lo, hi):
        cut = []
        for a in args:
            axis = a.ndim - grid.d if isinstance(a, np.ndarray) else -1
            if axis >= 0 and a.shape[axis] == n:
                a = a[(slice(None),) * axis + (slice(lo, hi),)]
            cut.append(a)
        kernel(*cut)

    bounds = [n * i // count for i in range(count + 1)]
    run_on_workers([functools.partial(run, bounds[i], bounds[i + 1]) for i in range(count)])


class Grid:
    """Uniform periodic grid on [0, L)^d.

    Parameters
    ----------
    d : int
        Dimension (>= 1, typically 3).
    n_per_axis : int
        Even number of sample points per axis.
    box_length : float
        Side length L of the torus.

    Frequencies per axis are k = 2*pi*m/L for integer m in [-n/2, n/2),
    so the zero frequency appears exactly once per axis.
    """

    def __init__(self, d=3, n_per_axis=32, box_length=2 * np.pi):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if n_per_axis % 2 != 0 or n_per_axis < 2:
            raise ValueError("n_per_axis must be a positive even integer")
        if box_length <= 0:
            raise ValueError("box_length must be positive")
        self.d = int(d)
        self.n = int(n_per_axis)
        self.length = float(box_length)
        self.h = self.length / self.n
        self.shape = (self.n,) * self.d

        # fftfreq(n, d=h) returns cycles per unit length; convert to angular.
        k1 = 2.0 * np.pi * _fft.fftfreq(self.n, d=self.h)
        self.k_axis = k1
        self.k_components = []
        for j in range(self.d):
            shape = [1] * self.d
            shape[j] = self.n
            self.k_components.append(k1.reshape(shape))
        self.k_squared = sum(kc ** 2 for kc in self.k_components)
        # the odd symbols 1j*k_j of d/dx_j; they keep the unpaired Nyquist entry, so
        # they map real data to complex data.  Every path reads them except
        # ``evolve``'s steps, which read ik_half_components
        self.ik_components = [1j * kc for kc in self.k_components]
        # the real lane's odd symbols: the Nyquist entry of each axis is zeroed, so
        # they map real data to real data (the derivative of the real
        # interpolant), and the last axis keeps only the n//2 + 1 frequencies of
        # the half spectrum that ``irfftn`` reads
        self.half_shape = self.shape[:-1] + (self.n // 2 + 1,)
        k_real = k1.copy()
        k_real[self.n // 2] = 0.0
        self.ik_half_components = [1j * k_real.reshape(kc.shape) for kc in self.k_components]
        self.ik_half_components[-1] = self.ik_half_components[-1][..., :self.half_shape[-1]]
        # the grid's axes, the trailing ones of a grid array, a (d,) + shape
        # stack of them, or a batch of either
        self.axes = tuple(range(-self.d, 0))
        x1 = self.h * np.arange(self.n)
        self.x_axis = x1

    def cell_volume(self):
        return self.h ** self.d

    def node_count(self):
        return self.n ** self.d

    def coordinates(self):
        """Return d broadcastable coordinate arrays (mesh of node positions)."""
        return np.meshgrid(*([self.x_axis] * self.d), indexing="ij")

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.d == other.d
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.d, self.n, self.length))

    def __repr__(self):
        return f"Grid(d={self.d}, n_per_axis={self.n}, box_length={self.length})"


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


class GridFunction:
    """Complex scalar samples on a Grid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise GridMismatchError(
                f"value shape {values.shape} does not match grid shape {grid.shape}"
            )
        self.grid = grid
        self.values = values

    @classmethod
    def from_callable(cls, grid, fn):
        coords = grid.coordinates()
        return cls(grid, np.asarray(fn(*coords), dtype=np.complex128))

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def delta(cls, grid, index):
        """Unit-mass discrete delta: value h^-d at a single node."""
        v = np.zeros(grid.shape, dtype=np.complex128)
        v[tuple(index)] = grid.h ** (-grid.d)
        return cls(grid, v)

    def __add__(self, other):
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"GridFunction({self.grid}, |f|_max={np.abs(self.values).max():.4g})"


class GridVectorField:
    """d real components per node: a drift b: R^d -> R^d, stored as one C-contiguous float64 array.

    Every component value must be finite (``NonFiniteFieldError``, checked
    first), and a complex input must have a zero imaginary part
    (``ComplexFieldError``).
    """

    def __init__(self, grid, values):
        values = np.asarray(values)
        if values.shape != (grid.d,) + grid.shape:
            raise GridMismatchError(
                f"component shape {values.shape} does not match (d,)+grid {((grid.d,) + grid.shape)}"
            )
        bad = values.size - np.count_nonzero(np.isfinite(values))
        if bad:
            raise NonFiniteFieldError(f"drift field holds {bad} NaN or infinite component value(s)")
        if np.iscomplexobj(values):
            if np.any(values.imag):
                raise ComplexFieldError("drift field holds component values with a nonzero imaginary part")
            values = values.real
        self.grid = grid
        self.values = np.ascontiguousarray(values, dtype=np.float64)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.d,) + grid.shape))

    def magnitude(self):
        """Pointwise Euclidean magnitude |b|."""
        return np.sqrt(np.sum(self.values ** 2, axis=0))

    def __mul__(self, scalar):
        return GridVectorField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"GridVectorField({self.grid}, sup|b|={self.magnitude().max():.4g})"


def _workers(values):
    return _FFT_WORKERS if values.size >= THREADED_MIN_NODES else 1


def _numpy_dtype(out):
    """A transform written over its input, viewed under numpy's own instance of its dtype.

    pocketfft returns arrays under a dtype instance of its own, and numpy
    copies an operand whose dtype instance is not the output's before it
    multiplies into the same memory: without the view, a product written
    in place on a transform that overwrote its input would allocate a
    copy.  An output that owns its data is returned as it is, since a view
    would keep numpy from reusing it as a temporary (``S * fftn(v)`` is
    computed in place as ``fftn(v) * S`` from 256 KiB on).
    """
    return out if out.flags.owndata else out.view(out.dtype.type)


def fftn(values, axes=None, overwrite_x=False):
    """scipy.fft.fftn over ``axes`` (all by default), on one worker below THREADED_MIN_NODES values, else fft_workers().

    The worker rule counts the values of the whole call, stacked arrays
    included.  With ``overwrite_x`` a complex input may be overwritten by
    the output, which is then returned as a view of it; pass only a
    temporary.
    """
    return _numpy_dtype(_fft.fftn(values, axes=axes, overwrite_x=overwrite_x, workers=_workers(values)))


def ifftn(values, axes=None, overwrite_x=False):
    return _numpy_dtype(_fft.ifftn(values, axes=axes, overwrite_x=overwrite_x, workers=_workers(values)))


def irfftn(values, s, axes=None, overwrite_x=False):
    """scipy.fft.irfftn: the real array of shape ``s`` over ``axes`` whose transform has ``values``
    on the last axis's n//2 + 1 nonnegative frequencies; the worker rule of ``fftn``.

    The output is a new float64 array; with ``overwrite_x`` the input may
    be destroyed.
    """
    return _numpy_dtype(_fft.irfftn(values, s=s, axes=axes, overwrite_x=overwrite_x, workers=_workers(values)))


def apply_symbol_array(symbol_values, f):
    """Apply a precomputed symbol array to a GridFunction, transform first: ifftn(fftn(f) * S)."""
    fhat = fftn(f.values)
    fhat *= symbol_values
    return GridFunction(f.grid, ifftn(fhat, overwrite_x=True))


def lp_norm_values(values, p, cell_volume):
    """Discrete L^p norm (h^d sum |v|^p)^(1/p) of a raw node array, finite p >= 1."""
    return lp_norm_of_powers(np.abs(values) ** p, p, cell_volume)


def lp_norm_of_powers(powers, p, cell_volume):
    """(h^d sum powers)^(1/p): ``lp_norm_values`` from the array |v|^p, summed in the same order."""
    return float((cell_volume * np.sum(powers)) ** (1.0 / p))


def lp_norm(f, p):
    """Discrete L^p norm (h^d sum |f|^p)^(1/p); sup-norm for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return lp_norm_values(f.values, p, f.grid.cell_volume())


def pairing(u, v):
    """Sesquilinear pairing h^d sum u * conj(v); pairing(u, u) = |u|_2^2."""
    _check_same_grid(u, v)
    return complex(u.grid.cell_volume() * np.sum(u.values * np.conj(v.values)))


def bessel_norm(f, alpha, p):
    """Smoothness-weighted norm |(1 - Laplacian)^(alpha/2) f|_p.

    Realized by the multiplier (1 + |k|^2)^(alpha/2), so alpha = 0 gives
    lp_norm up to transform rounding.
    """
    sym = np.power(1.0 + f.grid.k_squared, alpha / 2.0).astype(np.complex128)
    return lp_norm(apply_symbol_array(sym, f), p)


def laplacian_apply(f):
    """Spectral Laplacian, the differential part of the drift generator."""
    return apply_symbol_array(-f.grid.k_squared.astype(np.complex128), f)


def gradient_apply(f):
    """Spectral gradient of f as a complex ``(d,) + shape`` stack, its d components in one inverse transform."""
    grid = f.grid
    fhat = fftn(f.values)
    comps = np.empty((grid.d,) + grid.shape, dtype=np.complex128)
    for j in range(grid.d):
        np.multiply(grid.ik_components[j], fhat, out=comps[j])
    return ifftn(comps, axes=grid.axes, overwrite_x=True)


def fourier_eval(f, points):
    """Evaluate the trigonometric interpolant of f at off-grid points.

    Exact for band-limited grid functions; reads PDE values at Monte
    Carlo starts and grid payoffs at path ends.  The unpaired Nyquist
    entry of each axis is split evenly between +k_N and -k_N, so that
    axis factor is cos(k_N x): the interpolant matches f at the nodes and
    is real for real data.  One (m, n) phase matrix per axis is
    contracted with the coefficients, last axis first, over point blocks
    of at most FOURIER_EVAL_BLOCK_BYTES of intermediate.
    """
    grid = f.grid
    n, d = grid.n, grid.d
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coef = (fftn(f.values) / grid.node_count()).reshape(-1, n)
    nyquist = n // 2
    block = max(1, FOURIER_EVAL_BLOCK_BYTES // (16 * len(coef)))
    out = np.empty(len(pts), dtype=np.complex128)
    for start in range(0, len(pts), block):
        x = pts[start:start + block]
        phase = np.exp(1j * x[:, :, None] * grid.k_axis)  # (m, d, n)
        phase[:, :, nyquist] = np.cos(grid.k_axis[nyquist] * x)
        acc = phase[:, -1] @ coef.T
        for j in range(d - 2, -1, -1):
            acc = np.einsum("irk,ik->ir", acc.reshape(len(x), -1, n), phase[:, j])
        out[start:start + len(x)] = acc[:, 0]
    return out
