"""Periodic-grid spectral core.

A cubic torus of side ``L`` sampled with ``n`` points per axis carries
complex scalar fields (GridFunction) and d-component vector fields
(GridVectorField).  Fractional resolvent powers of the Laplacian act as
Fourier multipliers (zeta + |k|^2)^(-alpha) on the discrete frequency
set, which makes every operator in this package exact on the grid up to
floating point.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.fft as _fft

from .errors import GridMismatchError, NonFiniteFieldError

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


def set_fft_workers(n):
    """Set the worker count passed to scipy.fft (results are unaffected)."""
    global _FFT_WORKERS
    _FFT_WORKERS = max(1, int(n))


def fft_workers():
    return _FFT_WORKERS


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
        # the odd symbols 1j*k_j of d/dx_j, the one place they are built; they keep
        # the unpaired Nyquist entry, so they map real data to complex data
        self.ik_components = [1j * kc for kc in self.k_components]
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

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def __repr__(self):
        return f"GridFunction({self.grid}, |f|_max={np.abs(self.values).max():.4g})"


class GridVectorField:
    """d complex components per node; drift catalog entries are real-valued.

    Every component value must be finite (``NonFiniteFieldError``).
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (grid.d,) + grid.shape:
            raise GridMismatchError(
                f"component shape {values.shape} does not match (d,)+grid {((grid.d,) + grid.shape)}"
            )
        bad = values.size - np.count_nonzero(np.isfinite(values))
        if bad:
            raise NonFiniteFieldError(f"drift field holds {bad} NaN or infinite component value(s)")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.d,) + grid.shape, dtype=np.complex128))

    def magnitude(self):
        """Pointwise Euclidean magnitude |b| as a real array."""
        return np.sqrt(np.sum(np.abs(self.values) ** 2, axis=0))

    def __add__(self, other):
        if self.grid != other.grid:
            raise GridMismatchError("grids differ")
        return GridVectorField(self.grid, self.values + other.values)

    def __mul__(self, scalar):
        return GridVectorField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"GridVectorField({self.grid}, sup|b|={self.magnitude().max():.4g})"


def fftn(values):
    return _fft.fftn(values, workers=_FFT_WORKERS)


def ifftn(values):
    return _fft.ifftn(values, workers=_FFT_WORKERS)


def apply_symbol_array(symbol_values, f):
    """Apply a precomputed symbol array to a GridFunction (hot path)."""
    return GridFunction(f.grid, ifftn(symbol_values * fftn(f.values)))


def lp_norm_values(values, p, cell_volume):
    """Discrete L^p norm (h^d sum |v|^p)^(1/p) of a raw node array, finite p >= 1."""
    return float((cell_volume * np.sum(np.abs(values) ** p)) ** (1.0 / p))


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

    alpha = 0 reduces to lp_norm.  Realized by the multiplier
    (1 + |k|^2)^(alpha/2).
    """
    if alpha == 0:
        return lp_norm(f, p)
    sym = np.power(1.0 + f.grid.k_squared, alpha / 2.0).astype(np.complex128)
    return lp_norm(apply_symbol_array(sym, f), p)


def laplacian_apply(f):
    """Spectral Laplacian, the differential part of the drift generator."""
    return apply_symbol_array(-f.grid.k_squared.astype(np.complex128), f)


def gradient_apply(f):
    """Spectral gradient as a GridVectorField."""
    grid = f.grid
    fhat = fftn(f.values)
    comps = np.empty((grid.d,) + grid.shape, dtype=np.complex128)
    for j in range(grid.d):
        comps[j] = ifftn(grid.ik_components[j] * fhat)
    return GridVectorField(grid, comps)


def fourier_eval(f, points):
    """Evaluate the trigonometric interpolant of f at off-grid points.

    Exact for band-limited grid functions; used to read PDE values at
    Monte Carlo start points without interpolation error.
    """
    grid = f.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fhat = fftn(f.values) / grid.node_count()
    # Zero out the unpaired Nyquist modes' imaginary contribution by
    # evaluating with the standard one-sided convention; for the smooth
    # fields used here the Nyquist content is negligible.
    out = np.zeros(len(pts), dtype=np.complex128)
    kaxes = [grid.k_axis] * grid.d
    for i, x in enumerate(pts):
        phase = 1.0
        for j in range(grid.d):
            shape = [1] * grid.d
            shape[j] = grid.n
            phase = phase * np.exp(1j * kaxes[j] * x[j]).reshape(shape)
        out[i] = np.sum(fhat * phase)
    return out
