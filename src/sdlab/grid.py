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

from .errors import GridMismatchError, NonFiniteFieldError, SpectralDomainError

__all__ = [
    "Grid",
    "GridFunction",
    "GridVectorField",
    "MultiplierSymbol",
    "apply_multiplier",
    "lp_norm",
    "pairing",
    "bessel_norm",
    "multiply_pointwise",
    "laplacian_apply",
    "gradient_apply",
    "divergence_apply",
    "fft_workers",
    "set_fft_workers",
]


def _env_fft_workers():
    """SDL_THREADS when it is a positive integer, else min(4, cores).

    A bad value must not break ``import sdlab``; the CLI reports it.
    """
    try:
        n = int(os.environ.get("SDL_THREADS", "0"))
    except ValueError:
        n = 0
    return n if n > 0 else min(4, os.cpu_count() or 1)


_FFT_WORKERS = _env_fft_workers()


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
        x1 = self.h * np.arange(self.n)
        self.x_axis = x1

    @property
    def n_per_axis(self):
        return self.n

    @property
    def box_length(self):
        return self.length

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

    def copy(self):
        return GridFunction(self.grid, self.values.copy())

    def real_part(self):
        return GridFunction(self.grid, self.values.real.astype(np.complex128))

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

    def copy(self):
        return GridVectorField(self.grid, self.values.copy())

    def __add__(self, other):
        if self.grid != other.grid:
            raise GridMismatchError("grids differ")
        return GridVectorField(self.grid, self.values + other.values)

    def __mul__(self, scalar):
        return GridVectorField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"GridVectorField({self.grid}, sup|b|={self.magnitude().max():.4g})"


class MultiplierSymbol:
    """Closed-form Fourier multiplier (zeta - Laplacian)^(-alpha).

    With ``grad_axis = j`` the symbol carries the extra factor i*k_j,
    realizing the j-th component of grad (zeta - Laplacian)^(-alpha).
    Principal branch of the complex power; Re(zeta) > 0 keeps
    zeta + |k|^2 in the right half-plane so the branch cut is never
    crossed.
    """

    def __init__(self, zeta, alpha, grad_axis=None):
        zeta = complex(zeta)
        if zeta.real <= 0:
            raise SpectralDomainError(f"Re(zeta) must be positive, got {zeta}")
        self.zeta = zeta
        self.alpha = float(alpha)
        self.grad_axis = grad_axis

    def values(self, grid):
        base = np.power(self.zeta + grid.k_squared, -self.alpha)
        if self.grad_axis is None:
            return base
        j = int(self.grad_axis)
        if not 0 <= j < grid.d:
            raise ValueError(f"grad_axis {j} out of range for d={grid.d}")
        return 1j * grid.k_components[j] * base

    def __repr__(self):
        g = "" if self.grad_axis is None else f", grad_axis={self.grad_axis}"
        return f"MultiplierSymbol(zeta={self.zeta}, alpha={self.alpha}{g})"


def fftn(values):
    return _fft.fftn(values, workers=_FFT_WORKERS)


def ifftn(values):
    return _fft.ifftn(values, workers=_FFT_WORKERS)


def apply_symbol_array(symbol_values, f):
    """Apply a precomputed symbol array to a GridFunction (hot path)."""
    return GridFunction(f.grid, ifftn(symbol_values * fftn(f.values)))


def apply_multiplier(sym, f):
    """Apply a MultiplierSymbol to f; exact on the discrete frequency set."""
    return apply_symbol_array(sym.values(f.grid), f)


def lp_norm(f, p):
    """Discrete L^p norm (h^d sum |f|^p)^(1/p); sup-norm for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    hd = f.grid.cell_volume()
    return float((hd * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


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


def multiply_pointwise(w, f):
    """Nodewise product; realizes multiplication operators like |b|^(1/p')."""
    if isinstance(w, GridFunction):
        _check_same_grid(w, f)
        w = w.values
    return GridFunction(f.grid, w * f.values)


def laplacian_apply(f):
    """Spectral Laplacian, the differential part of the drift generator."""
    return apply_symbol_array(-f.grid.k_squared.astype(np.complex128), f)


def gradient_apply(f):
    """Spectral gradient as a GridVectorField."""
    grid = f.grid
    fhat = fftn(f.values)
    comps = np.empty((grid.d,) + grid.shape, dtype=np.complex128)
    for j in range(grid.d):
        comps[j] = ifftn(1j * grid.k_components[j] * fhat)
    return GridVectorField(grid, comps)


def divergence_apply(v):
    """Spectral divergence; divergence of gradient recovers the Laplacian."""
    grid = v.grid
    out = np.zeros(grid.shape, dtype=np.complex128)
    for j in range(grid.d):
        out += ifftn(1j * grid.k_components[j] * fftn(v.values[j]))
    return GridFunction(grid, out)


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
