"""Semigroup construction by backward Euler through the resolvent.

e^(-t * generator) f is approximated by n repeated applications of
mu * R(mu) with mu = n/t, which reuses the guarded resolvent assembly
verbatim and therefore inherits all of its validity checks.  The
iterate stays in Fourier space (``ResolventAssembly.apply_spectral``):
one forward transform of f, n spectral steps, one inverse transform, so
a b = 0 evolve costs two transforms in all.  Richardson
extrapolation (2 u_{2n} - u_n) recovers second order when requested.

Real f takes the real lane, picked from the data (drifts are real): the
steps are ``apply_spectral_real``, which applies the real operator (odd
symbols with the Nyquist entry zeroed) with float64 grid arrays between
the transforms, and the last inverse is one ``irfftn`` of the half
spectrum.  The result is real, its imaginary part exactly 0.  Complex f
keeps the complex path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants as C
from .errors import SpectralDomainError
from .fields import truncate
from .grid import GridFunction, fftn, ifftn, irfftn, lp_norm
from .resolvent import ResolventAssembly

__all__ = [
    "SemigroupParams",
    "evolve",
    "ultracontractivity_study",
    "semigroup_convergence_study",
    "delta_sources",
]


@dataclass
class SemigroupParams:
    """Time horizon, step count, and the extrapolation flag.

    The implied spectral parameter mu = steps/t must stay inside the
    admissible half-plane, i.e. steps >= t * kappa_d * lam.
    """

    t: float
    steps: int
    richardson: bool = False

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def mu(self):
        return self.steps / self.t


def _evolve_fixed(params, b, f, t, steps, neumann_tol):
    mu = steps / t
    floor = C.kappa_d(params.d) * params.lam
    if mu < floor:
        raise SpectralDomainError(
            f"steps/t = {mu:.6g} below the half-plane floor {floor:.6g}; "
            f"need steps >= {int(np.ceil(t * floor))}"
        )
    assembly = ResolventAssembly(params.with_zeta(complex(mu)), b)
    grid = f.grid
    # real data takes the real lane (zeta = mu and the drift are real)
    real = not np.any(f.values.imag)
    step = assembly.apply_spectral_real if real else assembly.apply_spectral
    uhat = fftn(f.values.real if real else f.values)
    for _ in range(steps):
        uhat = step(uhat, tol=neumann_tol)  # in uhat's own buffer
        np.multiply(mu, uhat, out=uhat)
    if real:
        return GridFunction(grid, irfftn(uhat[..., :grid.half_shape[-1]], grid.shape, overwrite_x=True))
    return GridFunction(grid, ifftn(uhat, overwrite_x=True))


def evolve(sp, params, b, f, neumann_tol=None):
    """Apply the approximate semigroup at time sp.t to f."""
    u = _evolve_fixed(params, b, f, sp.t, sp.steps, neumann_tol)
    if sp.richardson:
        u2 = _evolve_fixed(params, b, f, sp.t, 2 * sp.steps, neumann_tol)
        u = 2.0 * u2 - u
    return u


def delta_sources(grid, count, seed=0):
    """Node indices for unit-mass delta sources: box center plus seeded picks."""
    center = (grid.n // 2,) * grid.d
    picks = [center]
    rng = np.random.default_rng(seed)
    while len(picks) < count:
        idx = tuple(int(i) for i in rng.integers(grid.n // 4, 3 * grid.n // 4, size=grid.d))
        if idx not in picks:
            picks.append(idx)
    return picks


def _p_to_r_norm(params, b, t, steps, p, r, sources, seed, neumann_tol):
    grid = b.grid
    if p == 1:
        best = 0.0
        for idx in sources:
            dly = GridFunction.delta(grid, idx)
            u = _evolve_fixed(params, b, dly, t, steps, neumann_tol)
            best = max(best, lp_norm(u, r))
        return best
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(32):
        x = rng.standard_normal(grid.shape)
        xf = GridFunction(grid, x.astype(np.complex128))
        nx = lp_norm(xf, p)
        u = _evolve_fixed(params, b, (1.0 / nx) * xf, t, steps, neumann_tol)
        best = max(best, lp_norm(u, r))
    return best


def ultracontractivity_study(
    params,
    b,
    p,
    r,
    t_grid,
    steps=16,
    n_sources=2,
    seed=0,
    neumann_tol=1e-8,
):
    """Fit the decay exponent of the p -> r smoothing norm against t.

    Norms are lower estimates: for p = 1 a sup over evolved unit-mass
    deltas at sampled sources, otherwise the largest ratio over 32
    random inputs.  Every t must be positive (ValueError, before any
    evolve).  The t grid must respect the box guard t << (L/4)^2
    and, at the small end, the kernel-resolution guard sqrt(4 pi t) >~ 2h.

    Returns (slope, t_grid, norms).
    """
    if p >= r:
        raise ValueError(f"requires p < r, got p={p}, r={r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grid = b.grid
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(t_grid > 0):
        raise ValueError(f"t_grid: every time must be positive, got {t_grid.tolist()}")
    box_guard = (grid.length / 4.0) ** 2
    if np.max(t_grid) > 0.25 * box_guard:
        raise ValueError(
            f"t_max={np.max(t_grid)} too close to the box scale (L/4)^2={box_guard}"
        )
    sources = delta_sources(grid, n_sources, seed=seed)
    norms = np.array(
        [
            _p_to_r_norm(params, b, t, steps, p, r, sources, seed, neumann_tol)
            for t in t_grid
        ]
    )
    slope = float(np.polyfit(np.log(t_grid), np.log(norms), 1)[0])
    return slope, t_grid, norms


def semigroup_convergence_study(params, b, levels, t, steps, f, b_ref=None, neumann_tol=None):
    """Error curves level -> |S(b_level) f - S(b_ref) f| in L^p and sup norm,
    with ``b_level`` = ``truncate(b, level)``."""
    b_ref = b if b_ref is None else b_ref
    sp = SemigroupParams(t, steps)
    ref = evolve(sp, params, b_ref, f, neumann_tol=neumann_tol)
    p_err, sup_err = [], []
    for lev in levels:
        u = evolve(sp, params, truncate(b, lev), f, neumann_tol=neumann_tol)
        p_err.append(lp_norm(u - ref, params.p))
        sup_err.append(lp_norm(u - ref, np.inf))
    return np.array(p_err), np.array(sup_err)
