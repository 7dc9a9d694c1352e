"""Smoothness probes: Hölder exponents, smoothing-scale refinement
studies, and the distributional identity of the generator.

These are consistency probes, not membership certificates: a sampled
function cannot prove Hölder continuity, but the fitted exponents and
refinement-stable norms are the desk-scale shadows of the smoothing
claims the resolvent construction makes.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    GridFunction,
    bessel_norm,
    gradient_apply,
    laplacian_apply,
    pairing,
)
from .resolvent import ResolventAssembly

__all__ = [
    "holder_probe",
    "bessel_smoothing_study",
    "weak_identity_residual",
    "make_test_functions",
]

HOLDER_INF = float("inf")


def holder_probe(u, pairs_per_bin=2048, seed=0):
    """Estimate a Hölder exponent from max increments over distance bins.

    For up to 6 dyadic separations s (starting at 4h, below which
    spectral interpolation artifacts dominate) the probe samples node
    pairs at distance ~ s, records M(s) = max |u(x) - u(y)|, and fits
    the slope of log M against log s.

    Returns (slope, fit_residual, separations, M).  A constant input
    gives M = 0 and the +inf sentinel slope.
    """
    grid = u.grid
    vals = u.values
    rng = np.random.default_rng(seed)
    h = grid.h
    seps = []
    s = 4 * h
    # L/2 is the largest axis-aligned separation the torus supports
    while s <= grid.length / 2.0 and len(seps) < 6:
        seps.append(s)
        s *= 2.0
    if len(seps) < 4:
        raise ValueError("region too small for at least 4 distance bins")

    maxima = []
    n_total = grid.node_count()
    flat = vals.ravel()
    for s in seps:
        base = rng.integers(0, n_total, size=pairs_per_bin)
        base_nd = np.array(np.unravel_index(base, grid.shape)).T
        direction = rng.standard_normal((pairs_per_bin, grid.d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        step = np.rint(direction * (s / h)).astype(np.int64)
        keep = np.any(step != 0, axis=1)
        other_nd = (base_nd + step) % grid.n
        other = np.ravel_multi_index(other_nd[keep].T, grid.shape)
        diffs = np.abs(flat[base[keep]] - flat[other])
        maxima.append(float(diffs.max()) if len(diffs) else 0.0)
    maxima = np.array(maxima)
    seps = np.array(seps)
    if np.all(maxima == 0.0):
        return HOLDER_INF, 0.0, seps, maxima
    good = maxima > 0
    logs, logm = np.log(seps[good]), np.log(maxima[good])
    slope, intercept = np.polyfit(logs, logm, 1)
    resid = float(np.sqrt(np.mean((logm - (slope * logs + intercept)) ** 2)))
    return float(slope), resid, seps, maxima


def rough_input(grid, seed=0):
    """White-noise-like field: iid unit normals per node.

    Its L^2 norm is grid-independent (about sqrt(volume)) while any
    positive-order smoothness norm diverges under refinement, which is
    exactly what the smoothing study needs from its input.
    """
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.standard_normal(grid.shape).astype(np.complex128))


def bessel_smoothing_study(fields, params, q, seed=0):
    """Smoothing-order norms of resolvent outputs across grid refinement.

    ``fields`` holds one drift field per grid size, coarse to fine.  For
    each, a fresh rough input on the field's grid goes through the
    fractional factorization at ``params``, and the order-(1 + 1/q)
    ``params.p`` norms of input and output are recorded.  The output
    sequence should stay bounded (ratio of successive values <= 1.1)
    while the input sequence diverges.

    Returns rows (n, norm_out, norm_in).
    """
    order = 1.0 + 1.0 / q
    rows = []
    for b in fields:
        f = rough_input(b.grid, seed=seed)
        u = ResolventAssembly(params, b, representation="fractional").apply(f)
        rows.append((b.grid.n, bessel_norm(u, order, params.p), bessel_norm(f, order, params.p)))
    return rows


def make_test_functions(grid, count=5, seed=0):
    """Gaussian-windowed low-degree polynomials supported well inside the box."""
    rng = np.random.default_rng(seed)
    sigma = grid.length / 8.0
    center = grid.length / 2.0
    coords = grid.coordinates()
    out = []
    for _ in range(count):
        shift = rng.uniform(-grid.length / 8.0, grid.length / 8.0, size=grid.d)
        r2 = sum((c - center - s) ** 2 for c, s in zip(coords, shift))
        window = np.exp(-r2 / (2.0 * sigma ** 2))
        poly = rng.uniform(-1.0, 1.0)
        for j in range(grid.d):
            poly = poly + rng.uniform(-1.0, 1.0) * (coords[j] - center) / grid.length
        out.append(GridFunction(grid, (window * poly).astype(np.complex128)))
    return out


def weak_identity_residual(params, b, f, test_functions):
    """Max relative residual of the distributional identity of the generator.

    With u the resolvent output, (generator u) = f - zeta u, and the
    identity <f - zeta u, v> = <u, -Lap v> + <b . grad u, v> is tested
    against smooth windowed test functions v.  The advection term is
    grouped as |b|^(1/p') * (b^(1/p) . grad u), matching the factor
    split used by the assembly.
    """
    assembly = ResolventAssembly(params, b)
    u = assembly.apply(f)
    grad_u = gradient_apply(u)
    inner = np.sum(assembly.weight_vec * grad_u, axis=0)
    advect = GridFunction(b.grid, assembly.weight_out * inner)
    zeta = params.zeta
    worst = 0.0
    for v in test_functions:
        lap_v = laplacian_apply(v)
        lhs = pairing(f, v) - zeta * pairing(u, v)
        rhs = -pairing(u, lap_v) + pairing(advect, v)
        scale = (
            abs(pairing(f, v))
            + abs(zeta) * abs(pairing(u, v))
            + abs(pairing(u, lap_v))
            + abs(pairing(advect, v))
            + 1e-300
        )
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst
