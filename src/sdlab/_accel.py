"""Hot numeric kernels: Euler-Maruyama stepping with trilinear drift lookup.

One vectorized numpy lane computes the update; results are
deterministic for a fixed seed.  ``sdbench feller`` times it.
"""

from __future__ import annotations

import numpy as np


def active_lane():
    """Name of the path-simulation lane, recorded in run manifests."""
    return "numpy"


def trilinear_at(field, points, n, h):
    """Trilinear torus interpolation of (n,n,n) or (c,n,n,n) arrays at points."""
    single = field.ndim == 3
    comps = field[None] if single else field
    L = n * h
    u = (points % L) / h
    idx0 = np.floor(u).astype(np.int64)
    frac = u - idx0
    idx0 %= n
    idx1 = (idx0 + 1) % n
    i0, j0, k0 = idx0[:, 0], idx0[:, 1], idx0[:, 2]
    i1, j1, k1 = idx1[:, 0], idx1[:, 1], idx1[:, 2]
    f0, f1, f2 = frac[:, 0], frac[:, 1], frac[:, 2]
    out = np.empty((comps.shape[0], len(points)), dtype=comps.dtype)
    for c in range(comps.shape[0]):
        F = comps[c]
        out[c] = (
            F[i0, j0, k0] * (1 - f0) * (1 - f1) * (1 - f2)
            + F[i0, j0, k1] * (1 - f0) * (1 - f1) * f2
            + F[i0, j1, k0] * (1 - f0) * f1 * (1 - f2)
            + F[i0, j1, k1] * (1 - f0) * f1 * f2
            + F[i1, j0, k0] * f0 * (1 - f1) * (1 - f2)
            + F[i1, j0, k1] * f0 * (1 - f1) * f2
            + F[i1, j1, k0] * f0 * f1 * (1 - f2)
            + F[i1, j1, k1] * f0 * f1 * f2
        )
    return out[0] if single else out


def em_chunk(pos, field, n, h, dt, sqrt2dt, noise, drift_sign, lo, hi, censored):
    """Advance one chunk of paths through all steps (in place)."""
    steps = noise.shape[1]
    for s in range(steps):
        active = ~censored
        if not active.any():
            break
        pts = pos[active]
        b = trilinear_at(field, pts, n, h).T
        pts = pts + drift_sign * b * dt + sqrt2dt * noise[active, s, :]
        pos[active] = pts
        out = np.any((pts < lo) | (pts > hi), axis=1)
        idx = np.nonzero(active)[0]
        censored[idx[out]] = True
