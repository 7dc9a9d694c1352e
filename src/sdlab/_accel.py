"""Hot numeric kernels: Euler-Maruyama stepping with trilinear drift lookup.

One vectorized numpy lane computes the update; results are
deterministic for a fixed seed.  ``sdbench feller`` times it.

The drift is read from the field viewed as a ``(c, n^3)`` table, so one
``np.take`` per cell corner gathers every component of every point, and
the eight corner weights are formed once per lookup.  Points are held
component-major, ``(3, m)``, so each weight multiplies a contiguous row.
The Euler-Maruyama lane is mask-free: every path of a chunk takes every
step, and censored paths are then put back where they left the safety
box, so no step selects the uncensored paths by a mask.  The noise is
read in place, one ``(m, 3)`` slice per step.
"""

from __future__ import annotations

import numpy as np


def active_lane():
    """Name of the path-simulation lane, recorded in run manifests."""
    return "numpy"


def _trilinear(table, points, n, h):
    """Trilinear torus interpolation of a (c, n^3) table at (3, m) points -> (c, m)."""
    u = points / h
    floor = np.floor(u)
    frac = u - floor
    rest = 1.0 - frac
    idx0 = floor.astype(np.int64)
    idx0 %= n
    idx1 = idx0 + 1
    idx1[idx1 == n] = 0
    for axis, stride in ((0, n * n), (1, n)):
        idx0[axis] *= stride
        idx1[axis] *= stride
    # corner order (i, j, k) = 000, 001, 010, ..., 111, i the slowest axis
    ij = ((idx0[0] + idx0[1], rest[0] * rest[1]), (idx0[0] + idx1[1], rest[0] * frac[1]),
          (idx1[0] + idx0[1], frac[0] * rest[1]), (idx1[0] + idx1[1], frac[0] * frac[1]))
    k = ((idx0[2], rest[2]), (idx1[2], frac[2]))
    out = None
    for flat_ij, w_ij in ij:
        for flat_k, w_k in k:
            corner = np.take(table, flat_ij + flat_k, axis=1)
            corner *= w_ij * w_k
            if out is None:
                out = corner
            else:
                out += corner
    return out


def trilinear_at(field, points, n, h):
    """Trilinear torus interpolation of (n,n,n) or (c,n,n,n) arrays at points."""
    out = _trilinear(field.reshape(-1, n ** 3), np.ascontiguousarray(points.T), n, h)
    return out[0] if field.ndim == 3 else out


def em_chunk(pos, field, n, h, dt, sqrt2dt, noise, drift_sign, lo, hi, censored):
    """Advance one chunk of paths through all steps (in place).

    A path is censored at the first step that takes it outside [lo, hi]
    and stays frozen at that position for the remaining steps.
    """
    table = field.reshape(-1, n ** 3)
    # a zero field moves a path by +-0.0, which leaves it bit for bit where
    # it was, so its gather is skipped
    drifting = np.any(table)
    x = np.ascontiguousarray(pos.T)
    kick = np.empty_like(x)
    frozen = np.flatnonzero(censored)
    held = x[:, frozen]
    for s in range(noise.shape[1]):
        if len(frozen) == len(censored):
            break
        # x + drift_sign * b * dt + sqrt2dt * noise, rounded in that order
        if drifting:
            move = _trilinear(table, x, n, h)
            move *= drift_sign
            move *= dt
            x += move
        np.multiply(noise[:, s, :].T, sqrt2dt, out=kick)
        x += kick
        x[:, frozen] = held
        outside = (x < lo) | (x > hi)
        censored |= outside[0] | outside[1] | outside[2]
        if np.count_nonzero(censored) != len(frozen):
            frozen = np.flatnonzero(censored)
            held = x[:, frozen]
    pos[...] = x.T
