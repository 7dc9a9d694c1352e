"""The Euler-Maruyama kernel as it was before the tiled-noise, padded-table step.

A frozen copy, kept as the bit-for-bit reference of ``sdlab._accel``:
the kernel may change how it computes a step, not what any step gives.
It reads the drift from the ``(c, n^3)`` table, wraps both cell corners
with int64 arithmetic, and multiplies the noise slice of every step on
its own.
"""

import numpy as np


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
