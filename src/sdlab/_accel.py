"""Hot numeric kernels: Euler-Maruyama stepping with trilinear drift lookup.

One vectorized numpy lane computes the update; results are
deterministic for a fixed seed.  ``sdbench feller`` times it.

The drift is read from the field padded with one wrapped plane per axis
and viewed as a ``(c, (n+1)^3)`` table, so one ``np.take`` per cell
corner gathers every component of every point, the upper corner of a
cell never wraps, and the eight corner weights are formed once per
lookup.  Only the lower corner is wrapped onto the base period, in
floats.  Points are held component-major, ``(3, m)``, so each weight
multiplies a contiguous row.  The Euler-Maruyama lane is mask-free:
every path of a chunk takes every step, and censored paths are then put
back where they left the safety box, so no step selects the uncensored
paths by a mask.  The noise is read in tiles of TILE steps, each copied
once, scaled by sqrt(2 dt), into a contiguous ``(TILE, 3, m)`` buffer.
Each step rounds exactly as a step that reads its own noise slice and
wraps both corners on an unpadded table, so positions and censored
flags are bit for bit those of that kernel (``tests/em_reference.py``).
"""

from __future__ import annotations

import numpy as np

# steps whose noise is scaled into one contiguous buffer at a time
TILE = 16


def active_lane():
    """Name of the path-simulation lane, recorded in run manifests."""
    return "numpy"


def _padded_table(field, n):
    """The (c, (n+1)^3) table of an (n,n,n) or (c,n,n,n) field, with plane n a copy of plane 0 on each axis."""
    values = field.reshape(-1, n, n, n)
    table = np.empty((len(values), n + 1, n + 1, n + 1))
    table[:, :n, :n, :n] = values
    table[:, n] = table[:, 0]
    table[:, :, n] = table[:, :, 0]
    table[:, :, :, n] = table[:, :, :, 0]
    return table.reshape(len(values), -1)


def _trilinear(table, points, n, h):
    """Trilinear torus interpolation of a padded (c, (n+1)^3) table at (3, m) points -> (c, m)."""
    u = points / h
    lower = np.floor(u)
    frac = u - lower
    rest = 1.0 - frac
    # the lower corner on the base period, f - n floor(f/n): exact on integer values, negative ones too
    wrap = lower / n
    np.floor(wrap, out=wrap)
    wrap *= n
    lower -= wrap
    idx = lower.astype(np.int64)
    p = n + 1
    base = idx[0] * (p * p)
    idx[1] *= p
    base += idx[1]
    base += idx[2]
    # corner order (i, j, k) = 000, 001, 010, ..., 111, i the slowest axis
    ij = ((0, rest[0] * rest[1]), (p, rest[0] * frac[1]),
          (p * p, frac[0] * rest[1]), (p * p + p, frac[0] * frac[1]))
    k = ((0, rest[2]), (1, frac[2]))
    flat = np.empty_like(base)
    out = None
    for offset_ij, w_ij in ij:
        for offset_k, w_k in k:
            np.add(base, offset_ij + offset_k, out=flat)
            corner = np.take(table, flat, axis=1)
            corner *= w_ij * w_k
            if out is None:
                out = corner
            else:
                out += corner
    return out


def trilinear_at(field, points, n, h):
    """Trilinear torus interpolation of (n,n,n) or (c,n,n,n) arrays at points."""
    out = _trilinear(_padded_table(field, n), np.ascontiguousarray(points.T), n, h)
    return out[0] if field.ndim == 3 else out


def em_chunk(pos, field, n, h, dt, sqrt2dt, noise, drift_sign, lo, hi, censored):
    """Advance one chunk of paths through all steps (in place).

    A path is censored at the first step that takes it outside [lo, hi]
    and stays frozen at that position for the remaining steps.
    ``drift_sign`` is +1 or -1.
    """
    # a zero field moves a path by +-0.0, which leaves it bit for bit where
    # it was, so its gather is skipped
    drifting = np.any(field)
    table = _padded_table(field, n) if drifting else None
    # b * drift_sign * dt with drift_sign = +-1, rounded once
    scale = drift_sign * dt
    x = np.ascontiguousarray(pos.T)
    m, steps = noise.shape[:2]
    tile = np.empty((min(TILE, steps), 3, m))
    frozen = np.flatnonzero(censored)
    held = x[:, frozen]
    for s in range(steps):
        if len(frozen) == len(censored):
            break
        if s % TILE == 0:
            kicks = tile[: min(TILE, steps - s)]
            np.multiply(noise[:, s : s + len(kicks)].transpose(1, 2, 0), sqrt2dt, out=kicks)
        # x + drift_sign * b * dt + sqrt2dt * noise, rounded in that order
        if drifting:
            move = _trilinear(table, x, n, h)
            move *= scale
            x += move
        x += tile[s % TILE]
        if len(frozen):
            x[:, frozen] = held
        outside = (x < lo) | (x > hi)
        censored |= outside[0] | outside[1] | outside[2]
        if np.count_nonzero(censored) != len(frozen):
            frozen = np.flatnonzero(censored)
            held = x[:, frozen]
    pos[...] = x.T
