"""Hot numeric kernels: Euler-Maruyama stepping with trilinear drift lookup.

One vectorized numpy lane computes the update; results are
deterministic for a fixed seed.  ``sdbench feller`` times it.

The drift is read from the field padded with one wrapped plane per axis
and viewed as a component-major ``(c, (n+1)^3)`` table, so the upper
corner of a cell never wraps; the lower one is wrapped onto the base
period, in floats, when a point is off it.  Points are held
component-major, ``(3, m)``.  A lookup takes all 8 corners at once: one
``(8, m)`` add of fixed offsets indexes them, one ``np.take`` gathers
them as ``(c, 8, m)``, one product weights them and one reduce sums them
in corner order, 17 numpy calls, 22 per step while no path is censored
(57 and 67 with one ``np.take`` per corner).  The lane is mask-free:
every path takes every step, censored paths are put back where they left
the safety box, and the per-path mask is built only in a step that ends
outside it.  The noise is scaled by sqrt(2 dt) in tiles of TILE steps.
Each step rounds as one that reads its own noise slice, wraps both
corners on an unpadded table and sums one corner at a time, so positions
and censored flags are bit for bit those of ``tests/em_reference.py``.
"""

from __future__ import annotations

import numpy as np

# steps whose noise is scaled into one contiguous buffer at a time
TILE = 16
# the cell corners (i, j, k) = 000, 001, 010, ..., 111, i the slowest axis
_CORNERS = np.array([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])


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
    m = points.shape[1]
    if m == 1:
        # numpy sums a lone inner axis pairwise, so one point is read twice to keep the corner order
        return _trilinear(table, np.repeat(points, 2, axis=1), n, h)[:, :1]
    u = points / h
    lower = np.floor(u)
    rf = np.empty((2, 3, m))  # (rest, frac) of the three axes
    np.subtract(u, lower, out=rf[1])
    np.subtract(1.0, rf[1], out=rf[0])
    # the lower corner on the base period, f - n floor(f/n): exact on integer values, negative ones
    # too, and skipped as the identity it is when every corner is on the period already
    if not (lower.min(initial=0) >= 0 and lower.max(initial=0) < n):
        wrap = lower / n
        np.floor(wrap, out=wrap)
        wrap *= n
        lower -= wrap
    strides = np.array([(n + 1) ** 2, n + 1, 1])
    # each corner at a fixed offset from the lower one, whose index is exact in floats (whole terms < 2^53)
    flat = (strides @ lower).astype(np.int64) + (_CORNERS @ strides)[:, None]
    # corner (i, j, k) weighs (w_i * w_j) * w_k, w_0 the rest and w_1 the frac of its axis
    w = (rf[:, None, 0] * rf[None, :, 1]).reshape(4, 1, m) * rf[:, 2]
    corners = np.take(table, flat, axis=1)
    corners *= w.reshape(8, m)
    # with the point axis the inner loop, the reduce adds corner 0, 1, ..., 7 in turn;
    # -0.0 + x is x, so a sum of -0.0 corners keeps its sign
    return np.add.reduce(corners, axis=1, initial=-0.0)


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
        # the per-path test only once some coordinate is outside; fmin and fmax pass over NaN as < and > do
        if np.fmin.reduce(x, axis=None) < lo or np.fmax.reduce(x, axis=None) > hi:
            outside = (x < lo) | (x > hi)
            censored |= outside[0] | outside[1] | outside[2]
            if np.count_nonzero(censored) != len(frozen):
                frozen = np.flatnonzero(censored)
                held = x[:, frozen]
    pos[...] = x.T
