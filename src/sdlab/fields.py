"""Drift-field catalog, truncation/mollification, and class estimators.

The catalog provides closed-form singular fields (an inverse-distance
"hardy" pole, a spherical-shell singularity, constants, band-limited
random fields, and sums of these).  Estimators measure the relative
smallness delta of a sampled field in three senses:

* ``F``      -- |b (lam - Lap)^(-1/2)|_{2->2} <= sqrt(delta)
* ``K``      -- |b (lam - Lap)^(-1/2)|_{1->1} <= delta
* ``F_half`` -- ||b|^(1/2) (lam - Lap)^(-1/4)|_{2->2} <= sqrt(delta)

Each returns the minimizing lambda over a log-spaced grid together with
the full delta(lambda) curve.  Each delta is the exact value, up to the
eigensolver's machine-precision tolerance, for the sampled grid
operator; it is not a one-sided bound for the continuum value (the
grid kernel of (lam - Lap)^(-1/2) rings, so ``K`` can exceed it).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardViolationError, PowerIterationError
from .grid import GridFunction, GridVectorField, fftn, ifftn

__all__ = [
    "DriftSpec",
    "drift_from_config",
    "ClassEstimate",
    "truncate",
    "mollify",
    "build_bn_tilde",
    "estimate_class_F_half",
    "estimate_class_F",
    "estimate_class_K",
    "guarded_pair",
    "default_lambda_grid",
]

DEFAULT_LAMBDA_GRID = np.logspace(-2.0, 4.0, 16)


def default_lambda_grid():
    return DEFAULT_LAMBDA_GRID.copy()


class DriftSpec:
    """Closed-form drift field, evaluable at any off-singularity point.

    Kinds and parameters (a parameter the kind does not take, or a
    missing one of ``REQUIRED``, is a ``ValueError`` naming it):

    * ``hardy``: c * (x - x0)/|x - x0|^2, singular at the box center.
    * ``sphere``: amp * | |x - x0| - radius |^(-beta) radial profile
      (beta < 1), singular on a sphere.
    * ``constant``: fixed vector, one entry per grid axis.
    * ``smooth-random``: band-limited random field (amp, kmax, seed), d = 3 only.
    * ``sum``: superposition of terms.

    Singular kinds shift their singular point off the lattice by half a
    cell per axis, so node samples are finite; a node value is then the
    nearest-sample cap of the continuum field, which is exactly the
    truncation mechanism the theory expects.
    """

    PARAMS = {
        "hardy": {"c": "number"},
        "sphere": {"beta": "number", "radius": "number", "amp": "number"},
        "constant": {"vector": "vector"},
        "smooth-random": {"amp": "number", "kmax": "positive count", "seed": "count"},
        "sum": {"terms": "terms"},
    }
    REQUIRED = {"sphere": "beta", "constant": "vector", "sum": "terms"}

    def __init__(self, kind, **params):
        if kind not in self.PARAMS:
            raise ValueError(f"unknown drift kind {kind!r}")
        for key in params:
            if key not in self.PARAMS[kind]:
                raise ValueError(
                    f"{key}: unknown parameter for drift kind {kind!r} "
                    f"(it takes {', '.join(self.PARAMS[kind])})"
                )
        required = self.REQUIRED.get(kind)
        if required is not None and required not in params:
            raise ValueError(f"{required}: required parameter of drift kind {kind!r} missing")
        self.kind = kind
        self.params = dict(params)
        if kind == "sum":
            self.terms = [t if isinstance(t, DriftSpec) else drift_from_config(t) for t in params["terms"]]
        if kind == "smooth-random":
            self._init_random_modes()

    def _init_random_modes(self):
        kmax = int(self.params.get("kmax", 2))
        seed = int(self.params.get("seed", 0))
        rng = np.random.default_rng(seed)
        modes = []
        for m in np.ndindex(*((2 * kmax + 1,) * 3)):
            mv = np.array(m) - kmax
            if np.all(mv == 0) or np.sum(mv * mv) > kmax * kmax:
                continue
            modes.append(mv)
        self._modes = np.array(modes)
        self._cos_amp = rng.standard_normal((len(modes), 3))
        self._sin_amp = rng.standard_normal((len(modes), 3))

    def singular_point(self, grid):
        return np.full(grid.d, grid.length / 2.0) + grid.h / 2.0

    def evaluate(self, points, grid):
        """Closed-form values at arbitrary points, shape (N, d)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n, d = pts.shape
        if self.kind == "constant":
            v = np.asarray(self.params["vector"], dtype=float)
            if v.shape != (d,):
                raise ValueError(f"vector: expected {d} numbers, one per grid axis, got {v.size}")
            return np.broadcast_to(v, (n, d)).copy()
        if self.kind == "hardy":
            x0 = self.singular_point(grid)
            rel = pts - x0
            r2 = np.sum(rel * rel, axis=1)
            r2 = np.where(r2 == 0.0, np.inf, r2)
            return self.params.get("c", 0.2) * rel / r2[:, None]
        if self.kind == "sphere":
            x0 = self.singular_point(grid)
            rel = pts - x0
            r = np.sqrt(np.sum(rel * rel, axis=1))
            r_safe = np.where(r == 0.0, np.inf, r)
            radius = self.params.get("radius", 1.0)
            beta = self.params["beta"]
            gap = np.abs(r - radius)
            gap = np.where(gap == 0.0, np.inf, gap)
            amp = self.params.get("amp", 0.2)
            return amp * gap[:, None] ** (-beta) * rel / r_safe[:, None]
        if self.kind == "smooth-random":
            if d != 3:
                raise ValueError(f"drift kind 'smooth-random' supports d = 3 only, got d = {d}")
            amp = self.params.get("amp", 0.2)
            two_pi_over_L = 2.0 * np.pi / grid.length
            phases = pts @ (self._modes.T[:d] * two_pi_over_L)
            out = np.cos(phases) @ self._cos_amp[:, :d] + np.sin(phases) @ self._sin_amp[:, :d]
            return amp * out / max(1, len(self._modes)) ** 0.5
        if self.kind == "sum":
            return np.sum([t.evaluate(pts, grid) for t in self.terms], axis=0)
        raise AssertionError(self.kind)

    def on_grid(self, grid):
        """Sample the field at the grid nodes as a real GridVectorField."""
        coords = np.stack([c.ravel() for c in grid.coordinates()], axis=1)
        vals = self.evaluate(coords, grid)
        comps = vals.T.reshape((grid.d,) + grid.shape)
        return GridVectorField(grid, comps)

    def as_config(self):
        cfg = {"kind": self.kind, **self.params}
        if self.kind == "sum":
            cfg["terms"] = [t.as_config() for t in self.terms]
        return cfg

    def __repr__(self):
        return f"DriftSpec({self.as_config()})"


def _is_number(x):
    """A JSON number, not a bool, that is finite as a float (a 400-digit integer is not)."""
    return not isinstance(x, bool) and isinstance(x, (int, float)) and abs(x) <= sys.float_info.max


# what each kind of DriftSpec.PARAMS takes from JSON: (description, test)
PARAM_KINDS = {
    "number": ("a finite number", _is_number),
    "count": ("a whole number of at least 0", lambda x: _is_number(x) and x == int(x) and x >= 0),
    "positive count": ("a whole number of at least 1", lambda x: _is_number(x) and x == int(x) and x >= 1),
    "vector": ("a nonempty list of finite numbers", lambda x: isinstance(x, list) and x and all(map(_is_number, x))),
    "terms": ("a nonempty list of field objects", lambda x: isinstance(x, list) and x),
}


def drift_from_config(cfg):
    """Build a DriftSpec from its JSON-dict form, e.g. {"kind":"hardy","c":0.2}.

    ``kind`` and every parameter are checked against ``DriftSpec.PARAMS``;
    a bad one raises ``ValueError`` naming it.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"expected a JSON object, got {json.dumps(cfg)}")
    params = dict(cfg)
    kind = params.pop("kind", None)
    if not isinstance(kind, str) or kind not in DriftSpec.PARAMS:
        raise ValueError(f"kind: expected one of {', '.join(DriftSpec.PARAMS)}, got {json.dumps(kind)}")
    for key, value in params.items():
        what, test = PARAM_KINDS.get(DriftSpec.PARAMS[kind].get(key), (None, None))
        if test is not None and not test(value):
            raise ValueError(f"{key}: expected {what}, got {json.dumps(value)}")
    return DriftSpec(kind, **params)


@dataclass
class ClassEstimate:
    """Measured (delta, lambda) for one smallness class.

    delta is the minimum of the delta(lambda) curve over the lambda grid
    and lam the minimizer; the curve itself is kept for diagnostics (it
    need not be monotone).
    """

    class_name: str
    delta: float
    lam: float
    lambda_grid: np.ndarray = field(repr=False)
    delta_curve: np.ndarray = field(repr=False)


def truncate(b, level):
    """Cap |b| at the given level, preserving direction."""
    if level <= 0:
        raise ValueError(f"truncation level must be positive, got {level}")
    mag = b.magnitude()
    scale = np.where(mag > level, level / np.where(mag > 0, mag, 1.0), 1.0)
    return GridVectorField(b.grid, b.values * scale)


def _bump_profile(r2):
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return out


def mollifier_symbol(grid, eps):
    """Fourier transform of the unit-mass compactly supported bump at scale eps.

    Sampled on the grid (so eps must exceed one cell to be resolved) and
    normalized so the zero mode is exactly 1, enforcing unit mass.
    """
    if eps <= 0:
        raise ValueError(f"mollifier width must be positive, got {eps}")
    if eps <= grid.h:
        raise ValueError(f"mollifier width {eps} must exceed one cell h={grid.h}")
    coords = grid.coordinates()
    r2 = np.zeros(grid.shape)
    for c in coords:
        dist = np.minimum(c, grid.length - c)
        r2 += dist * dist
    profile = _bump_profile(r2 / eps ** 2)
    phat = fftn(profile.astype(np.complex128))
    return phat / phat.flat[0]


def mollify(b, eps):
    """Smooth b by convolution with the scaled bump (spectral product)."""
    sym = mollifier_symbol(b.grid, eps)
    axes = b.grid.axes
    # a complex copy: a transform of the float64 array would round differently
    hats = fftn(b.values.astype(np.complex128), axes=axes)
    hats *= sym
    return GridVectorField(b.grid, ifftn(hats, axes=axes, overwrite_x=True).real)


def _top_eigenvalue(sym_sq, weight, seed):
    """Largest eigenvalue of S W S, with S^2 the real multiplier ``sym_sq`` and W the weight.

    The matvec is the similar operator W^(1/2) S^2 W^(1/2): with
    A = S W^(1/2) and B = W^(1/2) S, S W S = AB and W^(1/2) S^2 W^(1/2) = BA
    share their spectrum, and BA costs one FFT pair per matvec instead of
    two.

    A uniform weight w (every value equal to the first, the zero weight
    included) makes BA the multiplier w S^2.  S^2 = (lam + |k|^2)^(-2 alpha)
    peaks at k = 0 for lam > 0, so the constant vector is a top
    eigenvector, and the value is its Rayleigh quotient from one matvec,
    exact up to rounding.  Any other weight runs implicitly restarted
    Lanczos (ARPACK) to machine precision (tol=0) from the all-ones vector
    plus seeded noise.
    """
    # imported here: scipy.sparse.linalg costs ~70 ms and ~10 MB to load,
    # and only the F and F_half estimators need it
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    shape = weight.shape
    n_total = weight.size
    root = np.sqrt(weight)

    def matvec(x):
        xhat = fftn(root * x.reshape(shape))
        xhat *= sym_sq
        return (root * ifftn(xhat, overwrite_x=True).real).ravel()

    if weight.min() == weight.max():  # uniform: the values are finite, and no mask is allocated
        return float(np.sum(matvec(np.ones(n_total))) / n_total)
    lo = LinearOperator((n_total, n_total), matvec=matvec, dtype=np.float64)
    v0 = np.ones(n_total) + 0.01 * np.random.default_rng(seed).standard_normal(n_total)
    try:
        vals = eigsh(lo, k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise PowerIterationError("Lanczos eigensolver did not converge") from exc
    return float(vals[0])


def _fractional_symbol(grid, lam, alpha):
    return np.power(lam + grid.k_squared, -alpha)


def _lambdas(lambda_grid):
    """The lambda grid as floats, ``DEFAULT_LAMBDA_GRID`` if None: nonempty and positive, since
    at lam <= 0 the torus's zero mode makes (lam - Lap)^(-alpha) infinite."""
    lams = DEFAULT_LAMBDA_GRID if lambda_grid is None else np.asarray(lambda_grid, dtype=float)
    if not (lams.size and np.all(lams > 0)):
        raise ValueError(f"lambda_grid: expected a nonempty grid of positive values, got {lams.tolist()}")
    return lams


def _estimate_weighted_class(name, b, lambda_grid, seed, power, alpha):
    """delta(lambda) = top eigenvalue of (lam-Lap)^(-alpha) |b|^power (lam-Lap)^(-alpha).

    A field of uniform magnitude (a constant field, or the zero field, whose
    delta is 0) costs one matvec per lambda; any other runs Lanczos (see
    ``_top_eigenvalue``).
    """
    lams = _lambdas(lambda_grid)
    weight = b.magnitude() ** power
    grid = b.grid
    curve = np.zeros(len(lams))
    for i, lam in enumerate(lams):
        curve[i] = _top_eigenvalue(_fractional_symbol(grid, lam, 2.0 * alpha), weight, seed)
    i0 = int(np.argmin(curve))
    return ClassEstimate(name, float(curve[i0]), float(lams[i0]), lams.copy(), curve)


def estimate_class_F_half(b, lambda_grid=None, seed=0):
    """delta(lambda) = top eigenvalue of (lam-Lap)^(-1/4) |b| (lam-Lap)^(-1/4)."""
    return _estimate_weighted_class("F_half", b, lambda_grid, seed, power=1, alpha=0.25)


def estimate_class_F(b, lambda_grid=None, seed=0):
    """delta(lambda) = top eigenvalue of (lam-Lap)^(-1/2) |b|^2 (lam-Lap)^(-1/2)."""
    return _estimate_weighted_class("F", b, lambda_grid, seed, power=2, alpha=0.5)


def kato_column_norms(b, lam):
    """L1 norms of all columns of |b| (lam-Lap)^(-1/2), via FFT correlation.

    Column y is |b(x)| K(x - y) with K the translation-invariant kernel
    of the fractional resolvent applied to a unit-mass delta; the map
    y -> column norm is a cross-correlation, so one FFT pair evaluates
    the exhaustive sweep.
    """
    grid = b.grid
    delta0 = GridFunction.delta(grid, (0,) * grid.d)
    sym = _fractional_symbol(grid, lam, 0.5).astype(np.complex128)
    khat = fftn(delta0.values)
    khat *= sym
    k0 = np.abs(ifftn(khat, overwrite_x=True))
    corr_hat = fftn(b.magnitude().astype(np.complex128))
    corr_hat *= np.conj(fftn(k0.astype(np.complex128)))
    corr = ifftn(corr_hat, overwrite_x=True).real
    return grid.cell_volume() * corr


def estimate_class_K(b, lambda_grid=None):
    """1->1 norm of |b| (lam-Lap)^(-1/2): max over source nodes of column L1 norm.

    Every column is swept at once by the FFT correlation of
    ``kato_column_norms``.
    """
    lams = _lambdas(lambda_grid)
    curve = np.array([float(np.max(kato_column_norms(b, lam))) for lam in lams])
    i0 = int(np.argmin(curve))
    return ClassEstimate("K", float(curve[i0]), float(lams[i0]), lams.copy(), curve)


def guarded_pair(estimate, p, d, margin=0.7):
    """Smallest-lambda point of the estimate curve passing the series guard.

    The reported estimate minimizes delta (which pushes lambda to the top
    of the grid and shrinks the admissible half-plane); assemblies that
    want moderate spectral parameters may instead use any measured
    (delta(lambda), lambda) pair, since membership is certified by each
    of them.  Returns (delta, lambda) with m_d c_p delta <= margin.
    """
    from . import constants as C

    for lam, delta in zip(estimate.lambda_grid, estimate.delta_curve):
        if C.neumann_guard_value(p, delta, d) <= margin:
            return float(delta), float(lam)
    raise GuardViolationError(
        f"no lambda in the estimate curve meets guard margin {margin} at p={p}"
    )


def _search_epsilon(b_n, delta_tilde, lambda_grid, eps_hi_cap):
    """Smallest mollification width in [1.25h, cap] meeting the delta target."""
    grid = b_n.grid
    lo = 1.25 * grid.h
    hi = 8.0 * grid.h

    def measure(eps):
        return estimate_class_F_half(mollify(b_n, eps), lambda_grid=lambda_grid).delta

    d_hi = measure(hi)
    while d_hi > delta_tilde:
        hi *= 2.0
        if hi > eps_hi_cap:
            raise ValueError(
                "no mollification width within range met the delta target; "
                "grid too coarse for the requested smallness"
            )
        d_hi = measure(hi)
    if measure(lo) <= delta_tilde:
        return lo
    while hi - lo > 0.25 * grid.h:
        mid = 0.5 * (lo + hi)
        if measure(mid) <= delta_tilde:
            hi = mid
        else:
            lo = mid
    return hi


def build_bn_tilde(b, level, delta_tilde, lambda_grid=None, eps=None):
    """Truncate at ``level`` then mollify, with the width chosen so the
    smoothed field's measured F_half delta stays below ``delta_tilde``.

    Returns (field, eps_used, ClassEstimate).  Pass ``eps`` to skip the
    search (used when reusing a previously selected width).
    """
    lams = np.logspace(-1, 3, 6) if lambda_grid is None else lambda_grid
    b_n = truncate(b, level)
    if eps is None:
        eps = _search_epsilon(b_n, delta_tilde, lams, eps_hi_cap=b.grid.length / 4.0)
    smoothed = mollify(b_n, eps)
    est = estimate_class_F_half(smoothed, lambda_grid=lams)
    return smoothed, eps, est
