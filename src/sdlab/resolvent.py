"""Resolvent assembly for the singular-drift generator -Lap + b.grad.

The resolvent at zeta is assembled from three factors:

* input factor   (weighted gradient of the free resolvent),
* loop factor    (the composition whose p-norm stays below 1 under the
                  smallness guard m_d c_p delta < 1),
* output factor  (free resolvent of the weighted function),

inverted through a Neumann series:

    R(zeta) = (zeta - Lap)^(-1) - output (1 + loop)^(-1) input.

Four algebraically equivalent factorizations are provided and must
agree to series tolerance.  Three group the powers of S = (zeta + |k|^2)^(-1)
around the series as a (pre, post) pair of exponent chains, each summing
to 1: the series solves (1 + loop) w = weight_vec . grad S^pre v, and the
correction is S^post (weight_out * w).

* ``direct``     -- ((1,), (1,)), the defining grouping above;
* ``split``      -- ((1,), (1/2, 1/2)), two half-power output multipliers;
* ``fractional`` -- ((1/(2r'), 1/2 + 1/(2r)), (1/(2q'), 1/2 + 1/(2q))) with
                    r = (1 + p)/2 < p < q = 2p, exposing the smoothing gain
                    of the output side;
* ``symmetric``  -- p = 2 only: quarter/three-quarter symmetric split
                    inverted through its own series.

Every array an assembly reads depends on (field, p) -- the weights -- or on
(grid, zeta, alpha) -- the symbols S^alpha -- and never on the
factorization, so assemblies share them through one weakly held index: an
entry lives exactly as long as some assembly holds its array.  Shared
arrays are read-only.  A sampled field is treated as immutable: no code
writes into ``b.values`` once an assembly has read it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import constants as C
from .errors import (
    GuardViolationError,
    GridMismatchError,
    NeumannDivergenceError,
    NeumannMaxTermsError,
    SpectralDomainError,
)
from .fields import truncate
from .grid import GridFunction, fftn, ifftn, lp_norm, lp_norm_values

__all__ = [
    "ResolventParams",
    "ResolventAssembly",
    "REPRESENTATIONS",
    "LinearOp",
    "estimate_op_norm",
    "pseudo_resolvent_residual",
    "strong_convergence_study",
    "norm_bound_report",
    "zeta_ray_grid",
]

REPRESENTATIONS = ("direct", "fractional", "split", "symmetric")

# Neumann series stopping rule: the relative increment |term|_p <= NEUMANN_TOL |g|_p
# ends the sum, and NEUMANN_KMAX terms without that raise NeumannMaxTermsError.
NEUMANN_TOL = 1e-10
NEUMANN_KMAX = 200

# The arrays assemblies share: weights under (field, p, name), symbols under
# (grid, zeta, alpha).  A field key holds the field, so its identity is not
# reused while the entry lives.
_SHARED = weakref.WeakValueDictionary()


def _shared(key, build):
    """The read-only array under ``key`` in the shared index, built by ``build()`` if absent."""
    value = _SHARED.get(key)
    if value is None:
        value = build()
        value.flags.writeable = False
        _SHARED[key] = value
    return value


@dataclass
class ResolventParams:
    """Exponent and spectral parameter for one resolvent assembly.

    Validity is checked at construction: the smallness guard
    m_d c_p delta < 1 (equivalent to p lying in the admissible interval)
    and the half-plane condition Re zeta >= kappa_d * lam.  The
    fractional factorization's exponents r = (1 + p)/2 and q = 2p follow
    from p.
    """

    p: float
    zeta: complex
    delta: float
    lam: float
    d: int = 3

    def __post_init__(self):
        self.zeta = complex(self.zeta)
        if self.d < 3:
            raise ValueError(f"d must be >= 3, got {self.d}")
        if self.p <= 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        guard = C.neumann_guard_value(self.p, self.delta, self.d)
        if guard >= 1.0:
            raise GuardViolationError(
                f"m_d c_p delta = {guard:.6g} >= 1: exponent p={self.p} is outside "
                "the admissible interval; the series inverse is not guarded"
            )
        floor = C.kappa_d(self.d) * self.lam
        if self.zeta.real < floor * (1.0 - 1e-12):
            raise SpectralDomainError(
                f"Re zeta = {self.zeta.real:.6g} below the half-plane floor "
                f"kappa_d*lam = {floor:.6g}"
            )

    @property
    def p_conj(self):
        return C.holder_conjugate(self.p)

    @property
    def guard_value(self):
        return C.neumann_guard_value(self.p, self.delta, self.d)

    def with_zeta(self, zeta):
        return ResolventParams(p=self.p, zeta=zeta, delta=self.delta, lam=self.lam, d=self.d)


class LinearOp:
    """Matrix-free operator on grid value arrays with an adjoint."""

    def __init__(self, grid, forward, adjoint=None):
        self.grid = grid
        self.forward = forward
        self.adjoint = adjoint

    def __call__(self, values):
        return self.forward(values)


def _weight_vec(b, p):
    """b |b|^(1/p - 1), with the removable singularity at b = 0 filled by 0; float64 for a real b."""
    mag = b.magnitude()
    positive = mag > 0
    scale = np.where(positive, np.where(positive, mag, 1.0) ** (1.0 / p - 1.0), 0.0)
    return (b.values if np.any(b.values.imag) else b.values.real) * scale


class ResolventAssembly:
    """The weight and symbol arrays of one (params, field) pair.

    The series weights ``weight_vec`` = b |b|^(1/p - 1) and ``weight_out``
    = |b|^(1/p') are looked up at construction.  ``weight_vec`` is float64
    when b has no imaginary part and complex128 otherwise: numpy casts a
    float64 factor to complex before it multiplies a complex array, so
    both give the same products.  ``weight_in_mag`` = |b|^(1/p), which
    only ``weighted_resolvent`` reads, and the multiplier symbols
    (zeta + |k|^2)^(-alpha), one per exponent in ``_sym_cache``, are
    looked up on first use, so applying an assembly mutates it; a value
    never changes once stored.

    Each array comes from the module's shared index, so assemblies of one
    (field, p) hold one set of weights, and assemblies of one (grid, zeta)
    one symbol per exponent, whatever their factorizations.  The
    attributes and ``_sym_cache`` are the strong references that keep the
    entries alive.  The field ``b`` is treated as immutable.
    """

    def __init__(self, params, b, representation="direct"):
        if representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {representation!r}")
        if representation == "symmetric":
            if abs(params.p - 2.0) > 1e-12:
                raise ValueError("the symmetric factorization requires p = 2")
            if params.delta >= 1.0:
                raise GuardViolationError(
                    f"symmetric factorization needs delta < 1, got {params.delta}"
                )
        self.params = params
        self.b = b
        self.grid = b.grid
        if self.grid.d != params.d:
            raise GridMismatchError(f"grid dimension {self.grid.d} != params.d {params.d}")
        self.representation = representation

        p = params.p
        # the (pre, post) exponent chains; symmetric's apply_spectral takes the direct ones
        r, q = 0.5 * (1.0 + p), 2.0 * p
        self.chains = {
            "fractional": ((0.5 / C.holder_conjugate(r), 0.5 + 0.5 / r),
                           (0.5 / C.holder_conjugate(q), 0.5 + 0.5 / q)),
            "split": ((1.0,), (0.5, 0.5)),
        }.get(representation, ((1.0,), (1.0,)))
        self.weight_vec = _shared((b, p, "vec"), lambda: _weight_vec(b, p))
        self.weight_out = _shared((b, p, "out"), lambda: b.magnitude() ** (1.0 / params.p_conj))
        # b = 0: the resolvent is the free one, and apply skips the series
        self.zero_drift = not np.any(self.weight_vec)
        self._sym_cache = {}

    @cached_property
    def weight_in_mag(self):
        """|b|^(1/p), the weight of ``weighted_resolvent``."""
        b, p = self.b, self.params.p
        return _shared((b, p, "in"), lambda: b.magnitude() ** (1.0 / p))

    def _sym(self, alpha):
        """(zeta + |k|^2)^(-alpha) on the grid frequencies, cached per alpha."""
        key = float(alpha)
        if key not in self._sym_cache:
            grid, zeta = self.grid, self.params.zeta
            self._sym_cache[key] = _shared((grid, zeta, key), lambda: np.power(zeta + grid.k_squared, -key))
        return self._sym_cache[key]

    # -- factor applications on raw value arrays ------------------------
    #
    # A temporary made inside one expression goes to its transform with
    # overwrite_x=True where the output is returned, added, or multiplied in
    # place by a weight or an odd symbol 1j*k_j; the caller's arrays never do.
    # A forward transform whose output meets a complex symbol S keeps its own
    # output: numpy turns S * fftn(...) on a temporary of 256 KiB or more into
    # the in-place product fftn(...) * S, which rounds unlike S * fftn(...),
    # and it cannot do so on the view an overwriting transform returns.

    def _input_values(self, v, alpha=1.0):
        """weight_vec . grad (zeta - Lap)^(-alpha) v"""
        return self._weighted_gradient(self._sym(alpha) * fftn(v))

    def _weighted_gradient(self, vhat):
        """weight_vec . grad of the grid function whose transform is vhat"""
        iks = self.grid.ik_components
        acc = ifftn(iks[0] * vhat, overwrite_x=True)
        acc *= self.weight_vec[0]
        for j in range(1, self.grid.d):
            term = ifftn(iks[j] * vhat, overwrite_x=True)
            term *= self.weight_vec[j]
            acc += term
        return acc

    def _input_adjoint_values(self, v):
        iks = self.grid.ik_components
        acc = fftn(np.conj(self.weight_vec[0]) * v, overwrite_x=True)
        acc *= np.conj(iks[0])
        for j in range(1, self.grid.d):
            term = fftn(np.conj(self.weight_vec[j]) * v, overwrite_x=True)
            term *= np.conj(iks[j])
            acc += term
        return ifftn(np.conj(self._sym(1.0)) * acc, overwrite_x=True)

    def _output_values(self, v):
        """(zeta - Lap)^(-1) (weight_out * v)"""
        return ifftn(self._sym(1.0) * fftn(self.weight_out * v), overwrite_x=True)

    def _output_adjoint_values(self, v):
        return self.weight_out * ifftn(np.conj(self._sym(1.0)) * fftn(v))

    def _loop_values(self, v):
        """weight_vec . grad (zeta - Lap)^(-1) (weight_out * v)"""
        return self._input_values(self.weight_out * v)

    def _loop_adjoint_values(self, v):
        out = self._input_adjoint_values(v)
        out *= self.weight_out
        return out

    def _weighted_resolvent_values(self, v):
        """|b|^(1/p) (zeta - Lap)^(-1) v"""
        return self.weight_in_mag * ifftn(self._sym(1.0) * fftn(v))

    def _weighted_resolvent_adjoint_values(self, v):
        return ifftn(np.conj(self._sym(1.0)) * fftn(self.weight_in_mag * v), overwrite_x=True)

    def _symmetric_loop_values(self, v):
        """(zeta-Lap)^(-1/4) |b|^(1/2) (weight_vec . grad (zeta-Lap)^(-3/4) v)

        For p = 2 the transpose of the quarter-power weighted factor is
        realized with the same zeta (it coincides with the Hilbert
        adjoint for real zeta, and is what makes the factorization an
        exact identity for complex zeta).
        """
        inner = self._input_values(v, alpha=0.75)
        inner *= self.weight_out
        return ifftn(self._sym(0.25) * fftn(inner), overwrite_x=True)

    # -- public operator views ------------------------------------------

    def input_factor(self):
        return LinearOp(self.grid, self._input_values, self._input_adjoint_values)

    def output_factor(self):
        return LinearOp(self.grid, self._output_values, self._output_adjoint_values)

    def loop_factor(self):
        return LinearOp(self.grid, self._loop_values, self._loop_adjoint_values)

    def weighted_resolvent(self):
        return LinearOp(self.grid, self._weighted_resolvent_values, self._weighted_resolvent_adjoint_values)

    def apply_input_factor(self, f):
        return GridFunction(self.grid, self._input_values(f.values))

    def apply_free_resolvent(self, f):
        return GridFunction(self.grid, ifftn(self._sym(1.0) * fftn(f.values), overwrite_x=True))

    # -- series inversion -------------------------------------------------

    def _neumann(self, total, loop_values, tol=None, kmax=None):
        """Sum over k of (-loop)^k g, accumulated in place into ``total`` = g.

        Callers pass a temporary.  The k-th term is loop^k g, subtracted for
        odd k: negation is exact and commutes with rounding, so these are
        the sums of the negated terms.  Returns (sum, increments |term|_p).
        """
        tol = NEUMANN_TOL if tol is None else tol
        kmax = NEUMANN_KMAX if kmax is None else kmax
        hd = self.grid.cell_volume()
        p = self.params.p
        norm_g = lp_norm_values(total, p, hd)
        history = []
        if norm_g == 0.0:
            return total, history
        term = total
        grow = 0
        for k in range(kmax):
            term = loop_values(term)
            inc = lp_norm_values(term, p, hd)
            if k % 2:
                total += term
            else:
                total -= term
            history.append(inc)
            if inc <= tol * norm_g:
                return total, history
            if len(history) >= 2 and history[-1] > history[-2]:
                grow += 1
                if grow >= 5:
                    raise NeumannDivergenceError(
                        "series increments grew 5 times in a row; the smallness "
                        "guard was evidently based on an underestimated delta",
                        history=history,
                    )
            else:
                grow = 0
        raise NeumannMaxTermsError(
            f"series did not reach tol={tol} within {kmax} terms", history=history
        )

    def neumann_inverse(self, g):
        """(1 + loop)^(-1) g by partial sums; returns (result, increments)."""
        total, history = self._neumann(g.values.copy(), self._loop_values)
        return GridFunction(self.grid, total), history

    # -- the resolvent ----------------------------------------------------

    def _apply_adjoint_values(self, v):
        """Adjoint of the direct factorization: free* - input*(1+loop*)^-1 output*.

        The adjoint loop factor obeys the same norm guard (the bound is
        symmetric under exponent conjugation), so the same series engine
        inverts it.
        """
        free = ifftn(np.conj(self._sym(1.0)) * fftn(v), overwrite_x=True)
        w, _ = self._neumann(self.weight_out * free, self._loop_adjoint_values)
        free -= self._input_adjoint_values(w)
        return free

    def resolvent_op(self):
        return LinearOp(
            self.grid, lambda v: self.apply(GridFunction(self.grid, v)).values, self._apply_adjoint_values
        )

    def apply_spectral(self, vhat, tol=None, kmax=None):
        """Transform of R(zeta) v from the transform vhat of v, by the assembly's (pre, post) chains.

        S vhat - S^post fftn(weight_out * w), where w solves (1 + loop) w =
        weight_vec . grad ifftn(S^pre vhat); on a zero drift, S vhat.  It
        costs 4k + 4 transforms for k series terms, so a chain of resolvents
        (``evolve``) leaves Fourier space only at its ends.  vhat is not
        written to.
        """
        shat = self._sym(1.0) * vhat
        if self.zero_drift:
            return shat
        pre, post = self.chains
        g = self._sym(pre[0]) * vhat
        del vhat  # frees the transform (unless the caller holds it) before the series
        for alpha in pre[1:]:
            np.multiply(self._sym(alpha), g, out=g)
        g = self._weighted_gradient(g)  # rebinding frees the spectral g before the series
        w, _ = self._neumann(g, self._loop_values, tol=tol, kmax=kmax)  # summed in place: w is g
        w *= self.weight_out
        corr = self._sym(post[0]) * fftn(w)
        for alpha in post[1:]:
            corr *= self._sym(alpha)
        shat -= corr
        return shat

    def apply(self, f, tol=None, kmax=None):
        """Apply the resolvent of (zeta + generator) to f."""
        if self.zero_drift:  # S * fftn(v) on the temporary, rounded like apply_free_resolvent
            return self.apply_free_resolvent(f)
        if self.representation != "symmetric":
            uhat = self.apply_spectral(fftn(f.values), tol=tol, kmax=kmax)
            return GridFunction(self.grid, ifftn(uhat, overwrite_x=True))
        v1 = ifftn(self._sym(0.25) * fftn(f.values), overwrite_x=True)
        w, _ = self._neumann(v1, self._symmetric_loop_values, tol=tol, kmax=kmax)
        return GridFunction(self.grid, ifftn(self._sym(0.75) * fftn(w), overwrite_x=True))


def apply_generator(b, f):
    """-Lap f + b . grad f with the full drift field, applied spectrally."""
    from .grid import gradient_apply, laplacian_apply

    grad = gradient_apply(f)
    advect = np.sum(b.values * grad.values, axis=0)
    return GridFunction(f.grid, -laplacian_apply(f).values + advect)


def _dual_vector(v, p):
    """Duality map of the p-norm: |v|^(p-1) * phase(v)."""
    mag = np.abs(v)
    phase = np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 0.0)
    return mag ** (p - 1.0) * phase


def _top_singular_value(op, tol, seed):
    """Largest singular value of ``op`` on complex grid arrays, by Lanczos (ARPACK svds).

    The returned value is |op v| for the unit Ritz vector v, so it never
    exceeds the true top singular value.  The matvecs look up
    ``op.forward``/``op.adjoint`` at call time, so wrappers installed on
    the op after it was built still see every call.
    """
    # imported here: scipy.sparse.linalg costs ~70 ms and ~10 MB to load,
    # and only the p = 2 norm needs it
    from scipy.sparse.linalg import ArpackError, LinearOperator, svds

    shape = op.grid.shape
    n_total = op.grid.node_count()
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n_total) + 1j * rng.standard_normal(n_total)
    lo = LinearOperator(
        (n_total, n_total),
        matvec=lambda x: op.forward(x.reshape(shape)).ravel(),
        rmatvec=lambda x: op.adjoint(x.reshape(shape)).ravel(),
        dtype=np.complex128,
    )
    try:
        vals = svds(lo, k=1, tol=tol, v0=v0, return_singular_vectors=False)
    except ArpackError:
        # ARPACK stops ("starting vector is zero") when op maps v0 to zero;
        # for the zero operator 0 is the exact norm
        if np.any(op.forward(v0.reshape(shape))):
            raise
        return 0.0
    return float(vals[0])


def estimate_op_norm(op, p, n_starts=64, tol=1e-4, seed=0):
    """Lower estimate of the L^p -> L^p operator norm; requires the adjoint.

    At p == 2 the norm is the top singular value, computed by one Lanczos
    (ARPACK ``svds``) call to relative tolerance ``tol`` from a seeded
    start; ``n_starts`` is ignored there.  A Ritz value never exceeds the
    top singular value, so the result is still a lower estimate, and a
    sharper one than the power iteration gives.  Otherwise: restarted
    nonlinear power iteration on the norm ratio (Boyd's ascent on the
    dual vectors), at most 100 steps from each of ``n_starts`` random
    starts, returning the largest ratio found.
    """
    if p == 2.0:
        return _top_singular_value(op, tol, seed)
    grid = op.grid
    hd = grid.cell_volume()
    rng = np.random.default_rng(seed)
    p_conj = C.holder_conjugate(p)
    best = 0.0
    for _ in range(n_starts):
        x = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        nx = lp_norm_values(x, p, hd)
        x = x / nx
        est_prev = 0.0
        for _ in range(100):
            y = op.forward(x)
            est = lp_norm_values(y, p, hd)
            if est <= est_prev * (1.0 + tol):
                break
            est_prev = est
            z = op.adjoint(_dual_vector(y, p))
            x = _dual_vector(z, p_conj)
            nx = lp_norm_values(x, p, hd)
            if nx == 0.0:
                break
            x = x / nx
        best = max(best, est_prev)
    return best


def pseudo_resolvent_residual(params, b, zeta, eta, f):
    """Relative residual of R(zeta) - R(eta) = (eta - zeta) R(zeta) R(eta) on f."""
    a_z = ResolventAssembly(params.with_zeta(zeta), b)
    a_e = ResolventAssembly(params.with_zeta(eta), b)
    p = params.p
    u_e = a_e.apply(f)
    u_z = a_z.apply(f)
    prod = a_z.apply(u_e)
    diff = u_z - u_e
    resid = diff - (eta - zeta) * prod
    scale = max(lp_norm(diff, p), abs(eta - zeta) * lp_norm(prod, p), 1e-300)
    r = lp_norm(resid, p)
    if r == 0.0:
        return 0.0
    return r / scale


def strong_convergence_study(params, b, levels, f, b_ref=None):
    """Error curve level -> |R(zeta, b_level) f - R(zeta, b_ref) f|_p.

    ``b_level`` is ``truncate(b, level)``; ``b_ref`` defaults to the
    field itself (the finest available truncation).
    """
    b_ref = b if b_ref is None else b_ref
    ref = ResolventAssembly(params, b_ref).apply(f)
    p = params.p
    errs = []
    for lev in levels:
        u = ResolventAssembly(params, truncate(b, lev)).apply(f)
        errs.append(lp_norm(u - ref, p))
    return np.array(errs)


def zeta_ray_grid(lam, d, n_ray=8, n_real=4):
    """Spectral-parameter sample: the boundary ray of the admissible
    half-plane plus a real dyadic sweep (covers both the boundary and
    the large-|zeta| decay claims)."""
    floor = C.kappa_d(d) * lam
    ims = [0.0]
    step = 1.0
    while len(ims) < n_ray:
        ims.extend([step, -step])
        step *= 4.0
    ray = [complex(floor, im * floor) for im in ims[:n_ray]]
    real = [complex(floor * 2.0 ** j, 0.0) for j in range(n_real)]
    return ray + real


def norm_bound_report(params, b, n_starts=16, seed=0):
    """Measured factor norms against their closed-form bounds.

    Rows: (quantity, zeta, measured, bound, pass).  The output-factor
    bound appears twice because the stated decay exponent and the one
    the derivation chain ends with disagree; both are reported and the
    ledger of which holds empirically is left to the data.  The zeta
    sample is ``zeta_ray_grid``, and each norm is estimated to relative
    tolerance 1e-3.  A row passes when measured <= bound up to a relative
    rounding slack of 1e-8, so an attained bound (the resolvent at b = 0)
    is not failed on a last-bit tie.
    """
    d, p, delta, lam = params.d, params.p, params.delta, params.lam
    tol = 1e-3
    c1 = C.C1(p, delta, d)
    c2 = C.C2(p, delta, d)
    c3 = C.C3(p, delta, d)
    cp = C.C_p_resolvent(p, delta, d)
    guard = params.guard_value
    rows = []
    for z in zeta_ray_grid(lam, d):
        pr = params.with_zeta(z)
        a = ResolventAssembly(pr, b)
        az = abs(z)
        measured_in = estimate_op_norm(a.input_factor(), p, n_starts=n_starts, tol=tol, seed=seed)
        rows.append(("input_factor", z, measured_in, c1 * az ** (-0.5 / pr.p_conj)))
        measured_out = estimate_op_norm(a.output_factor(), p, n_starts=n_starts, tol=tol, seed=seed)
        rows.append(("output_factor_stated", z, measured_out, c2 * az ** (-0.5 - 0.5 / p)))
        rows.append(("output_factor_chain", z, measured_out, c2 * az ** (-0.5 / p)))
        measured_w = estimate_op_norm(a.weighted_resolvent(), p, n_starts=n_starts, tol=tol, seed=seed)
        rows.append(("weighted_resolvent", z, measured_w, c3 * az ** (-0.5 - 0.5 / pr.p_conj)))
        measured_loop = estimate_op_norm(a.loop_factor(), p, n_starts=n_starts, tol=tol, seed=seed)
        rows.append(("loop_factor", z, measured_loop, guard))
        measured_res = estimate_op_norm(a.resolvent_op(), p, n_starts=max(2, n_starts // 4),
                                        tol=tol, seed=seed)
        rows.append(("resolvent", z, measured_res, cp / az))
    return [(q, z, m, bd, m <= bd * (1.0 + 1e-8)) for (q, z, m, bd) in rows]
