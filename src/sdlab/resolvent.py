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
                    inverted through its own series, summed on transforms
                    (S^(3/4) -> gradient -> weight_out -> fftn -> S^(1/4)
                    per term, increments by Parseval).

Each series term makes one inverse transform for the d gradient
components, batched over a ``(d,) + shape`` stack, and one forward
transform.  A solve of k terms costs, in d = 3:

* ``direct``, ``split``, ``fractional`` -- 4k + 6 transforms in 2k + 4
  scipy calls (an ``evolve`` step, 4k + 4 in 2k + 2);
* ``symmetric`` -- 4k + 2 transforms in 2k + 2 calls.

``apply_spectral_real``, the real lane of ``evolve`` (real data and
zeta; drifts are always real), makes the same 4k + 4 transforms in
2k + 2 calls: k + 1 ``fftn`` calls on float64 arrays and k + 1
``irfftn`` calls, each on a stack of the gradient's d components over
the last-axis half of the spectrum.  Its grid arrays are float64, and its odd symbols are
``Grid.ik_half_components``, with the Nyquist entry zeroed, so it
applies the real operator; every other path reads ``Grid.ik_components``.

A symbol S^alpha takes one value per distinct |k|^2 of the grid (827 at
32^3, 4,051 at 64^3), so it is built as a level table over those values
and gathered onto the grid by indexing it with the level index (``np.take``
would copy the read-only index first); a gathered symbol equals
``np.power(zeta + k_squared, -alpha)`` bit for bit.  Only the exponents
a series applies at every term (1, and 1/4, 3/4 for ``symmetric``) are
kept as gathered n^d arrays; a chain exponent is gathered where it is
used and dropped.

Every array an assembly reads depends on (field, p) -- the weights -- on
the grid -- the level index -- or on (grid, zeta, alpha) -- the tables
and kept symbols -- and never on the factorization, so assemblies share
them through one weakly held index: an entry lives exactly as long as
some assembly holds its array.  An assembly gets every array by one
lookup, ``_hold``, which keeps it in the assembly's own dict.  Shared
arrays are read-only.  A sampled field is treated as immutable: no code
writes into ``b.values`` once an assembly has read it.

A product of a symbol with a fresh transform is written transform first
(``t = fftn(...); t *= S``), so it rounds the same way at every grid size.

The elementwise passes of a series (the weight and symbol products, the
gradient's ik_j products, the weighted sum, the p-norm powers and the
update of the sum) go through ``grid.split_pass``: from 64^3 values on,
each runs on slabs of the first grid axis across ``fft_workers()``
threads, and below that it is one numpy call on the whole arrays.  A
pass computes each value by the same operations on any split, so the
worker count never changes a result.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import groupby

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
from .grid import GridFunction, fftn, ifftn, irfftn, lp_norm, lp_norm_of_powers, lp_norm_values, split_pass

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

# The arrays assemblies share: weights under (field, p, name), the level index
# under (grid, "levels") and (grid, "index"), level tables under (grid, zeta,
# alpha), kept symbols under (grid, zeta, alpha, "array") and the adjoint's
# conjugate symbol under (grid, zeta, 1.0, "conj").  A field key
# holds the field, so its identity is not reused while the entry lives.
_SHARED = weakref.WeakValueDictionary()


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
    """Matrix-free operator on grid value arrays with an adjoint.

    ``symbol``, when set, states that the operator is the Fourier
    multiplier with these values at the grid frequencies (each factor view
    of ``ResolventAssembly`` sets it when the factor's weights are
    uniform); ``estimate_op_norm`` at p = 2 then reads the peak of |symbol|
    and applies ``forward`` once, to the plane wave there.
    """

    def __init__(self, grid, forward, adjoint=None, symbol=None):
        self.grid = grid
        self.forward = forward
        self.adjoint = adjoint
        self.symbol = symbol

    def __call__(self, values):
        return self.forward(values)


# -- the elementwise kernels of a series, run through split_pass ------------
#
# Each takes a grid array first and writes each output value from the
# inputs at the same position only, so a slab computes exactly what the
# whole-array call computes there.


def _slots(v, stack, sym, *factors):
    """factors[j] * v into stack[j], the last first, so v may be stack[0];
    with a symbol, v * sym goes into stack[0] first and is the one
    multiplied.  The factors are a gradient's ik_j, or the input adjoint's
    real weights, their own conjugates"""
    if sym is not None:
        v = np.multiply(v, sym, out=stack[0])
    for j in reversed(range(len(factors))):
        np.multiply(factors[j], v, out=stack[j])


def _weighted_sum(out, grads, weight):
    """out = sum_j grads[j] * weight[j]; grads is overwritten"""
    np.multiply(grads[0], weight[0], out=out)
    for j in range(1, len(grads)):
        grads[j] *= weight[j]
        out += grads[j]


def _conj_divergence(acc, hats, sym_conj, *iks):
    """sym_conj * sum_j conj(ik_j) hats[j] into acc = hats[0]"""
    acc *= np.conj(iks[0])
    for j in range(1, len(iks)):
        hats[j] *= np.conj(iks[j])
        acc += hats[j]
    np.multiply(sym_conj, acc, out=acc)


def _powers_and_update(term, powers, p, total=None, subtract=False):
    """|term|^p into powers (the p-norm's summands, as ``lp_norm_values`` forms
    them), then, given a total, total -= term or total += term"""
    np.abs(term, out=powers)
    powers **= p
    if total is None:
        return
    if subtract:
        total -= term
    else:
        total += term


def _real_view(slot, shape):
    """A float64 array of the given shape at the start of the complex slot's memory.

    A grid-shaped slot holds it in its first half, and a half-spectrum slot
    (``Grid.half_shape``) in all but its last 2 n^(d-1) values.
    """
    return slot.reshape(-1).view(np.float64)[:np.prod(shape)].reshape(shape)


def _weight_vec(b, p):
    """b |b|^(1/p - 1), with the removable singularity at b = 0 filled by 0."""
    mag = b.magnitude()
    positive = mag > 0
    return b.values * np.where(positive, np.where(positive, mag, 1.0) ** (1.0 / p - 1.0), 0.0)


class ResolventAssembly:
    """The weight and symbol arrays of one (params, field) pair.

    ``_hold`` looks up every array on first use, so applying an assembly
    mutates it, and a value never changes once held: the float64 weights
    ``weight_vec`` = b |b|^(1/p - 1) and ``weight_out`` = |b|^(1/p') (both
    at construction), ``weight_in_mag`` = |b|^(1/p), which only
    ``weighted_resolvent`` reads, the grid's level index, the level tables
    of the symbols (zeta + |k|^2)^(-alpha), the gathered symbols of the
    series exponents and the adjoints' conjugate symbol.

    Each array comes from the module's shared index, so assemblies of one
    (field, p) hold one set of weights, and assemblies of one (grid, zeta)
    one table and at most one gathered symbol per exponent, whatever their
    factorizations.  ``_held`` holds the strong references that keep the
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
        # the (pre, post) exponent chains; symmetric, which sums its own series, holds the direct ones
        r, q = 0.5 * (1.0 + p), 2.0 * p
        self.chains = {
            "fractional": ((0.5 / C.holder_conjugate(r), 0.5 + 0.5 / r),
                           (0.5 / C.holder_conjugate(q), 0.5 + 0.5 / q)),
            "split": ((1.0,), (0.5, 0.5)),
        }.get(representation, ((1.0,), (1.0,)))
        # the exponents a series applies at every term keep their gathered symbol
        self._series_exponents = (1.0, 0.25, 0.75) if representation == "symmetric" else (1.0,)
        self._held = {}
        # b = 0: the resolvent is the free one, and apply skips the series
        self.zero_drift = not np.any(self.weight_vec)
        self.weight_out  # held from here on too, so no solve builds it after its workspace

    def _hold(self, key, build):
        """The read-only array under ``key`` in the shared index, built by ``build()`` if absent.

        The assembly holds it from then on, in ``_held``.
        """
        value = self._held.get(key)
        if value is None:
            value = _SHARED.get(key)
            if value is None:
                value = build()
                value.flags.writeable = False
                _SHARED[key] = value
            self._held[key] = value
        return value

    @property
    def weight_vec(self):
        return self._hold((self.b, self.params.p, "vec"), lambda: _weight_vec(self.b, self.params.p))

    @property
    def weight_out(self):
        return self._hold((self.b, self.params.p, "out"), lambda: self.b.magnitude() ** (1.0 / self.params.p_conj))

    @property
    def weight_in_mag(self):
        return self._hold((self.b, self.params.p, "in"), lambda: self.b.magnitude() ** (1.0 / self.params.p))

    def _levels(self):
        """The grid's distinct |k|^2, ascending: two nodes share a level only when their |k|^2 are equal floats."""
        return self._hold((self.grid, "levels"), lambda: np.unique(self.grid.k_squared))

    def _index(self):
        """Each grid node's position among the levels."""
        return self._hold((self.grid, "index"), lambda: np.searchsorted(self._levels(), self.grid.k_squared))

    def _table(self, alpha):
        """(zeta + level)^(-alpha) over the grid's |k|^2 levels."""
        zeta = self.params.zeta
        return self._hold((self.grid, zeta, alpha), lambda: np.power(zeta + self._levels(), -alpha))

    def _sym(self, alpha):
        """(zeta + |k|^2)^(-alpha) on the grid frequencies, gathered from its level table.

        A series exponent's symbol is gathered once and held; any other is
        gathered into a fresh array on every call.
        """
        alpha = float(alpha)

        def gather():
            return self._table(alpha)[self._index()]

        if alpha not in self._series_exponents:
            return gather()
        return self._hold((self.grid, self.params.zeta, alpha, "array"), gather)

    def _sym_conj(self):
        """conj((zeta + |k|^2)^(-1)), the adjoints' symbol, gathered from the conjugated level table.

        It equals the conjugate of the gathered symbol bit for bit; forward
        solves never build it.
        """
        return self._hold((self.grid, self.params.zeta, 1.0, "conj"),
                          lambda: np.conj(self._table(1.0))[self._index()])

    # -- factor applications on raw value arrays ------------------------
    #
    # A loop (``_loop``, ``_loop_adjoint``, ``_symmetric_loop``) takes one
    # ``(d,) + shape`` complex stack as its whole workspace and returns its
    # value in the stack's first slot; v may be the value it returned
    # before.  On the real lane ``_loop`` takes a half-spectrum stack and
    # returns a float64 value in the real view of its first slot.  The d
    # gradient components go through one transform of the stack.  A
    # temporary goes to its transform with overwrite_x=True; the caller's
    # arrays never do.  A symbol multiplies a fresh transform in place, so
    # the transform is the left operand; an adjoint's conj(S)
    # (``_sym_conj``) is the left operand, as numpy always ordered it.  The
    # elementwise passes between two transforms are one ``split_pass`` call.

    def _stack(self, real=False):
        """An uninitialized complex ``(d,) + shape`` stack, the workspace of one series.

        The real lane's stack covers the last-axis half of the spectrum,
        ``(d,) + Grid.half_shape``.
        """
        shape = self.grid.half_shape if real else self.grid.shape
        return np.empty((self.grid.d,) + shape, dtype=np.complex128)

    def _free(self, v):
        """(zeta - Lap)^(-1) v"""
        vhat = fftn(v)
        vhat *= self._sym(1.0)
        return ifftn(vhat, overwrite_x=True)

    def _free_adjoint(self, v):
        """(conj(zeta) - Lap)^(-1) v"""
        vhat = fftn(v)
        np.multiply(self._sym_conj(), vhat, out=vhat)
        return ifftn(vhat, overwrite_x=True)

    def _weighted_gradient(self, vhat, stack, out, sym=None):
        """weight_vec . grad of the grid function whose transform is vhat (times sym if given), into out

        vhat and out may be stack[0]: the components ik_j vhat fill the
        stack from the last one down, and go through one inverse transform.
        A float64 ``out`` takes the real lane: the components are formed on
        the last-axis half of vhat and sym with the Nyquist-zeroed
        ``ik_half_components``, into a half-spectrum stack, and the inverse
        is one ``irfftn``; ``out`` may then be the real view of stack[0].
        """
        grid = self.grid
        if np.iscomplexobj(out):
            split_pass(_slots, vhat, stack, sym, *grid.ik_components)
            grads = ifftn(stack, axes=grid.stack_axes, overwrite_x=True)
        else:
            half = (..., slice(grid.half_shape[-1]))
            split_pass(_slots, vhat[half], stack, None if sym is None else sym[half],
                       *grid.ik_half_components)
            grads = irfftn(stack, grid.shape, axes=grid.stack_axes, overwrite_x=True)
        split_pass(_weighted_sum, out, grads, self.weight_vec)
        return out

    def _input_values(self, v):
        """weight_vec . grad (zeta - Lap)^(-1) v"""
        vhat = fftn(v)
        return self._weighted_gradient(vhat, self._stack(), vhat, self._sym(1.0))

    def _input_adjoint(self, v, stack):
        """Adjoint of the input factor applied to v, which may be stack[0], in the stack's first slot"""
        split_pass(_slots, v, stack, None, *self.weight_vec)
        hats = fftn(stack, axes=self.grid.stack_axes, overwrite_x=True)
        split_pass(_conj_divergence, hats[0], hats, self._sym_conj(), *self.grid.ik_components)
        return ifftn(hats[0], overwrite_x=True)

    def _input_adjoint_values(self, v):
        return self._input_adjoint(v, self._stack())

    def _output_values(self, v):
        """(zeta - Lap)^(-1) (weight_out * v)"""
        return self._free(self.weight_out * v)

    def _output_adjoint_values(self, v):
        out = self._free_adjoint(v)
        out *= self.weight_out
        return out

    def _loop(self, v, stack):
        """weight_vec . grad (zeta - Lap)^(-1) (weight_out * v), in the stack's first slot

        A float64 v takes the real lane, with a half-spectrum stack: the
        value is float64, in the real view of stack[0].
        """
        out = stack[0] if np.iscomplexobj(v) else _real_view(stack[0], self.grid.shape)
        split_pass(np.multiply, self.weight_out, v, out)
        ahat = fftn(out, overwrite_x=True)
        return self._weighted_gradient(ahat, stack, out, self._sym(1.0))

    def _loop_values(self, v):
        # an operator on complex arrays: a real v is read as complex, not on the real lane
        return self._loop(np.asarray(v, dtype=np.complex128), self._stack())

    def _loop_adjoint(self, v, stack):
        split_pass(np.multiply, self._input_adjoint(v, stack), self.weight_out, stack[0])
        return stack[0]

    def _loop_adjoint_values(self, v):
        return self._loop_adjoint(v, self._stack())

    def _weighted_resolvent_values(self, v):
        """|b|^(1/p) (zeta - Lap)^(-1) v"""
        out = self._free(v)
        out *= self.weight_in_mag
        return out

    def _weighted_resolvent_adjoint_values(self, v):
        return self._free_adjoint(self.weight_in_mag * v)

    def _symmetric_loop(self, vhat, stack):
        """S^(1/4) fftn(|b|^(1/2) (weight_vec . grad ifftn(S^(3/4) vhat))), in the stack's first slot

        The p = 2 loop of the symmetric factorization, on transforms.  For
        p = 2 the transpose of the quarter-power weighted factor is
        realized with the same zeta (it coincides with the Hilbert
        adjoint for real zeta, and is what makes the factorization an
        exact identity for complex zeta).
        """
        inner = self._weighted_gradient(vhat, stack, stack[0], self._sym(0.75))
        split_pass(np.multiply, inner, self.weight_out, inner)
        ihat = fftn(inner, overwrite_x=True)
        split_pass(np.multiply, ihat, self._sym(0.25), ihat)
        return ihat

    # -- public operator views ------------------------------------------

    def input_factor(self):
        return LinearOp(self.grid, self._input_values, self._input_adjoint_values,
                        self._uniform_symbol(vec=self.weight_vec))

    def output_factor(self):
        return LinearOp(self.grid, self._output_values, self._output_adjoint_values,
                        self._uniform_symbol(scalar=self.weight_out))

    def loop_factor(self):
        return LinearOp(self.grid, self._loop_values, self._loop_adjoint_values,
                        self._uniform_symbol(self.weight_out, self.weight_vec))

    def weighted_resolvent(self):
        return LinearOp(self.grid, self._weighted_resolvent_values, self._weighted_resolvent_adjoint_values,
                        self._uniform_symbol(scalar=self.weight_in_mag))

    def _uniform_symbol(self, scalar=None, vec=None):
        """A factor's multiplier when each of its weights is uniform, else None.

        The factor is scalar (vec . grad) (zeta - Lap)^(-1), either weight
        left out when absent; with every value of each weight equal to its
        first, it is the multiplier scalar (vec . ik) (zeta + |k|^2)^(-1),
        built from the ``ik_components`` and ``_sym(1.0)`` the factor
        applies.
        """
        weights = ([] if scalar is None else [scalar]) + ([] if vec is None else list(vec))
        # uniform when min == max: the values are finite, and no mask is allocated
        if not all(w.min() == w.max() for w in weights):
            return None
        factor = 1.0 if vec is None else sum(w.flat[0] * ik for w, ik in zip(vec, self.grid.ik_components))
        if scalar is not None:
            factor = scalar.flat[0] * factor
        return factor * self._sym(1.0)

    def apply_input_factor(self, f):
        return GridFunction(self.grid, self._input_values(f.values))

    def apply_free_resolvent(self, f):
        return GridFunction(self.grid, self._free(f.values))

    # -- series inversion -------------------------------------------------

    def _neumann(self, total, loop, stack, tol=None, kmax=None, cell_volume=None):
        """Sum over k of (-loop)^k g, accumulated in place into ``total`` = g.

        Callers pass a temporary, not a slot of the stack.  ``loop(v,
        stack)`` writes the loop applied to v into stack[0] (its real view
        on the real lane, where ``total`` is float64) and returns it, so
        each term overwrites the one before it, and the series holds
        ``total`` and the stack whatever its length.  The k-th term is
        loop^k g, subtracted for odd k: negation is exact and commutes with
        rounding, so these are the sums of the negated terms.  Increments
        are p-norms with ``cell_volume`` (h^d by default; h^d/N for a
        series on transforms, by Parseval at p = 2).  Each one writes |v|^p
        into the stack's last slot, free between terms, in the pass that
        updates the sum, and sums it as ``lp_norm_values`` does.  Returns
        (sum, increments |term|_p).
        """
        tol = NEUMANN_TOL if tol is None else tol
        kmax = NEUMANN_KMAX if kmax is None else kmax
        hd = self.grid.cell_volume() if cell_volume is None else cell_volume
        p = self.params.p
        powers = _real_view(stack[-1], self.grid.shape)
        split_pass(_powers_and_update, total, powers, p)
        norm_g = lp_norm_of_powers(powers, p, hd)
        history = []
        if norm_g == 0.0:
            return total, history
        term = total
        grow = 0
        for k in range(kmax):
            term = loop(term, stack)
            split_pass(_powers_and_update, term, powers, p, total, k % 2 == 0)
            inc = lp_norm_of_powers(powers, p, hd)
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
        total, history = self._neumann(g.values.copy(), self._loop, self._stack())
        return GridFunction(self.grid, total), history

    # -- the resolvent ----------------------------------------------------

    def _apply_adjoint_values(self, v):
        """Adjoint of the direct factorization: free* - input*(1+loop*)^-1 output*.

        The adjoint loop factor obeys the same norm guard (the bound is
        symmetric under exponent conjugation), so the same series engine
        inverts it.
        """
        free = self._free_adjoint(v)
        stack = self._stack()
        w, _ = self._neumann(self.weight_out * free, self._loop_adjoint, stack)
        free -= self._input_adjoint(w, stack)
        return free

    def resolvent_op(self):
        return LinearOp(
            self.grid, lambda v: self.apply(GridFunction(self.grid, v)).values, self._apply_adjoint_values
        )

    def apply_spectral(self, vhat, tol=None, kmax=None):
        """Transform of R(zeta) v from the transform vhat of v, written into vhat and returned.

        By the assembly's (pre, post) chains: S vhat - S^post fftn(weight_out
        * w), where w solves (1 + loop) w = weight_vec . grad ifftn(S^pre
        vhat); on a zero drift, S vhat.  ``symmetric`` sums its series on
        transforms: S^(3/4) w with w = (1 + loop)^(-1) S^(1/4) vhat.  A
        step costs 4k + 4 transforms for k series terms in 2k + 2 calls
        (``symmetric`` 4k in 2k), so a chain of resolvents (``evolve``)
        leaves Fourier space only at its ends.  vhat is overwritten: pass a
        transform the caller no longer needs.  The step runs on complex
        grid arrays with ``Grid.ik_components``; ``apply_spectral_real`` is
        its real lane.
        """
        return self._apply_spectral(vhat, tol, kmax, real=False)

    def apply_spectral_real(self, vhat, tol=None, kmax=None):
        """``apply_spectral`` on the real lane, for vhat the transform of real data.

        zeta must be real, and the factorization one of the (pre, post)
        chains.  The step applies the real operator: its odd symbols are
        ``Grid.ik_half_components``, with the Nyquist entry zeroed, so
        R(zeta) v is real.  vhat and the step's value stay full
        transforms, but every grid array between them is float64: the
        gradients, the series terms, their sum and |v|^p.  The forward
        transforms are ``fftn`` calls on real arrays, and each gradient is
        one ``irfftn`` call on the last-axis half of the spectrum, so a
        step costs the 4k + 4 transforms in 2k + 2 calls of
        ``apply_spectral``.
        """
        if self.params.zeta.imag or self.representation == "symmetric":
            raise ValueError("the real lane needs a real zeta and a (pre, post) chain")
        return self._apply_spectral(vhat, tol, kmax, real=True)

    def _apply_spectral(self, vhat, tol, kmax, real):
        if self.zero_drift:
            split_pass(np.multiply, self._sym(1.0), vhat, vhat)
            return vhat
        # the kept symbols are looked up before the stack is allocated: one
        # gathered on first use is held for good, and placed after the stack
        # it would pin the heap above the stack's freed block
        if self.representation == "symmetric":
            quarter, three_quarters = self._sym(0.25), self._sym(0.75)
            split_pass(np.multiply, vhat, quarter, vhat)
            volume = self.grid.cell_volume() / self.grid.node_count()
            w, _ = self._neumann(vhat, self._symmetric_loop, self._stack(), tol=tol, kmax=kmax,
                                 cell_volume=volume)
            split_pass(np.multiply, w, three_quarters, w)
            return w
        sym, (pre, post) = self._sym(1.0), self.chains
        stack = self._stack(real)
        g = stack[0]
        cut = (..., slice(g.shape[-1]))  # the real lane's half spectrum, else all of it
        split_pass(np.multiply, self._sym(pre[0])[cut], vhat[cut], g)
        split_pass(np.multiply, sym, vhat, vhat)
        for alpha in pre[1:]:
            split_pass(np.multiply, self._sym(alpha)[cut], g, g)
        g = self._weighted_gradient(g, stack, np.empty(self.grid.shape, np.float64 if real else np.complex128))
        w, _ = self._neumann(g, self._loop, stack, tol=tol, kmax=kmax)  # summed in place: w is g
        del stack  # frees the workspace before the post chain gathers its symbols
        split_pass(np.multiply, w, self.weight_out, w)
        corr = fftn(w, overwrite_x=True)
        # a repeated exponent (split's 1/2, 1/2) is gathered once
        for alpha, repeats in groupby(post):
            power = self._sym(alpha)
            for _ in repeats:
                split_pass(np.multiply, corr, power, corr)
            del power
        split_pass(np.subtract, vhat, corr, vhat)
        return vhat

    def apply(self, f, tol=None, kmax=None):
        """Apply the resolvent of (zeta + generator) to f."""
        if self.zero_drift:
            return self.apply_free_resolvent(f)
        uhat = self.apply_spectral(fftn(f.values), tol=tol, kmax=kmax)
        return GridFunction(self.grid, ifftn(uhat, overwrite_x=True))


def apply_generator(b, f):
    """-Lap f + b . grad f with the full drift field, applied spectrally."""
    from .grid import gradient_apply, laplacian_apply

    advect = np.sum(b.values * gradient_apply(f), axis=0)
    return GridFunction(f.grid, -laplacian_apply(f).values + advect)


def _dual_vector(v, mag, p):
    """Duality map of the p-norm: |v|^(p-1) * phase(v), given mag = |v|."""
    phase = np.divide(v, mag, out=np.zeros_like(v), where=mag > 0)
    return mag ** (p - 1.0) * phase


def _plane_wave(grid, index):
    """exp(i k.x) at the grid nodes, k the frequency at ``index`` of the grid's transforms."""
    n = grid.n
    m = np.arange(n)
    wave = np.ones(grid.shape, dtype=np.complex128)
    for j, i in enumerate(index):
        axis = [1] * grid.d
        axis[j] = n
        wave *= np.exp(2j * np.pi * (i * m % n) / n).reshape(axis)
    return wave


def _top_singular_value(op, tol, seed):
    """Largest singular value of ``op`` on complex grid arrays: |op v| for a unit v.

    A multiplier (``op.symbol`` set) has the plane wave at the peak of
    |symbol| for a top singular vector: v is that wave, and one forward
    call gives the value, exact up to rounding: |op v| can exceed the
    norm by rounding alone (it came within 5e-14 relative of the closed
    form, on either side, on 8^3 to 32^3 and 8^4 grids).  Otherwise v is
    the unit Ritz vector of Lanczos (ARPACK svds), so the value does not
    exceed the true top singular value.  The matvecs look up ``op.forward``/
    ``op.adjoint`` at call time, so wrappers installed on the op after it
    was built still see every call.
    """
    shape = op.grid.shape
    if op.symbol is not None:
        wave = _plane_wave(op.grid, np.unravel_index(np.argmax(np.abs(op.symbol)), shape))
        return float(np.linalg.norm(op.forward(wave)) / np.linalg.norm(wave))
    # imported here: scipy.sparse.linalg costs ~70 ms and ~10 MB to load,
    # and only the p = 2 norm of a non-multiplier needs it
    from scipy.sparse.linalg import ArpackError, LinearOperator, svds

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
    """Estimate of the L^p -> L^p operator norm; requires the adjoint.

    At p == 2 the norm is the top singular value (``_top_singular_value``);
    ``n_starts`` is ignored there.  For a multiplier (``op.symbol`` set,
    as on every factor view of a constant drift) it is exact up to
    rounding, from one forward call and no adjoint call.  Otherwise it is
    one Lanczos (ARPACK ``svds``) call to relative tolerance ``tol`` from a
    seeded start: a Ritz value never exceeds the top singular value, so the
    result is a lower estimate, and a sharper one than the power
    iteration gives.  At p != 2, every operator, multiplier or not, runs
    restarted nonlinear power iteration on the norm ratio (Boyd's ascent
    on the dual vectors), at most 100 steps from each of ``n_starts``
    random starts, and returns the largest ratio found, a lower estimate.
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
            mag = np.abs(y)  # read by the norm and by the dual vector
            est = lp_norm_of_powers(mag ** p, p, hd)
            if est <= est_prev * (1.0 + tol):
                break
            est_prev = est
            z = op.adjoint(_dual_vector(y, mag, p))
            x = _dual_vector(z, np.abs(z), p_conj)
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
