"""The factor views of ``ResolventAssembly`` as they were before one (left, gradient, right) description built them.

A frozen copy, kept as the bit-for-bit reference of the four views'
forward and adjoint maps and of their symbols: the assembly may change
how it builds a view, not what a view gives.  Each view was a forward
method, an adjoint method and a ``_uniform_symbol`` call, written on the
series kernels of the assembly (``_weighted_gradient``, ``_input_adjoint``,
``_loop``, ``_loop_adjoint``), which are not copied here.
"""

import numpy as np

from sdlab.grid import fftn, ifftn


def _free(a, v):
    vhat = fftn(v, axes=a.grid.axes)
    vhat *= a._sym(1.0)
    return ifftn(vhat, axes=a.grid.axes, overwrite_x=True)


def _free_adjoint(a, v):
    vhat = fftn(v, axes=a.grid.axes)
    np.multiply(a._sym_conj(), vhat, out=vhat)
    return ifftn(vhat, axes=a.grid.axes, overwrite_x=True)


def _input_values(a, v):
    vhat = fftn(v, axes=a.grid.axes)
    return a._weighted_gradient(vhat, a._stack(vhat.shape), vhat, a._sym(1.0))


def _input_adjoint_values(a, v):
    return a._input_adjoint(v, a._stack(v.shape))


def _output_values(a, v):
    return _free(a, a.weight_out * v)


def _output_adjoint_values(a, v):
    out = _free_adjoint(a, v)
    out *= a.weight_out
    return out


def _loop_values(a, v):
    return a._loop(np.asarray(v, dtype=np.complex128), a._stack(np.shape(v)))


def _loop_adjoint_values(a, v):
    return a._loop_adjoint(v, a._stack(v.shape))


def _weighted_resolvent_values(a, v):
    out = _free(a, v)
    out *= a.weight_in_mag
    return out


def _weighted_resolvent_adjoint_values(a, v):
    return _free_adjoint(a, a.weight_in_mag * v)


def _uniform_symbol(a, scalar=None, vec=None):
    weights = ([] if scalar is None else [scalar]) + ([] if vec is None else list(vec))
    if not all(w.min() == w.max() for w in weights):
        return None
    factor = 1.0 if vec is None else sum(w.flat[0] * ik for w, ik in zip(vec, a.grid.ik_components))
    if scalar is not None:
        factor = scalar.flat[0] * factor
    return factor * a._sym(1.0)


def reference_view(a, name):
    """(forward, adjoint, symbol) of the view ``name`` of assembly ``a``, as the old methods gave them."""
    forward, adjoint, symbol = {
        "input_factor": (_input_values, _input_adjoint_values, lambda: _uniform_symbol(a, vec=a.weight_vec)),
        "output_factor": (_output_values, _output_adjoint_values, lambda: _uniform_symbol(a, scalar=a.weight_out)),
        "loop_factor": (_loop_values, _loop_adjoint_values, lambda: _uniform_symbol(a, a.weight_out, a.weight_vec)),
        "weighted_resolvent": (_weighted_resolvent_values, _weighted_resolvent_adjoint_values,
                               lambda: _uniform_symbol(a, scalar=a.weight_in_mag)),
    }[name]
    return (lambda v: forward(a, v)), (lambda v: adjoint(a, v)), symbol()
