import numpy as np
import pytest

from sdlab.fields import DriftSpec, estimate_class_F_half, guarded_pair
from sdlab.grid import Grid, GridFunction, GridVectorField, lp_norm
from sdlab.regularity import (
    HOLDER_INF,
    bessel_smoothing_study,
    holder_probe,
    make_test_functions,
    rough_input,
    weak_identity_residual,
)
from sdlab.resolvent import ResolventAssembly, ResolventParams


import pytest as _pytest


@_pytest.fixture(scope="module")
def grid64():
    return Grid(3, 64, 16.0)


def test_holder_constant_sentinel(grid64):
    u = GridFunction(grid64, np.full(grid64.shape, 2.5))
    slope, resid, seps, maxima = holder_probe(u)
    assert slope == HOLDER_INF
    assert (maxima == 0).all()


def test_holder_cone_profile(grid64):
    center = np.full(3, grid64.length / 2)

    def cone(x, y, z):
        return np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2)

    u = GridFunction.from_callable(grid64, cone)
    slope, resid, _, _ = holder_probe(u, pairs_per_bin=4096, seed=3)
    assert slope == pytest.approx(1.0, abs=0.15)


def test_holder_hardy_resolvent_diagnostic():
    # resolvent output over the pole field: a positive exponent must come
    # out; the admissibility ceiling 1 - (d-1)/p is recorded, not asserted
    g = Grid(3, 64, 16.0)
    b = DriftSpec("hardy", c=0.2).on_grid(g)
    est = estimate_class_F_half(b, lambda_grid=np.logspace(-1, 2, 5))
    delta, lam = guarded_pair(est, p=2.5, d=3)
    pr = ResolventParams(p=2.5, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
    rng = np.random.default_rng(2)
    f = GridFunction(g, rng.standard_normal(g.shape) + 0j)
    u = ResolventAssembly(pr, b).apply(f)
    slope, _, _, _ = holder_probe(GridFunction(g, u.values.real), pairs_per_bin=2048)
    ceiling = 1.0 - 2.0 / 2.5
    assert slope > 0.05
    assert np.isfinite(ceiling)


def test_holder_needs_enough_bins():
    g = Grid(3, 8, 2.0)
    u = GridFunction(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        holder_probe(u)


def test_holder_free_resolvent_smooth():
    # bins must stay below the output's variation scale, hence the fine
    # grid and the long single-mode input
    g = Grid(3, 128, 16.0)
    b0 = GridVectorField.zeros(g)
    pr = ResolventParams(p=2.0, zeta=2.0, delta=0.0, lam=0.5)
    f = GridFunction.from_callable(g, lambda x, y, z: np.sin(2 * np.pi * x / 16.0))
    u = ResolventAssembly(pr, b0).apply(f)
    slope, _, _, _ = holder_probe(GridFunction(g, u.values.real), pairs_per_bin=4096)
    assert slope >= 0.85


def test_weak_identity_free_field(grid16):
    b0 = GridVectorField.zeros(grid16)
    pr = ResolventParams(p=2.0, zeta=complex(2.0, 0.4), delta=0.0, lam=0.5)
    rng = np.random.default_rng(0)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    vs = make_test_functions(grid16, count=3, seed=1)
    assert weak_identity_residual(pr, b0, f, vs) < 1e-10


def test_weak_identity_bounded_field(grid8, bounded_field8, random_f8):
    est = estimate_class_F_half(bounded_field8, lambda_grid=np.logspace(-1, 2, 5))
    delta, lam = guarded_pair(est, p=2.5, d=3)
    pr = ResolventParams(p=2.5, zeta=complex(2 * lam, 0.5), delta=delta, lam=lam)
    vs = make_test_functions(grid8, count=3, seed=2)
    assert weak_identity_residual(pr, bounded_field8, random_f8, vs) < 1e-8


def test_weak_identity_scale_invariant(grid16, hardy16):
    est = estimate_class_F_half(hardy16, lambda_grid=np.logspace(-1, 2, 5))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    pr = ResolventParams(p=2.0, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
    rng = np.random.default_rng(5)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    vs = make_test_functions(grid16, count=1, seed=3)
    r1 = weak_identity_residual(pr, hardy16, f, vs)
    r2 = weak_identity_residual(pr, hardy16, f, [37.0 * vs[0]])
    assert r1 == pytest.approx(r2, rel=1e-9)


def test_rough_input_norm_grid_independent():
    norms = [lp_norm(rough_input(Grid(3, n, 8.0), seed=0), 2) for n in (8, 16, 32)]
    vol = 8.0 ** 1.5
    for nv in norms:
        assert nv == pytest.approx(vol, rel=0.05)


def test_smoothing_study_free_resolvent():
    # free resolvent gains two orders: output norms stay bounded under
    # refinement while the rough input norms diverge
    fields = [GridVectorField.zeros(Grid(3, n, 8.0)) for n in (8, 16, 32)]
    params = ResolventParams(p=2.0, zeta=2.0, delta=0.0, lam=0.5)
    rows = bessel_smoothing_study(fields, params, 3.0)
    assert [r[0] for r in rows] == [8, 16, 32]
    outs = [r[1] for r in rows]
    ins = [r[2] for r in rows]
    assert outs[1] <= outs[0] * 1.1 and outs[2] <= outs[1] * 1.1
    assert ins[1] > 1.5 * ins[0] and ins[2] > 1.5 * ins[1]
