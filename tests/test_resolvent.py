import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracles import (
    apply_dense,
    dense_generator,
    dense_input_factor,
    dense_loop_factor,
    dense_output_factor,
    dense_weighted_resolvent,
    dft_matrix,
)
from sdlab import constants as C
from sdlab import grid as grid_module
from sdlab import resolvent
from sdlab.errors import (
    GuardViolationError,
    NeumannDivergenceError,
    NeumannMaxTermsError,
    SpectralDomainError,
)
from sdlab.fields import DriftSpec, estimate_class_F_half, guarded_pair
from sdlab.grid import Grid, GridFunction, GridVectorField, fft_workers, fftn, ifftn, lp_norm, set_fft_workers
from sdlab.resolvent import (
    LinearOp,
    ResolventAssembly,
    ResolventParams,
    estimate_op_norm,
    norm_bound_report,
    pseudo_resolvent_residual,
    strong_convergence_study,
    zeta_ray_grid,
)
from sdlab.semigroup import SemigroupParams, evolve


def make_params(delta=0.05, lam=1.0, p=2.5, zeta=None, **kw):
    zeta = complex(3.0, 1.0) if zeta is None else zeta
    return ResolventParams(p=p, zeta=zeta, delta=delta, lam=lam, **kw)


def test_params_validation():
    with pytest.raises(GuardViolationError):
        ResolventParams(p=2.0, zeta=10.0, delta=0.9, lam=1.0)  # m_d * 0.9 > 1
    with pytest.raises(SpectralDomainError):
        ResolventParams(p=2.0, zeta=1.0, delta=0.05, lam=2.0)  # Re zeta < kappa_d lam
    pr = make_params()
    assert pr.guard_value < 1.0


def test_dft_oracle_matches_fft(grid8, random_f8):
    import scipy.fft as sf

    F = dft_matrix(grid8)
    direct = (F @ random_f8.values.ravel()).reshape(grid8.shape)
    np.testing.assert_allclose(direct, sf.fftn(random_f8.values), rtol=1e-9, atol=1e-9)


def test_zero_field_resolvent_is_free(grid16, zero_field16):
    pr = make_params(delta=0.0, lam=0.5, zeta=2.0)
    a = ResolventAssembly(pr, zero_field16)
    one = GridFunction(grid16, np.ones(grid16.shape))
    np.testing.assert_allclose(a.apply(one).values, 0.5, atol=1e-12)
    assert lp_norm(a.apply_input_factor(one), 2) == pytest.approx(0.0, abs=1e-14)


def test_input_factor_kills_constants(grid8, bounded_field8):
    pr = make_params()
    a = ResolventAssembly(pr, bounded_field8)
    one = GridFunction(grid8, np.ones(grid8.shape))
    assert lp_norm(a.apply_input_factor(one), 2) < 1e-13


def test_factors_against_dense_matrices(grid8, bounded_field8, random_f8):
    pr = make_params(zeta=complex(2.0, -1.5))
    a = ResolventAssembly(pr, bounded_field8)
    pairs = [
        (a.input_factor(), dense_input_factor(grid8, a)),
        (a.output_factor(), dense_output_factor(grid8, a)),
        (a.weighted_resolvent(), dense_weighted_resolvent(grid8, a)),
        (a.loop_factor(), dense_loop_factor(grid8, a)),
    ]
    for op, M in pairs:
        got = op(random_f8.values)
        want = apply_dense(M, random_f8.values)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-10


def test_adjoints_match_dense(grid8, bounded_field8, rng):
    pr = make_params(zeta=complex(2.0, 0.7))
    a = ResolventAssembly(pr, bounded_field8)
    v = rng.standard_normal(grid8.shape) + 1j * rng.standard_normal(grid8.shape)
    for op, M in [
        (a.input_factor(), dense_input_factor(grid8, a)),
        (a.output_factor(), dense_output_factor(grid8, a)),
        (a.loop_factor(), dense_loop_factor(grid8, a)),
        (a.weighted_resolvent(), dense_weighted_resolvent(grid8, a)),
    ]:
        got = op.adjoint(v)
        want = (np.conj(M).T @ v.ravel()).reshape(grid8.shape)
        assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30) < 1e-10


def test_output_factor_unit_weight_is_free_resolvent(grid16, rng):
    # |b| = 1 everywhere turns the output factor into the bare resolvent
    vals = np.zeros((3,) + grid16.shape, dtype=np.complex128)
    vals[0] = 1.0
    b = GridVectorField(grid16, vals)
    pr = make_params(delta=0.4, lam=1.0, p=2.0, zeta=complex(2.5, 0.0))
    a = ResolventAssembly(pr, b)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    got = GridFunction(grid16, a.output_factor()(f.values))
    want = a.apply_free_resolvent(f)
    assert lp_norm(got - want, 2) / lp_norm(want, 2) < 1e-13


def test_loop_factor_single_mode_constant_field():
    g = Grid(3, 16, 2 * np.pi)
    c = 0.3
    vals = np.zeros((3,) + g.shape, dtype=np.complex128)
    vals[0] = c
    b = GridVectorField(g, vals)
    zeta = complex(2.5, 0.5)
    pr = make_params(delta=c, lam=0.5, p=2.0, zeta=zeta)
    a = ResolventAssembly(pr, b)
    k = np.array([1.0, 2.0, 0.0])
    f = GridFunction.from_callable(
        g, lambda x, y, z: np.exp(1j * (k[0] * x + k[1] * y + k[2] * z))
    )
    out = a.loop_factor()(f.values)
    factor = c * 1j * k[0] / (zeta + np.dot(k, k))
    np.testing.assert_allclose(out, factor * f.values, rtol=1e-11, atol=1e-12)


def test_neumann_zero_field_identity(grid16, zero_field16, rng):
    pr = make_params(delta=0.0, lam=0.5, zeta=2.0)
    a = ResolventAssembly(pr, zero_field16)
    g = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    out, hist = a.neumann_inverse(g)
    np.testing.assert_allclose(out.values, g.values)
    assert len(hist) <= 1


def test_neumann_single_mode_geometric_sum():
    g = Grid(3, 16, 2 * np.pi)
    c = 0.2
    vals = np.zeros((3,) + g.shape, dtype=np.complex128)
    vals[0] = c
    b = GridVectorField(g, vals)
    zeta = 3.0
    pr = make_params(delta=c, lam=0.5, p=2.0, zeta=zeta)
    a = ResolventAssembly(pr, b)
    k = np.array([2.0, 1.0, 1.0])
    f = GridFunction.from_callable(
        g, lambda x, y, z: np.exp(1j * (k[0] * x + k[1] * y + k[2] * z))
    )
    out, _ = a.neumann_inverse(f)
    tau = c * 1j * k[0] / (zeta + np.dot(k, k))
    np.testing.assert_allclose(out.values, f.values / (1.0 + tau), rtol=1e-9)


def test_neumann_dense_solve_oracle(grid8, bounded_field8, random_f8):
    pr = make_params(zeta=complex(2.0, 1.0))
    a = ResolventAssembly(pr, bounded_field8)
    out, _ = a.neumann_inverse(random_f8)
    M = np.eye(grid8.node_count()) + dense_loop_factor(grid8, a)
    want = np.linalg.solve(M, random_f8.values.ravel()).reshape(grid8.shape)
    assert np.max(np.abs(out.values - want)) / np.max(np.abs(want)) < 1e-8


def test_neumann_increment_decay_matches_loop_norm(hardy16):
    est = estimate_class_F_half(hardy16, lambda_grid=np.logspace(-1, 2, 6))
    delta, lam = guarded_pair(est, p=2.5, d=3)
    pr = make_params(delta=delta, lam=lam, zeta=complex(1.6 * lam, 0.0))
    a = ResolventAssembly(pr, hardy16)
    rng = np.random.default_rng(0)
    g = GridFunction(hardy16.grid, rng.standard_normal(hardy16.grid.shape) + 0j)
    _, hist = a.neumann_inverse(g)
    measured = estimate_op_norm(a.loop_factor(), pr.p, n_starts=8, seed=2)
    ratios = [b / a_ for a_, b in zip(hist, hist[1:]) if a_ > 1e-280]
    assert max(ratios) <= measured + 1e-3


def test_neumann_divergence_detected():
    # honest guard values but a deliberately understated delta: the loop
    # factor norm exceeds 1 and the divergence detector must fire
    g = Grid(3, 8, 2 * np.pi)
    vals = np.zeros((3,) + g.shape, dtype=np.complex128)
    vals[0] = 8.0
    b = GridVectorField(g, vals)
    pr = make_params(delta=0.0, lam=0.5, p=2.0, zeta=complex(1.0, 0.0))
    a = ResolventAssembly(pr, b)
    rng = np.random.default_rng(1)
    f = GridFunction(g, rng.standard_normal(g.shape) + 0j)
    with pytest.raises(NeumannDivergenceError) as exc:
        a.neumann_inverse(f)
    assert len(exc.value.history) >= 5


def test_resolvent_vs_dense_generator_solve(grid8, bounded_field8, random_f8):
    zeta = complex(2.5, 1.0)
    pr = make_params(zeta=zeta)
    a = ResolventAssembly(pr, bounded_field8)
    u = a.apply(random_f8)
    M = zeta * np.eye(grid8.node_count()) + dense_generator(grid8, bounded_field8)
    want = np.linalg.solve(M, random_f8.values.ravel()).reshape(grid8.shape)
    assert np.max(np.abs(u.values - want)) / np.max(np.abs(want)) < 1e-8


def test_representation_agreement(grid16, hardy16, rng):
    # the fractional chains' exponents depend on p, so p = 2.5 is compared too
    est = estimate_class_F_half(hardy16, lambda_grid=np.logspace(-1, 2, 6))
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape))
    for p, reps in ((2.0, ("fractional", "split", "symmetric")), (2.5, ("fractional", "split"))):
        delta, lam = guarded_pair(est, p=p, d=3)
        pr = ResolventParams(p=p, zeta=complex(2.0 * lam, lam), delta=delta, lam=lam)
        want = ResolventAssembly(pr, hardy16).apply(f)
        scale = lp_norm(want, p)
        for rep in reps:
            assert lp_norm(ResolventAssembly(pr, hardy16, rep).apply(f) - want, p) / scale < 1e-8


def test_symmetric_representation_requires_p2(hardy16):
    pr = make_params(p=2.5)
    with pytest.raises(ValueError):
        ResolventAssembly(pr, hardy16, "symmetric")
    with pytest.raises(ValueError):
        ResolventAssembly(make_params(p=2.0), hardy16, "unknown-rep")


def test_linearity(grid16, hardy16, rng):
    pr = make_params(delta=0.05, lam=1.0, zeta=complex(2.0, 0.5))
    a = ResolventAssembly(pr, hardy16)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    g = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    alpha = 1.7 - 0.3j
    lhs = a.apply(alpha * f + g)
    rhs = alpha * a.apply(f) + a.apply(g)
    assert lp_norm(lhs - rhs, 2) / lp_norm(rhs, 2) < 1e-12


def test_pseudo_resolvent_trivial_and_zero_field(grid16, zero_field16, rng):
    pr = make_params(delta=0.0, lam=0.5, zeta=2.0)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    assert pseudo_resolvent_residual(pr, zero_field16, 2.0, 2.0, f) == pytest.approx(0.0, abs=1e-13)
    r = pseudo_resolvent_residual(pr, zero_field16, complex(2.0, 1.0), complex(5.0, -2.0), f)
    assert r < 1e-12


def test_pseudo_resolvent_bounded_field(grid16, rng):
    b = DriftSpec("smooth-random", amp=0.2, kmax=1, seed=7).on_grid(grid16)
    est = estimate_class_F_half(b, lambda_grid=np.logspace(-1, 2, 6))
    delta, lam = guarded_pair(est, p=2.5, d=3)
    pr = ResolventParams(p=2.5, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    floor = 1.5 * lam
    for zeta, eta in [(complex(floor, 0), complex(4 * floor, 0)),
                      (complex(floor, floor), complex(2 * floor, -floor))]:
        assert pseudo_resolvent_residual(pr, b, zeta, eta, f) < 1e-8


def test_estimate_op_norm_sanity(grid16):
    zero = LinearOp(grid16, lambda v: np.zeros_like(v), lambda v: np.zeros_like(v))
    assert estimate_op_norm(zero, 2.0, n_starts=2) == 0.0
    zeta = 2.0
    sym = np.power(zeta + grid16.k_squared, -1.0)
    import scipy.fft as sf

    free = LinearOp(
        grid16,
        lambda v: sf.ifftn(sym * sf.fftn(v)),
        lambda v: sf.ifftn(np.conj(sym) * sf.fftn(v)),
    )
    est = estimate_op_norm(free, 2.0, n_starts=4, tol=1e-6, seed=1)
    assert est == pytest.approx(1.0 / zeta, rel=1e-3)


@pytest.mark.parametrize("factor", ["loop", "input", "output"])
def test_p2_op_norm_dense_svd_oracle(grid8, bounded_field8, factor):
    a = ResolventAssembly(make_params(p=2.0), bounded_field8)
    op, dense = {
        "loop": (a.loop_factor(), dense_loop_factor),
        "input": (a.input_factor(), dense_input_factor),
        "output": (a.output_factor(), dense_output_factor),
    }[factor]
    exact = np.linalg.svd(dense(grid8, a), compute_uv=False)[0]
    assert 1.0 - 1e-6 <= estimate_op_norm(op, 2.0) / exact <= 1.0 + 1e-9


def counted_calls(op):
    """Wrap op.forward and op.adjoint to count their calls."""
    calls = {"forward": 0, "adjoint": 0}

    def counted(name, fn):
        def wrapped(v):
            calls[name] += 1
            return fn(v)

        return wrapped

    op.forward = counted("forward", op.forward)
    op.adjoint = counted("adjoint", op.adjoint)
    return calls


def test_p2_loop_norm_constant_field_closed_form():
    # a constant drift makes the loop factor the multiplier i c.k / (zeta + |k|^2):
    # one forward call on the plane wave at its peak gives the norm
    for d, n, c in ((3, 16, [0.2, 0.0, 0.0]), (4, 8, [0.2, 0.0, -0.1, 0.05])):
        grid = Grid(d, n, 16.0)
        vals = np.zeros((d,) + grid.shape, dtype=np.complex128)
        vals += np.array(c).reshape((d,) + (1,) * d)
        b = GridVectorField(grid, vals)
        ck = sum(cj * kj for cj, kj in zip(c, grid.k_components))
        for zeta, lam in ((complex(3.0, 1.0), 1.0), (complex(C.kappa_d(d) * 1e4, 0.0), 1e4)):
            a = ResolventAssembly(make_params(p=2.0, zeta=zeta, lam=lam, d=d), b)
            loop = a.loop_factor()
            calls = counted_calls(loop)
            exact = np.max(np.abs(ck) / np.abs(zeta + grid.k_squared))
            assert estimate_op_norm(loop, 2.0) == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert calls == {"forward": 1, "adjoint": 0}


@pytest.mark.parametrize("view", ["input_factor", "output_factor", "weighted_resolvent"])
def test_p2_factor_norms_of_a_constant_field_are_one_forward_call(view):
    # a constant drift makes every factor a multiplier: sqrt(|c|) i k_1 S for the
    # input factor, sqrt(|c|) S for the other two.  At lam = 1e4 and tol = 1e-3,
    # Lanczos took 432 forward calls on the input factor
    grid = Grid(3, 16, 16.0)
    b = DriftSpec("constant", vector=[0.2, 0.0, 0.0]).on_grid(grid)
    top = np.abs(grid.k_components[0]) if view == "input_factor" else 1.0
    for zeta, lam in ((complex(3.0, 1.0), 1.0), (complex(C.kappa_d(3) * 1e4, 0.0), 1e4)):
        op = getattr(ResolventAssembly(make_params(p=2.0, zeta=zeta, lam=lam), b), view)()
        calls = counted_calls(op)
        norm = estimate_op_norm(op, 2.0)
        assert calls == {"forward": 1, "adjoint": 0}
        assert norm == pytest.approx(np.max(np.abs(op.symbol)), rel=1e-12, abs=0.0)
        exact = np.sqrt(0.2) * np.max(top / np.abs(zeta + grid.k_squared))
        assert norm == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_p2_loop_norm_zero_field_is_one_forward_call(zero_field16):
    loop = ResolventAssembly(make_params(p=2.0, delta=0.0), zero_field16).loop_factor()
    calls = counted_calls(loop)
    assert estimate_op_norm(loop, 2.0) == 0.0
    assert calls == {"forward": 1, "adjoint": 0}


def test_p2_loop_norm_of_a_field_uniform_but_at_one_node_runs_lanczos(grid8):
    vals = np.zeros((3,) + grid8.shape, dtype=np.complex128)
    vals[0] = 0.2
    uniform = ResolventAssembly(make_params(p=2.0), GridVectorField(grid8, vals.copy())).loop_factor()
    vals[0, 1, 2, 3] = 0.25
    loop = ResolventAssembly(make_params(p=2.0), GridVectorField(grid8, vals)).loop_factor()
    assert uniform.symbol is not None and loop.symbol is None
    calls = counted_calls(loop)
    # measured: 5.5e-4 above the uniform field's norm
    assert 1.0 < estimate_op_norm(loop, 2.0) / estimate_op_norm(uniform, 2.0) < 1.01
    assert calls["forward"] > 1 and calls["adjoint"] > 1


def test_loop_norm_below_delta_at_p2(hardy16):
    # at p = 2 the factor chain bounds the loop norm by the measured delta
    est = estimate_class_F_half(hardy16, lambda_grid=np.logspace(-1, 2, 6))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    pr = ResolventParams(p=2.0, zeta=complex(1.5 * lam, 0.0), delta=delta, lam=lam)
    a = ResolventAssembly(pr, hardy16)
    measured = estimate_op_norm(a.loop_factor(), 2.0, n_starts=16, seed=0)
    assert measured <= delta * (1 + 1e-6)


def test_zeta_decay_along_ray(grid16, hardy16, rng):
    est = estimate_class_F_half(hardy16, lambda_grid=np.logspace(-1, 2, 6))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    from sdlab.constants import C_p_resolvent

    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    cap = C_p_resolvent(2.0, delta, 3) * lp_norm(f, 2)
    for zeta in zeta_ray_grid(lam, 3, n_ray=5, n_real=3):
        pr = ResolventParams(p=2.0, zeta=zeta, delta=delta, lam=lam)
        u = ResolventAssembly(pr, hardy16).apply(f)
        assert abs(zeta) * lp_norm(u, 2) <= cap


def test_strong_convergence_bounded_field(grid16, rng):
    b = DriftSpec("smooth-random", amp=0.3, kmax=1, seed=4).on_grid(grid16)
    sup = b.magnitude().max()
    pr = make_params(delta=0.02, lam=1.0, zeta=complex(2.0, 0.0), p=2.0)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    errs = strong_convergence_study(pr, b, [0.5 * sup, 2.0 * sup], f)
    assert errs[0] > 0
    assert errs[1] == pytest.approx(0.0, abs=1e-13)


def test_mu_uniformity_zero_field_decay(grid16, zero_field16):
    # for b = 0 and smooth f, |mu R(mu) f - f| decays like |Lap f| / mu
    pr = make_params(delta=0.0, lam=0.5, zeta=2.0, p=2.0)
    f = GridFunction.from_callable(grid16, lambda x, y, z: np.sin(2 * np.pi * x / 16.0))
    mus = np.array([4.0, 8.0, 16.0, 32.0])
    curve = [
        lp_norm(mu * ResolventAssembly(pr.with_zeta(mu), zero_field16).apply(f) - f, 2.0) for mu in mus
    ]
    k2 = (2 * np.pi / 16.0) ** 2
    expected = k2 * lp_norm(f, 2.0) / mus
    np.testing.assert_allclose(curve, expected, rtol=0.05)


def test_norm_bound_report_zero_field(grid16, zero_field16):
    pr = make_params(delta=0.0, lam=0.5, p=2.0, zeta=2.0)
    rows = norm_bound_report(pr, zero_field16, n_starts=2)
    assert [r[1] for r in rows if r[0] == "resolvent"] == zeta_ray_grid(0.5, 3)
    for name, zeta, measured, _, _ in rows:
        if name == "resolvent":
            # the free resolvent's 2-norm is 1/min_k |zeta + |k|^2| = 1/|zeta| for Re zeta > 0
            assert measured == pytest.approx(1.0 / abs(zeta), rel=1e-2)
        else:
            assert measured == pytest.approx(0.0, abs=1e-14)
    # at b = 0 the resolvent bound C_p/|zeta| = 1/|zeta| is attained; the rounding slack must pass it
    assert all(r[4] for r in rows)


def test_norm_bound_report_rows(grid16, hardy16):
    est = estimate_class_F_half(hardy16, lambda_grid=np.logspace(-1, 2, 6))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    pr = ResolventParams(p=2.0, zeta=complex(1.5 * lam, 0.0), delta=delta, lam=lam)
    rows = norm_bound_report(pr, hardy16, n_starts=4)
    names = {r[0] for r in rows}
    assert names == {
        "input_factor",
        "output_factor_stated",
        "output_factor_chain",
        "weighted_resolvent",
        "loop_factor",
        "resolvent",
    }
    loop_rows = [r for r in rows if r[0] == "loop_factor"]
    assert len(loop_rows) == len(zeta_ray_grid(lam, 3))
    assert all(r[4] for r in loop_rows)  # measured below the guard bound


@pytest.mark.parametrize("rep", ["direct", "fractional", "split", "symmetric"])
def test_apply_transform_count(count_transforms, rep, hardy16, rng):
    # one forward transform, the spectral solve, one inverse.  The series
    # factorizations make 4k + 4 transforms for k terms in 2k + 2 calls (one
    # call per gradient), 4k + 6 in 2k + 4 in all; symmetric sums on
    # transforms, 4k + 2 in 2k + 2
    pr = make_params(delta=0.05, lam=0.5, p=2.0, zeta=complex(40.0, 0.0))
    a = ResolventAssembly(pr, hardy16, rep)
    terms = []
    neumann = a._neumann

    def recorded(*args, **kwargs):
        total, history = neumann(*args, **kwargs)
        terms.append(len(history))
        return total, history

    a._neumann = recorded
    f = GridFunction(hardy16.grid, rng.standard_normal(hardy16.grid.shape) + 0j)
    counts = count_transforms()
    a.apply(f)
    k = terms[0]
    assert k > 0
    if rep == "symmetric":
        assert (counts["transforms"], counts["calls"]) == (4 * k + 2, 2 * k + 2)
    else:
        assert (counts["transforms"], counts["calls"]) == (4 * k + 6, 2 * k + 4)


def test_neumann_max_terms_raises_with_history(monkeypatch, hardy16, rng):
    monkeypatch.setattr(resolvent, "NEUMANN_KMAX", 2)
    a = ResolventAssembly(make_params(delta=0.05, lam=0.5, p=2.0, zeta=complex(2.0, 0.0)), hardy16)
    g = GridFunction(hardy16.grid, rng.standard_normal(hardy16.grid.shape) + 0j)
    with pytest.raises(NeumannMaxTermsError) as exc:
        a.neumann_inverse(g)
    assert len(exc.value.history) == 2


@pytest.mark.parametrize("rep", ["direct", "fractional", "split", "symmetric"])
def test_zero_field_apply_is_free_resolvent(count_transforms, rep, grid16, zero_field16, rng):
    pr = make_params(delta=0.0, lam=0.5, p=2.0, zeta=complex(2.0, 1.0))
    a = ResolventAssembly(pr, zero_field16, rep)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape))
    free = a.apply_free_resolvent(f).values
    counts = count_transforms()
    out = a.apply(f).values
    assert counts == {"calls": 2, "transforms": 2}
    np.testing.assert_array_equal(out, free)


def test_weight_vec_dtype_follows_drift(hardy16):
    # drifts are real, and so is their weight
    assert ResolventAssembly(make_params(p=2.0), hardy16).weight_vec.dtype == np.float64


@pytest.mark.parametrize("zeta", [3.0, complex(3.0, 1.0)], ids=["real", "complex"])
@pytest.mark.parametrize("rep", ["direct", "fractional", "split", "symmetric"])
def test_real_weight_matches_complex_weight_bit_for_bit(rep, zeta, grid16, hardy16, rng):
    # the twin holds the weights as complex128 with |b|^(1/p) built up front
    pr = make_params(p=2.0, zeta=zeta)
    a = ResolventAssembly(pr, hardy16, rep)
    twin = ResolventAssembly(pr, hardy16, rep)
    twin._held[hardy16, pr.p, "vec"] = twin.weight_vec.astype(np.complex128)
    twin._held[hardy16, pr.p, "in"] = hardy16.magnitude() ** (1.0 / pr.p)
    assert twin.weight_vec.dtype == np.complex128
    v = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
    f = GridFunction(grid16, v)
    np.testing.assert_array_equal(a.apply(f).values, twin.apply(f).values)
    np.testing.assert_array_equal(a._apply_adjoint_values(v), twin._apply_adjoint_values(v))
    for view in ("loop_factor", "weighted_resolvent"):
        op, op_twin = getattr(a, view)(), getattr(twin, view)()
        np.testing.assert_array_equal(op.forward(v), op_twin.forward(v))
        np.testing.assert_array_equal(op.adjoint(v), op_twin.adjoint(v))


def test_weight_in_mag_built_on_first_use(grid16, hardy16, rng):
    pr = make_params(p=2.5)
    a = ResolventAssembly(pr, hardy16)
    v = rng.standard_normal(grid16.shape) + 0j
    a.apply(GridFunction(grid16, v))
    a._apply_adjoint_values(v)
    a.loop_factor().adjoint(v)
    key = (hardy16, pr.p, "in")
    assert key not in a._held
    a.weighted_resolvent().forward(v)
    np.testing.assert_array_equal(a._held[key], hardy16.magnitude() ** 0.4)
    assert a.weight_in_mag is a._held[key]


# the factorization/exponent pairs that the resolve benchmark keeps alive at once
COMBOS = (
    ("direct", 2.0), ("fractional", 2.0), ("split", 2.0), ("symmetric", 2.0),
    ("direct", 2.5), ("fractional", 2.5), ("split", 2.5),
)


def test_assemblies_share_weights_and_symbols(hardy16):
    pr = make_params(p=2.0)
    a = ResolventAssembly(pr, hardy16)
    twin = ResolventAssembly(pr, hardy16, "split")
    assert twin.weight_vec is a.weight_vec and twin.weight_out is a.weight_out
    assert twin._sym(1.0) is a._sym(1.0)
    other_p = ResolventAssembly(make_params(p=2.5), hardy16)
    other_field = ResolventAssembly(pr, hardy16 * 1.0)
    other_zeta = ResolventAssembly(pr.with_zeta(4.0), hardy16)
    for other in (other_p, other_field):
        assert other.weight_vec is not a.weight_vec and other.weight_out is not a.weight_out
    assert other_zeta._sym(1.0) is not a._sym(1.0)
    # weights do not depend on zeta, nor symbols on p or the field
    assert other_zeta.weight_vec is a.weight_vec
    assert other_p._sym(1.0) is a._sym(1.0) and other_field._sym(1.0) is a._sym(1.0)
    with pytest.raises(ValueError):  # a shared array is read-only
        a.weight_vec[0, 0, 0, 0] = 1.0


def test_shared_entries_live_only_as_long_as_their_assemblies(grid16, hardy16, rng):
    gc.collect()
    before = set(resolvent._SHARED.keys())
    b = hardy16 * 0.5
    asm = [ResolventAssembly(make_params(p=p, zeta=7.0), b, rep) for rep, p in COMBOS]
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape))
    for a in asm:
        a.apply(f)
        a.weighted_resolvent().forward(f.values)
    made = set(resolvent._SHARED.keys()) - before
    # weight_vec, weight_out and weight_in_mag at two p; the grid's levels and
    # index; level tables of 12 distinct exponents; kept symbols of 1, 1/4, 3/4
    assert len(made) == 23
    # each entry is held by the assemblies' one lookup, and by nothing else
    assert set().union(*(a._held for a in asm)) == made
    del asm, a
    gc.collect()
    assert not made & set(resolvent._SHARED.keys())


def test_neumann_sums_in_place_to_the_explicit_series(grid16, hardy16, rng):
    a = ResolventAssembly(make_params(p=2.5), hardy16)
    g = GridFunction(grid16, rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape))
    kept = g.values.copy()
    out, history = a.neumann_inverse(g)
    np.testing.assert_array_equal(g.values, kept)
    total, term = kept.copy(), kept
    for _ in history:
        term = -a._loop_values(term)
        total = total + term
    np.testing.assert_array_equal(out.values, total)


def test_resolve_combos_hold_one_copy_per_array():
    # the seven combos over one 32^3 field and zeta, each applied once, hold
    # 2 weight sets, the level index, 12 level tables and 3 kept symbols:
    # 3.94 MiB; with 12 symbol arrays they held 8.0 MiB, and with one copy per
    # assembly 16.0 MiB
    grid = Grid(3, 32, 16.0)
    b = DriftSpec("hardy", c=0.2).on_grid(grid)
    rng = np.random.default_rng(0)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    zeta = zeta_ray_grid(0.1, 3, n_ray=2, n_real=0)[1]
    gc.collect()
    tracemalloc.start()
    try:
        asm = [ResolventAssembly(make_params(p=p, zeta=zeta, lam=0.1), b, rep) for rep, p in COMBOS]
        for a in asm:
            a.apply(f)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 4 * 2**20


def test_direct_solve_holds_five_arrays_above_its_assembly():
    # the transform of f (then S vhat), the series sum, the three-slot stack
    # that holds the term and the p-norm's |v|^p; the output reuses freed
    # ones.  The series kept eight before it ran in place, and six while the
    # p-norm allocated |v| and |v|^p.
    grid = Grid(3, 32, 16.0)
    b = DriftSpec("hardy", c=0.2).on_grid(grid)
    rng = np.random.default_rng(1)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    a = ResolventAssembly(make_params(p=2.0, zeta=complex(2.0, 1.0), lam=0.1), b)
    a.apply(f)  # looks up every array the assembly holds
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = a.apply(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.values.nbytes == 2**19
    assert peak - base <= 5 * 2**19 + 2**18


def test_adjoint_solve_holds_five_arrays_above_its_assembly():
    # the adjoint of test_direct_solve_holds_five_arrays_above_its_assembly:
    # free* (its transform, then the output), the series sum and the
    # three-slot stack; conj(S) is the assembly's, and a real weight_vec is
    # read in place.  Measured: 5.27 arrays (6.01 while each term formed conj(S)).
    grid = Grid(3, 32, 16.0)
    b = DriftSpec("hardy", c=0.2).on_grid(grid)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    a = ResolventAssembly(make_params(p=2.0, zeta=complex(2.0, 1.0), lam=0.1), b)
    a._apply_adjoint_values(f)  # looks up every array the assembly holds
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = a._apply_adjoint_values(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.nbytes == 2**19
    assert peak - base <= 5 * 2**19 + 2**18


def test_adjoint_symbol_is_gathered_on_first_adjoint_use():
    # conj(S) is one shared array, built by the first adjoint, never by a forward solve
    grid = Grid(3, 8, 6.0)
    zeta = complex(2.25, 0.75)
    b = DriftSpec("hardy", c=0.2).on_grid(grid)
    a = ResolventAssembly(make_params(p=2.5, zeta=zeta), b)
    f = np.random.default_rng(4).standard_normal(grid.shape) + 0j
    a.apply(GridFunction(grid, f))
    a.loop_factor()(f)
    gc.collect()
    key = (grid, zeta, 1.0, "conj")
    assert key not in resolvent._SHARED
    a._apply_adjoint_values(f)
    conj = resolvent._SHARED[key]
    assert conj.tobytes() == np.conj(a._sym(1.0)).tobytes()
    assert ResolventAssembly(make_params(p=2.0, zeta=zeta), b)._sym_conj() is conj


def test_split_post_chain_gathers_its_half_power_once(grid8, monkeypatch):
    # split's post chain is (1/2, 1/2): one gathered S^(1/2), applied twice
    b = DriftSpec("hardy", c=0.2).on_grid(grid8)
    a = ResolventAssembly(make_params(p=2.0, zeta=complex(2.0, 1.0), lam=0.1), b, "split")
    f = GridFunction(grid8, np.random.default_rng(3).standard_normal(grid8.shape) + 0j)
    want = a.apply(f).values
    calls = []
    sym = ResolventAssembly._sym

    def counted(self, alpha):
        calls.append(float(alpha))
        return sym(self, alpha)

    monkeypatch.setattr(ResolventAssembly, "_sym", counted)
    got = a.apply(f).values
    assert calls.count(0.5) == 1
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("zeta, rep", [(complex(3.0, 1.0), "direct"), (3.0, "symmetric")], ids=["zeta", "symmetric"])
def test_real_lane_refuses_complex_operators(grid8, zeta, rep):
    a = ResolventAssembly(make_params(p=2.0, zeta=zeta), DriftSpec("hardy", c=0.2).on_grid(grid8), rep)
    with pytest.raises(ValueError, match="real lane"):
        a.apply_spectral_real(fftn(np.ones(grid8.shape)))


@pytest.mark.parametrize("rep", ["direct", "fractional", "split", "symmetric"])
def test_spectral_step_writes_into_its_argument(rep):
    # apply_spectral returns the caller's transform, overwritten: a step
    # allocates the stack, whose last slot takes the p-norm's |v|^p, and the
    # series sum, four arrays; it took five with the norm's own temporaries,
    # and six while it wrote S vhat into an array of its own
    grid = Grid(3, 32, 16.0)
    b = DriftSpec("hardy", c=0.2).on_grid(grid)
    rng = np.random.default_rng(2)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    a = ResolventAssembly(make_params(p=2.0, zeta=complex(2.0, 1.0), lam=0.1), b, rep)
    want = a.apply(f).values  # looks up every array the assembly holds
    vhat = fftn(f.values)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = a.apply_spectral(vhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is vhat
    assert peak - base <= 4 * 2**19 + 2**18
    np.testing.assert_array_equal(ifftn(out), want)


@pytest.mark.parametrize("zeta", [7.0, complex(3.0, 1.0)], ids=["real", "complex"])
@pytest.mark.parametrize("d,n", [(3, 8), (3, 16), (3, 32), (4, 12)])
def test_gathered_symbols_equal_the_power_bit_for_bit(d, n, zeta):
    grid = Grid(d, n, 16.0)
    b = GridVectorField.zeros(grid)
    for rep, p in COMBOS:
        a = ResolventAssembly(make_params(p=p, zeta=zeta, d=d), b, rep)
        pre, post = a.chains
        for alpha in {1.0, *pre, *post} | ({0.25, 0.75} if rep == "symmetric" else set()):
            sym = a._sym(alpha)
            assert sym.tobytes() == np.power(complex(zeta) + grid.k_squared, -alpha).tobytes()
            # a series exponent's symbol is kept; a chain exponent's is gathered per use
            assert (a._sym(alpha) is sym) == (alpha in a._series_exponents)


def assert_matches_dense_solve(b, f, p, reps):
    zeta = complex(2.5, 1.0)
    M = zeta * np.eye(b.grid.node_count()) + dense_generator(b.grid, b)
    want = np.linalg.solve(M, f.values.ravel()).reshape(b.grid.shape)
    for rep in reps:
        u = ResolventAssembly(make_params(p=p, zeta=zeta), b, rep).apply(f).values
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u - want)) / np.max(np.abs(want)) < 1e-8


DRIFT_ZEROS_CASES = pytest.mark.parametrize(
    "p,reps", [(2.0, ("direct", "fractional", "split", "symmetric")), (2.5, ("direct", "fractional", "split"))]
)


@DRIFT_ZEROS_CASES
def test_drift_with_zeros_on_nodes_matches_dense_solve(grid8, random_f8, p, reps):
    # |b| = 0 on the four node lines x, y in {0, pi}, and b_z = 0 everywhere:
    # the weights' removable singularity is filled by 0, never NaN
    profile = 0.3 * np.sin(grid8.x_axis)
    profile[::4] = 0.0
    vals = np.zeros((3,) + grid8.shape, dtype=np.complex128)
    vals[0] = profile[:, None, None]
    vals[1] = profile[None, :, None]
    b = GridVectorField(grid8, vals)
    assert np.count_nonzero(b.magnitude() == 0.0) == 32
    assert_matches_dense_solve(b, random_f8, p, reps)


@DRIFT_ZEROS_CASES
def test_drift_with_an_isolated_zero_matches_dense_solve(grid8, random_f8, p, reps):
    # b_j = 0.3 sin(x_j - c) + 0.15 (1 - cos(x_j - c)) vanishes only where
    # every x_j = c: |b| = 0 at a single node, on no node line
    c = grid8.x_axis[3]
    vals = np.array([0.3 * np.sin(x - c) + 0.15 * (1.0 - np.cos(x - c)) for x in grid8.coordinates()])
    b = GridVectorField(grid8, vals)
    assert np.argwhere(b.magnitude() == 0.0).tolist() == [[3, 3, 3]]
    assert_matches_dense_solve(b, random_f8, p, reps)


@pytest.mark.parametrize("p", [2.5, 3.0])
def test_guard_at_exactly_one_raises_and_one_ulp_below_does_not(p):
    delta = 1.0 / (C.m_d(3) * C.c_p(p))
    assert C.neumann_guard_value(p, delta, 3) == 1.0
    with pytest.raises(GuardViolationError):
        ResolventParams(p=p, zeta=10.0, delta=delta, lam=1.0)
    below = ResolventParams(p=p, zeta=10.0, delta=np.nextafter(delta, 0.0), lam=1.0)
    assert below.guard_value < 1.0


@pytest.mark.parametrize("im", [0.0, 1.0], ids=["real", "complex"])
def test_zeta_on_the_half_plane_floor_is_accepted(grid8, bounded_field8, random_f8, im):
    lam = 0.5
    floor = C.kappa_d(3) * lam
    params = ResolventParams(p=2.0, zeta=complex(floor, im * floor), delta=0.05, lam=lam)
    u = ResolventAssembly(params, bounded_field8).apply(random_f8).values
    assert np.all(np.isfinite(u))
    with pytest.raises(SpectralDomainError):
        ResolventParams(p=2.0, zeta=complex(floor * (1.0 - 2e-12), im * floor), delta=0.05, lam=lam)


def slab_outputs(grid, p, zeta, f):
    """Every solve output of the property test below, as bytes."""
    b = DriftSpec("hardy", c=0.2).on_grid(grid)
    params = make_params(p=p, zeta=zeta, d=grid.d)
    out = []
    for rep in resolvent.REPRESENTATIONS if p == 2.0 else ("direct", "fractional", "split"):
        a = ResolventAssembly(params, b, rep)
        out += [a.apply(f).values, a.apply_spectral(fftn(f.values))]
    a = ResolventAssembly(params, b)
    w, history = a.neumann_inverse(f)
    out += [a.resolvent_op().adjoint(f.values), w.values, np.array(history)]
    out.append(evolve(SemigroupParams(1.0, 4), params, b, f).values)
    return [x.tobytes() for x in out]


@given(n=st.sampled_from([6, 8, 10]), d=st.sampled_from([3, 4]), p=st.sampled_from([2.0, 2.5]),
       zeta=st.sampled_from([3.0, complex(3.0, 1.0)]), workers=st.sampled_from([2, 3]))
def test_slab_passes_match_one_worker_bit_for_bit(n, d, p, zeta, workers):
    # every grid size takes the slab path here; 3 workers do not divide 8 or 10 planes
    grid = Grid(d, n, 16.0)
    rng = np.random.default_rng(n + d)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    saved = fft_workers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "THREADED_MIN_NODES", 1)
        try:
            set_fft_workers(1)
            one = slab_outputs(grid, p, zeta, f)
            set_fft_workers(workers)
            assert slab_outputs(grid, p, zeta, f) == one
        finally:
            set_fft_workers(saved)


@given(n=st.sampled_from([6, 8]), d=st.sampled_from([3, 4]), p=st.sampled_from([2.0, 2.5]),
       zeta=st.sampled_from([3.0, complex(3.0, 1.0), complex(3.0, -2.0)]),
       amp=st.sampled_from([0.0, 0.1, 0.3]), holes=st.booleans(), seed=st.integers(0, 2**16))
def test_views_satisfy_the_adjoint_identity(n, d, p, zeta, amp, holes, seed):
    # <A x, y> = <x, A* y> on a random real drift, zeroed on about half the nodes with holes
    grid = Grid(d, n, 8.0)
    rng = np.random.default_rng(seed)
    vals = amp * rng.standard_normal((d,) + grid.shape)
    if holes:
        vals *= rng.random(grid.shape) < 0.5
    a = ResolventAssembly(make_params(p=p, zeta=zeta, d=d), GridVectorField(grid, vals))
    x, y = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape) for _ in range(2))
    for view in ("input_factor", "output_factor", "loop_factor", "weighted_resolvent", "resolvent_op"):
        op = getattr(a, view)()
        ax, ay = op.forward(x), op.adjoint(y)
        gap = abs(np.vdot(y, ax) - np.vdot(ay, x))
        assert gap <= 1e-9 * np.linalg.norm(ax) * np.linalg.norm(y) + 1e-300, view
