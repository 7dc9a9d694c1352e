import numpy as np
import pytest

from dense_oracles import (
    apply_dense,
    dense_generator,
    dense_input_factor,
    dense_loop_factor,
    dense_output_factor,
    dense_weighted_resolvent,
    dft_matrix,
)
from sdlab.errors import (
    GuardViolationError,
    NeumannDivergenceError,
    SpectralDomainError,
)
from sdlab.fields import DriftSpec, estimate_class_F_half, guarded_pair
from sdlab.grid import Grid, GridFunction, GridVectorField, lp_norm
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


def make_params(delta=0.05, lam=1.0, p=2.5, zeta=None, **kw):
    zeta = complex(3.0, 1.0) if zeta is None else zeta
    return ResolventParams(p=p, zeta=zeta, delta=delta, lam=lam, **kw)


def test_params_validation():
    with pytest.raises(GuardViolationError):
        ResolventParams(p=2.0, zeta=10.0, delta=0.9, lam=1.0)  # m_d * 0.9 > 1
    with pytest.raises(SpectralDomainError):
        ResolventParams(p=2.0, zeta=1.0, delta=0.05, lam=2.0)  # Re zeta < kappa_d lam
    with pytest.raises(ValueError):
        ResolventParams(p=2.0, zeta=10.0, delta=0.05, lam=1.0, r=2.5, q=3.0)
    pr = make_params()
    assert pr.guard_value < 1.0
    assert 1.0 <= pr.r < pr.p < pr.q


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
    est = estimate_class_F_half(hardy16, lambda_grid=np.logspace(-1, 2, 6))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    pr = ResolventParams(p=2.0, zeta=complex(2.0 * lam, lam), delta=delta, lam=lam)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape))
    outs = {
        rep: ResolventAssembly(pr, hardy16, rep).apply(f)
        for rep in ("direct", "fractional", "split", "symmetric")
    }
    scale = lp_norm(outs["direct"], 2)
    for rep in ("fractional", "split", "symmetric"):
        assert lp_norm(outs[rep] - outs["direct"], 2) / scale < 1e-8


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


def test_p2_loop_norm_constant_field_closed_form(grid16):
    # a constant drift makes the loop factor the multiplier i c.k / (zeta + |k|^2)
    c = np.array([0.2, 0.0, 0.0])
    b = DriftSpec("constant", vector=list(c)).on_grid(grid16)
    zeta = complex(3.0, 1.0)
    a = ResolventAssembly(make_params(p=2.0, zeta=zeta), b)
    ck = sum(cj * kj for cj, kj in zip(c, grid16.k_components))
    exact = np.max(np.abs(ck / (zeta + grid16.k_squared)))
    assert estimate_op_norm(a.loop_factor(), 2.0) == pytest.approx(exact, rel=1e-9)


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


def _count_transforms(monkeypatch):
    from sdlab import resolvent

    counts = {"fft": 0}

    def counted(transform):
        def wrapped(values):
            counts["fft"] += 1
            return transform(values)

        return wrapped

    monkeypatch.setattr(resolvent, "fftn", counted(resolvent.fftn))
    monkeypatch.setattr(resolvent, "ifftn", counted(resolvent.ifftn))
    return counts


def test_direct_apply_transform_count(monkeypatch, hardy16, rng):
    # free term and input factor share one forward transform: 4k + 7 for k terms
    pr = make_params(delta=0.05, lam=0.5, p=2.0, zeta=complex(40.0, 0.0))
    a = ResolventAssembly(pr, hardy16)
    terms = []
    neumann = a._neumann

    def recorded(*args, **kwargs):
        total, history = neumann(*args, **kwargs)
        terms.append(len(history))
        return total, history

    a._neumann = recorded
    f = GridFunction(hardy16.grid, rng.standard_normal(hardy16.grid.shape) + 0j)
    counts = _count_transforms(monkeypatch)
    a.apply(f)
    assert terms[0] > 0
    assert counts["fft"] == 4 * terms[0] + 7


@pytest.mark.parametrize("rep", ["direct", "fractional", "split", "symmetric"])
def test_zero_field_apply_is_free_resolvent(monkeypatch, rep, grid16, zero_field16, rng):
    pr = make_params(delta=0.0, lam=0.5, p=2.0, zeta=complex(2.0, 1.0))
    a = ResolventAssembly(pr, zero_field16, rep)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape))
    free = a.apply_free_resolvent(f).values
    counts = _count_transforms(monkeypatch)
    out = a.apply(f).values
    assert counts["fft"] == 2
    np.testing.assert_array_equal(out, free)


def test_weight_vec_dtype_follows_drift(hardy16):
    pr = make_params(p=2.0)
    assert ResolventAssembly(pr, hardy16).weight_vec.dtype == np.float64
    assert ResolventAssembly(pr, hardy16 * (1.0 + 0.5j)).weight_vec.dtype == np.complex128


@pytest.mark.parametrize("zeta", [3.0, complex(3.0, 1.0)], ids=["real", "complex"])
@pytest.mark.parametrize("rep", ["direct", "fractional", "split", "symmetric"])
def test_real_weight_matches_complex_weight_bit_for_bit(rep, zeta, grid16, hardy16, rng):
    # the twin holds the weights as complex128 with |b|^(1/p) built up front
    pr = make_params(p=2.0, zeta=zeta)
    a = ResolventAssembly(pr, hardy16, rep)
    twin = ResolventAssembly(pr, hardy16, rep)
    twin.weight_vec = twin.weight_vec.astype(np.complex128)
    twin.weight_in_mag = hardy16.magnitude() ** (1.0 / pr.p)
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
    assert "weight_in_mag" not in vars(a)
    a.weighted_resolvent().forward(v)
    np.testing.assert_array_equal(vars(a)["weight_in_mag"], hardy16.magnitude() ** 0.4)
