import numpy as np
import pytest
from scipy.integrate import quad

from dense_oracles import dense_class_delta, kato_column_norm
from sdlab.errors import GuardViolationError, PowerIterationError
from sdlab.fields import (
    DriftSpec,
    build_bn_tilde,
    drift_from_config,
    estimate_class_F,
    estimate_class_F_half,
    estimate_class_K,
    guarded_pair,
    kato_column_norms,
    mollify,
    truncate,
)
from sdlab.grid import Grid, GridFunction, GridVectorField, lp_norm


def const_field(grid, vec):
    return DriftSpec("constant", vector=vec).on_grid(grid)


def test_drift_config_roundtrip():
    spec = drift_from_config({"kind": "sum", "terms": [{"kind": "hardy", "c": 0.3},
                                                       {"kind": "constant", "vector": [0.1, 0, 0]}]})
    cfg = spec.as_config()
    assert cfg["kind"] == "sum" and cfg["terms"][0]["kind"] == "hardy"
    with pytest.raises(ValueError):
        DriftSpec("vortex")


def test_hardy_samples_are_finite_and_inverse_distance(grid16):
    spec = DriftSpec("hardy", c=0.2)
    b = spec.on_grid(grid16)
    mag = b.magnitude()
    assert np.isfinite(mag).all()
    x0 = spec.singular_point(grid16)
    pts = np.array([x0 + [1.0, 0, 0], x0 + [0, 2.5, 0]])
    vals = spec.evaluate(pts, grid16)
    np.testing.assert_allclose(np.linalg.norm(vals, axis=1), [0.2 / 1.0, 0.2 / 2.5], rtol=1e-12)


def test_truncate_examples(grid16, hardy16):
    small = const_field(grid16, [0.1, 0.0, 0.0])
    np.testing.assert_allclose(truncate(small, 5.0).values, small.values)
    level = 0.2
    bn = truncate(hardy16, level)
    mag, magn = hardy16.magnitude(), bn.magnitude()
    assert magn.max() <= level * (1 + 1e-12)
    capped = mag > level
    np.testing.assert_allclose(magn[capped], level, rtol=1e-12)
    np.testing.assert_allclose(bn.values[:, ~capped], hardy16.values[:, ~capped])
    # direction preserved where capped
    dots = np.sum((bn.values * np.conj(hardy16.values)).real, axis=0)
    assert (dots >= -1e-14).all()


def test_truncation_error_monotone(hardy16):
    levels = [0.05, 0.1, 0.2, 0.4, 1.0]
    errs = [
        lp_norm(GridFunction(hardy16.grid, (hardy16.values - truncate(hardy16, lev).values)[0]), 1)
        for lev in levels
    ]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] == 0.0  # level above the grid sup


def test_mollify_constant_unchanged(grid16):
    b = const_field(grid16, [0.3, -0.1, 0.2])
    out = mollify(b, 3 * grid16.h)
    np.testing.assert_allclose(out.values, b.values, atol=1e-10)


def test_mollify_single_mode_second_order():
    g = Grid(3, 32, 2 * np.pi)
    vals = np.zeros((3,) + g.shape, dtype=np.complex128)
    vals[0] = np.sin(g.coordinates()[0])
    b = GridVectorField(g, vals)
    errs = []
    for eps in (8 * g.h, 4 * g.h):
        out = mollify(b, eps)
        errs.append(np.max(np.abs(out.values - b.values)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_mollified_hardy_magnitude_bound():
    # |eta_eps * b| <= (c/eps) * integral eta(z) |z|^(-1) dz for the
    # inverse-distance field; the right side is a 1d radial quadrature
    g = Grid(3, 32, 16.0)
    c = 0.2
    b = DriftSpec("hardy", c=c).on_grid(g)
    norm_const, _ = quad(lambda r: np.exp(1.0 / (r * r - 1.0)) * 4 * np.pi * r * r, 0, 1)
    moment, _ = quad(lambda r: np.exp(1.0 / (r * r - 1.0)) * 4 * np.pi * r, 0, 1)
    bound_factor = moment / norm_const
    for eps in (2.0, 3.0):
        out = mollify(b, eps)
        assert out.magnitude().max() <= (c / eps) * bound_factor * 1.10


def test_mollify_rejects_unresolved_width(grid16):
    b = const_field(grid16, [1.0, 0, 0])
    with pytest.raises(ValueError):
        mollify(b, 0.5 * grid16.h)
    with pytest.raises(ValueError):
        mollify(b, -1.0)


def test_estimators_constant_field_closed_forms():
    g = Grid(3, 8, 8.0)
    c = 0.7
    b = const_field(g, [c, 0.0, 0.0])
    lams = np.array([0.5, 2.0, 50.0])
    half = estimate_class_F_half(b, lambda_grid=lams)
    np.testing.assert_allclose(half.delta_curve, c / np.sqrt(lams), rtol=1e-13)
    full = estimate_class_F(b, lambda_grid=lams)
    np.testing.assert_allclose(full.delta_curve, c * c / lams, rtol=1e-13)
    # 1->1 norms carry the Gibbs ringing of the truncated kernel, so they
    # track c/sqrt(lam) only for lam resolved by the grid, and from above
    g16 = Grid(3, 16, 8.0)
    b16 = const_field(g16, [c, 0.0, 0.0])
    lams_res = np.array([0.5, 2.0])
    kato = estimate_class_K(b16, lambda_grid=lams_res)
    assert (kato.delta_curve >= c / np.sqrt(lams_res) * (1 - 1e-9)).all()
    np.testing.assert_allclose(kato.delta_curve, c / np.sqrt(lams_res), rtol=0.05)


def test_estimators_zero_field(monkeypatch):
    import scipy.sparse.linalg

    g = Grid(3, 8, 8.0)
    b = GridVectorField.zeros(g)
    # a zero weight is uniform: one matvec, no Lanczos
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", None)
    assert estimate_class_F_half(b, lambda_grid=[1.0]).delta == 0.0
    assert estimate_class_F(b, lambda_grid=[1.0]).delta == 0.0
    assert estimate_class_K(b, lambda_grid=[1.0]).delta == pytest.approx(0.0, abs=1e-12)


def test_estimator_nonconvergence_raises(monkeypatch):
    import scipy.sparse.linalg

    def stall(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stall)
    b = DriftSpec("hardy", c=0.3).on_grid(Grid(3, 8, 8.0))
    with pytest.raises(PowerIterationError):
        estimate_class_F_half(b, lambda_grid=[1.0])


@pytest.mark.parametrize("fn", [estimate_class_F, estimate_class_F_half])
def test_estimator_matvec_costs_one_fft_pair(monkeypatch, fn):
    import scipy.sparse.linalg
    from sdlab import fields

    counts = {"fft": 0, "matvec": 0, "eigsh": 0}
    real_eigsh = scipy.sparse.linalg.eigsh

    def counted_fft(transform):
        def wrapped(values, **kwargs):
            counts["fft"] += 1
            return transform(values, **kwargs)

        return wrapped

    def counted_eigsh(op, **kwargs):
        counts["eigsh"] += 1

        def matvec(x):
            counts["matvec"] += 1
            return op.matvec(x)

        counted = scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        return real_eigsh(counted, **kwargs)

    monkeypatch.setattr(fields, "fftn", counted_fft(fields.fftn))
    monkeypatch.setattr(fields, "ifftn", counted_fft(fields.ifftn))
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted_eigsh)
    fn(DriftSpec("hardy", c=0.3).on_grid(Grid(3, 8, 8.0)), lambda_grid=[1.0])
    assert counts["matvec"] > 0
    assert counts["fft"] == 2 * counts["matvec"]
    # a constant field: one matvec, two transforms, per lambda, and no Lanczos
    counts.update(fft=0, matvec=0, eigsh=0)
    b = const_field(Grid(3, 8, 8.0), [0.3, 0.0, 0.1])
    fn(b, lambda_grid=[0.1, 1.0, 1e4])
    assert counts == {"fft": 6, "matvec": 0, "eigsh": 0}
    # uniform but at one node: Lanczos
    counts.update(fft=0, matvec=0, eigsh=0)
    vals = b.values.copy()
    vals[0, 5, 1, 2] = 0.35
    fn(GridVectorField(b.grid, vals), lambda_grid=[2.0])
    assert counts["eigsh"] == 1 and counts["matvec"] > 1
    assert counts["fft"] == 2 * counts["matvec"]


@pytest.mark.parametrize("lams", [[0.0, 1.0], [-1.0, 1.0], []], ids=["zero", "negative", "empty"])
@pytest.mark.parametrize("estimator", [estimate_class_F_half, estimate_class_F, estimate_class_K])
def test_class_estimators_reject_a_nonpositive_or_empty_lambda_grid(estimator, lams):
    # at lam <= 0 the zero mode makes (lam - Lap)^(-alpha) infinite on the torus
    with pytest.raises(ValueError, match="^lambda_grid: "):
        estimator(DriftSpec("hardy", c=0.2).on_grid(Grid(3, 8, 8.0)), lambda_grid=lams)


def test_estimator_scaling():
    g = Grid(3, 16, 8.0)
    b = DriftSpec("hardy", c=0.1).on_grid(g)
    b2 = 3.0 * b
    lams = np.array([1.0])
    s_half = estimate_class_F_half(b2, lambda_grid=lams).delta / estimate_class_F_half(b, lambda_grid=lams).delta
    s_full = estimate_class_F(b2, lambda_grid=lams).delta / estimate_class_F(b, lambda_grid=lams).delta
    s_kato = estimate_class_K(b2, lambda_grid=lams).delta / estimate_class_K(b, lambda_grid=lams).delta
    assert s_half == pytest.approx(3.0, rel=1e-6)
    assert s_full == pytest.approx(9.0, rel=1e-6)
    assert s_kato == pytest.approx(3.0, rel=1e-9)


def test_f_half_dense_eigensolver_oracle(grid8):
    b = DriftSpec("hardy", c=0.3).on_grid(grid8)
    est = estimate_class_F_half(b, lambda_grid=[2.0])
    assert est.delta == pytest.approx(dense_class_delta(grid8, b.magnitude(), 2.0, 0.25, 1), rel=1e-6)


def test_f_dense_eigensolver_oracle(grid8):
    b = DriftSpec("hardy", c=0.3).on_grid(grid8)
    est = estimate_class_F(b, lambda_grid=[2.0])
    assert est.delta == pytest.approx(dense_class_delta(grid8, b.magnitude(), 2.0, 0.5, 2), rel=1e-6)


@pytest.mark.parametrize("seed", [0, 15])
@pytest.mark.parametrize("cls", ["F", "F_half"])
def test_dense_eigensolver_oracle_clustered_field(cls, seed):
    # on this field an iteration stopped by the change of its Ritz value
    # missed the dense top eigenvalue by 7.6e-6 (F) and 4.0e-6 (F_half)
    g = Grid(3, 8, 8.0)
    b = DriftSpec("smooth-random", amp=0.2, kmax=1, seed=1303609901).on_grid(g)
    lam = 10 ** 1.2
    fn, alpha, power = (estimate_class_F, 0.5, 2) if cls == "F" else (estimate_class_F_half, 0.25, 1)
    est = fn(b, lambda_grid=[lam], seed=seed)
    assert est.delta == pytest.approx(dense_class_delta(g, b.magnitude(), lam, alpha, power), rel=1e-6)


def test_truncated_delta_not_larger(hardy16):
    lam = [1.0]
    full = estimate_class_F_half(hardy16, lambda_grid=lam).delta
    trunc = estimate_class_F_half(truncate(hardy16, 0.1), lambda_grid=lam).delta
    assert trunc <= full * (1 + 1e-8)


def test_kato_column_consistency():
    g = Grid(3, 8, 8.0)
    b = DriftSpec("smooth-random", amp=0.2, kmax=1, seed=3).on_grid(g)
    cols = kato_column_norms(b, 1.5)
    direct = kato_column_norm(g, b.magnitude(), 1.5, (2, 5, 1))
    assert cols[2, 5, 1] == pytest.approx(direct, rel=1e-10)


def delta_at(estimator, b, lam):
    return estimator(b, lambda_grid=np.array([lam])).delta


def test_inclusion_constant_field_equalities():
    g = Grid(3, 16, 8.0)
    b = const_field(g, [0.4, 0.0, 0.0])
    half = delta_at(estimate_class_F_half, b, 0.5)
    delta_F = delta_at(estimate_class_F, b, 0.5)
    delta_K = delta_at(estimate_class_K, b, 0.5)
    assert half <= np.sqrt(delta_F) * 1.05 and half <= delta_K * 1.05
    assert half == pytest.approx(np.sqrt(delta_F), rel=1e-5)
    # the 1->1 side rides slightly above the continuum equality (kernel ringing)
    assert half == pytest.approx(delta_K, rel=0.01)


def test_inclusion_zero_field():
    g = Grid(3, 8, 8.0)
    half = delta_at(estimate_class_F_half, GridVectorField.zeros(g), 1.0)
    assert half == pytest.approx(0.0, abs=1e-12)


def test_inclusion_sum_rule_hardy_plus_sphere(grid32):
    b1 = DriftSpec("hardy", c=0.15).on_grid(grid32)
    b2 = DriftSpec("sphere", beta=0.5, amp=0.1).on_grid(grid32)
    total = GridVectorField(grid32, b1.values + b2.values)
    half = estimate_class_F_half(total, lambda_grid=np.logspace(-1, 2, 4))
    lam = half.lam
    assert half.delta <= np.sqrt(delta_at(estimate_class_F, total, lam)) * 1.05
    assert half.delta <= delta_at(estimate_class_K, total, lam) * 1.05
    # b = b1 + b2: sqrt(delta_half(b)) <= delta_F(b1)^(1/4) + sqrt(delta_K(b2))
    rhs = delta_at(estimate_class_F, b1, lam) ** 0.25 + np.sqrt(delta_at(estimate_class_K, b2, lam))
    assert np.sqrt(half.delta) <= rhs * 1.05


def test_guarded_pair(hardy16):
    est = estimate_class_F_half(hardy16, lambda_grid=np.logspace(-2, 2, 8))
    delta, lam = guarded_pair(est, p=2.0, d=3, margin=0.7)
    from sdlab.constants import neumann_guard_value

    assert neumann_guard_value(2.0, delta, 3) <= 0.7
    assert lam <= est.lam
    with pytest.raises(GuardViolationError):
        guarded_pair(est, p=2.0, d=3, margin=1e-9)


def test_build_bn_tilde_smooth_field_keeps_estimate():
    g = Grid(3, 16, 8.0)
    b = DriftSpec("smooth-random", amp=0.1, kmax=1, seed=2).on_grid(g)
    base = estimate_class_F_half(b, lambda_grid=np.logspace(-1, 3, 6)).delta
    smoothed, eps, est = build_bn_tilde(b, level=10.0, delta_tilde=base * 1.05)
    assert est.delta <= base * 1.05
    assert eps >= g.h


def test_build_bn_tilde_hardy_meets_target():
    g = Grid(3, 16, 8.0)
    b = DriftSpec("hardy", c=0.2).on_grid(g)
    target = 0.08
    smoothed, eps, est = build_bn_tilde(b, level=2.0, delta_tilde=target)
    assert est.delta <= target
    assert smoothed.magnitude().max() <= b.magnitude().max() * (1 + 1e-9)
