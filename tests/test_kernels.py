import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import yukawa_gradient_magnitude
from kernel_reference import _log_integral as reference_integral
from sdlab.fields import DriftSpec
from sdlab.grid import GridFunction
from sdlab.kernels import (
    UNDERFLOW_FLOOR,
    KernelProbe,
    _log_integral,
    check_complex_domination,
    check_fractional_gradient_domination,
    check_fractional_power_identity,
    check_gradient_domination,
    grad_kernel_value,
    kernel_value,
    truncation_l1_curve,
    yukawa_value,
)
from sdlab.kernels import grad_kernel_magnitude


def probe(r, zeta, gamma=2.0, d=3):
    return KernelProbe(d, (0.0, 0.0, 0.0), (r, 0.0, 0.0), zeta, gamma)


def test_probe_validation():
    with pytest.raises(ValueError):
        probe(1.0, -1.0)
    with pytest.raises(ValueError):
        probe(1.0, 1.0, gamma=2.5)
    with pytest.raises(ValueError):
        probe(0.0, 1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["zeta", "x", "y"])
def test_probe_rejects_non_finite_fields(name, value):
    # a NaN zeta passes the Re zeta > 0 check as False, and its kernel would be NaN
    fields = {"d": 3, "x": (0.0, 0.0, 0.0), "y": (1.0, 0.0, 0.0), "zeta": 2.0, "gamma": 1.0}
    fields[name] = value if name == "zeta" else (0.5, value, 0.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        KernelProbe(**fields)


def test_yukawa_closed_form_sweep():
    for r in np.logspace(-1, 1, 9):
        for zeta in (0.3, 1.0, 7.0):
            got = kernel_value(probe(r, zeta))
            want = yukawa_value(r, zeta)
            assert abs(got - want) / abs(want) < 1e-9


def test_yukawa_point_values():
    # e^-1/(4 pi) and its radial derivative magnitude e^-1 * 2 / (4 pi)
    v = kernel_value(probe(1.0, 1.0))
    assert v.real == pytest.approx(np.exp(-1) / (4 * np.pi), rel=1e-10)
    gm = grad_kernel_magnitude(probe(1.0, 1.0))
    assert gm == pytest.approx(np.exp(-1) * 2.0 / (4 * np.pi), rel=1e-10)
    assert gm == pytest.approx(yukawa_gradient_magnitude(1.0, 1.0), rel=1e-10)


def test_gradient_vector_direction():
    vec = grad_kernel_value(probe(1.5, 2.0))
    # kernel decreases away from the source at y = (1.5, 0, 0), so the
    # x-gradient at the origin points toward y (positive first component)
    assert vec[0].real > 0
    assert abs(vec[1]) < 1e-15 and abs(vec[2]) < 1e-15


def test_kernel_decay_and_monotonicity():
    vals = [kernel_value(probe(r, 1.0, gamma=1.2)).real for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
    assert kernel_value(probe(80.0, 1.0)).real < 1e-30


def test_quadrature_self_consistency():
    # the frozen quadrature reference: at gamma = 2 the kernel is the closed-form
    # Yukawa one (Gamma(1) = 1), so its error estimate can be checked against the true error
    r, z = 0.7, complex(1.0, 0.8)
    val, err = reference_integral(3, r, z, 2.0)
    want = yukawa_value(r, z)
    assert 0.0 < err <= 1e-10 * abs(val)
    assert abs(val - want) <= max(err, 1e-12 * abs(want))


@settings(max_examples=200)
@given(
    r=st.floats(0.1, 10.0),
    re_zeta=st.floats(0.2, 20.0),
    slope=st.floats(-1.0, 1.0),
    gamma=st.floats(0.0, 2.0, exclude_min=True),
    extra_inv_t=st.sampled_from([0, 1]),
    d=st.sampled_from([3, 4]),
)
def test_closed_form_matches_the_quadrature_reference(r, re_zeta, slope, gamma, extra_inv_t, d):
    zeta = complex(re_zeta, slope * re_zeta)
    want, _ = reference_integral(d, r, zeta, gamma, extra_inv_t)
    if abs(want) > UNDERFLOW_FLOOR:
        got = _log_integral(d, r, zeta, gamma, extra_inv_t)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_closed_form_maps_an_array_of_zeta_elementwise():
    zetas = np.array([0.3, complex(2.0, -1.5), 7.0 + 0.5j])
    got = _log_integral(3, 1.3, zetas, 2.0)
    assert got.shape == zetas.shape
    # vectorized complex powers may differ from scalar ones in the last bit
    np.testing.assert_allclose(got, [_log_integral(3, 1.3, z, 2.0) for z in zetas], rtol=1e-15)
    np.testing.assert_allclose(got, [yukawa_value(1.3, z) for z in zetas], rtol=1e-13)


def test_complex_kernel_continuation():
    # analytic continuation of the closed form holds for complex zeta
    z = complex(2.0, 1.5)
    got = kernel_value(probe(1.3, z))
    want = yukawa_value(1.3, z)
    assert abs(got - want) / abs(want) < 1e-9


def test_gradient_domination_lattice():
    probes = [
        probe(r, complex(rez, ratio * rez))
        for r in np.logspace(-1, 0.8, 4)
        for rez in (0.5, 4.0)
        for ratio in (0.0, -0.5, -1.0)
    ]
    rows = check_gradient_domination(probes)
    assert all(row[4] for row in rows)
    ratios = [row[3] for row in rows if np.isfinite(row[3])]
    assert max(ratios) <= 1.0


def test_gradient_domination_small_r_ratio_bounded():
    rows = check_gradient_domination([probe(r, 1.0) for r in (1e-3, 1e-2, 1e-1)])
    ratios = [row[3] for row in rows]
    assert all(np.isfinite(q) and q < 1.0 for q in ratios)


def test_fractional_gradient_sup_finite():
    probes = [probe(r, rez) for r in (0.2, 1.0, 3.0) for rez in (0.5, 2.0)]
    for r_exp in (1.5, 4.0, np.inf):
        sup, rows = check_fractional_gradient_domination(probes, r_exp)
        assert np.isfinite(sup) and sup > 0
    # r = inf reduces to the plain gradient bound with its closed constant
    sup_inf, _ = check_fractional_gradient_domination(probes, np.inf)
    from sdlab.constants import m_d

    assert sup_inf <= m_d(3) * (1 + 1e-9)


def test_complex_domination_both_signs():
    probes = [
        probe(r, complex(rez, sign * rez))
        for r in (0.3, 1.0, 3.0)
        for rez in (0.5, 3.0)
        for sign in (-1.0, 1.0)
    ]
    rows_grad, rows_half = check_complex_domination(probes)
    assert all(r[4] for r in rows_grad)
    assert all(r[4] for r in rows_half)


def test_complex_domination_real_axis_has_margin():
    rows_grad, _ = check_complex_domination([probe(1.0, 2.0)])
    _, lhs, rhs, ratio, ok, _ = rows_grad[0]
    assert ok and ratio < 0.8  # the 2^(d/4) slack is visible on the real axis


def test_underflow_guard_skips():
    rows = check_gradient_domination([probe(500.0, 8.0)])
    assert rows[0][4] and rows[0][5]  # passed via the underflow skip


def test_fractional_power_identity_values():
    err = check_fractional_power_identity(1.0, 2.0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert err < 1e-6
    err2 = check_fractional_power_identity(
        complex(1.5, -0.7), 3.0, (0.0, 0.0, 0.0), (0.6, 0.4, 0.0)
    )
    assert err2 < 1e-6
    with pytest.raises(ValueError):
        check_fractional_power_identity(1.0, 1.0, (0, 0, 0), (1, 0, 0))


def test_truncation_l1_curve_shapes(grid16, hardy16):
    f = GridFunction.from_callable(
        grid16, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2 + (z - 8) ** 2) / 8.0)
    )
    sup = hardy16.magnitude().max()
    levels = [sup / 8, sup / 4, sup / 2, 2 * sup]
    curve = truncation_l1_curve(hardy16, f, 2.0, levels)
    assert all(a > b for a, b in zip(curve[:-1], curve[1:]))
    assert curve[-1] == pytest.approx(0.0, abs=1e-14)
    b0 = DriftSpec("constant", vector=[0.0, 0.0, 0.0]).on_grid(grid16)
    zero_curve = truncation_l1_curve(b0, f, 2.0, [1.0, 2.0])
    np.testing.assert_allclose(zero_curve, 0.0, atol=1e-15)
