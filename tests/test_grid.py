import numpy as np
import pytest

from sdlab.errors import GridMismatchError, NonFiniteFieldError, SpectralDomainError
from sdlab.grid import (
    Grid,
    GridFunction,
    GridVectorField,
    MultiplierSymbol,
    apply_multiplier,
    bessel_norm,
    divergence_apply,
    fourier_eval,
    gradient_apply,
    laplacian_apply,
    lp_norm,
    multiply_pointwise,
    pairing,
)
from sdlab.gridio import load_grid_function, save_grid_function


def test_grid_invariants():
    g = Grid(3, 16, 8.0)
    assert g.h * g.n == pytest.approx(g.length)
    assert np.count_nonzero(g.k_axis == 0.0) == 1
    with pytest.raises(ValueError):
        Grid(3, 15, 8.0)
    with pytest.raises(ValueError):
        Grid(3, 16, -1.0)


def test_multiplier_constant_is_eigenfunction(grid8):
    one = GridFunction(grid8, np.ones(grid8.shape))
    out = apply_multiplier(MultiplierSymbol(1.0, 1.0), one)
    np.testing.assert_allclose(out.values, 1.0, atol=1e-13)
    out2 = apply_multiplier(MultiplierSymbol(2.0, 1.0), one)
    np.testing.assert_allclose(out2.values, 0.5, atol=1e-13)


def test_multiplier_gradient_single_mode():
    g = Grid(3, 16, 2 * np.pi)
    f = GridFunction.from_callable(g, lambda x, y, z: np.sin(x))
    out = apply_multiplier(MultiplierSymbol(1.0, 1.0, grad_axis=0), f)
    # i*k/(1+k^2) at k=1 turns sin into cos/2
    np.testing.assert_allclose(out.values, np.cos(g.coordinates()[0]) / 2.0, atol=1e-12)


def test_multiplier_identity_symbol(grid8, random_f8):
    out = apply_multiplier(MultiplierSymbol(1.0, 0.0), random_f8)
    np.testing.assert_allclose(out.values, random_f8.values, rtol=1e-12)


def test_multiplier_rejects_left_half_plane():
    with pytest.raises(SpectralDomainError):
        MultiplierSymbol(-1.0, 1.0)
    with pytest.raises(SpectralDomainError):
        MultiplierSymbol(1j, 1.0)


def test_multiplier_grid_mismatch(grid8, grid16):
    f = GridFunction(grid16, np.ones(grid16.shape))
    w = GridFunction(grid8, np.ones(grid8.shape))
    with pytest.raises(GridMismatchError):
        multiply_pointwise(w, f)


def test_multiplier_composition_principal_branch(grid8, random_f8):
    zeta = complex(0.7, 2.3)
    a, bexp = 0.35, 0.9
    one = apply_multiplier(
        MultiplierSymbol(zeta, bexp), apply_multiplier(MultiplierSymbol(zeta, a), random_f8)
    )
    two = apply_multiplier(MultiplierSymbol(zeta, a + bexp), random_f8)
    assert lp_norm(one - two, 2) / lp_norm(two, 2) < 1e-10


def test_resolvent_defining_equation(grid8, random_f8):
    zeta = complex(1.5, -0.8)
    u = apply_multiplier(MultiplierSymbol(zeta, 1.0), random_f8)
    resid = zeta * u - laplacian_apply(u) - random_f8
    assert lp_norm(resid, 2) / lp_norm(random_f8, 2) < 1e-10


def test_lp_norm_examples():
    g = Grid(3, 8, 1.0)
    c = GridFunction(g, np.full(g.shape, 3.0))
    assert lp_norm(c, 2) == pytest.approx(3.0)
    assert lp_norm(c, np.inf) == pytest.approx(3.0)
    ind = GridFunction.delta(g, (0, 0, 0))
    # unit-mass delta: L1 norm is exactly 1; a plain one-cell indicator has h^d
    assert lp_norm(ind, 1) == pytest.approx(1.0)
    plain = GridFunction.zeros(g)
    plain.values[1, 2, 3] = 1.0
    assert lp_norm(plain, 1) == pytest.approx(g.cell_volume())
    with pytest.raises(ValueError):
        lp_norm(c, 0.5)


def test_lp_norm_matches_direct_summation(grid8, random_f8, rng):
    for p in (1.0, 2.0, 2.5, 7.0):
        direct = (grid8.cell_volume() * np.sum(np.abs(random_f8.values) ** p)) ** (1 / p)
        assert lp_norm(random_f8, p) == pytest.approx(direct, rel=1e-12)


def test_pairing_examples(grid8, rng):
    g = Grid(3, 8, 1.0)
    one = GridFunction(g, np.ones(g.shape))
    assert pairing(one, one) == pytest.approx(1.0)
    g2 = Grid(3, 16, 2 * np.pi)
    s = GridFunction.from_callable(g2, lambda x, y, z: np.sin(x))
    c = GridFunction.from_callable(g2, lambda x, y, z: np.cos(x))
    assert abs(pairing(s, c)) < 1e-12
    u = GridFunction(grid8, rng.standard_normal(grid8.shape) + 1j * rng.standard_normal(grid8.shape))
    v = GridFunction(grid8, rng.standard_normal(grid8.shape) + 1j * rng.standard_normal(grid8.shape))
    direct = grid8.cell_volume() * np.sum(u.values * np.conj(v.values))
    assert pairing(u, v) == pytest.approx(direct, rel=1e-12)
    assert pairing(u, u).real == pytest.approx(lp_norm(u, 2) ** 2, rel=1e-12)


def test_parseval(grid8, random_f8):
    import scipy.fft as sf

    spatial = lp_norm(random_f8, 2)
    freq = np.sqrt(
        grid8.cell_volume() * np.sum(np.abs(sf.fftn(random_f8.values)) ** 2) / grid8.node_count()
    )
    assert spatial == pytest.approx(freq, rel=1e-12)


def test_bessel_norm_reduces_and_single_mode():
    g = Grid(3, 16, 2 * np.pi)
    f = GridFunction.from_callable(g, lambda x, y, z: np.sin(2 * x))
    assert bessel_norm(f, 0.0, 2.5) == pytest.approx(lp_norm(f, 2.5))
    one = GridFunction(g, np.ones(g.shape))
    assert bessel_norm(one, 1.7, 3.0) == pytest.approx(lp_norm(one, 3.0), rel=1e-12)
    # single mode k0 = 2: norm scales by (1 + |k0|^2)^(alpha/2)
    alpha = 0.8
    expected = (1.0 + 4.0) ** (alpha / 2.0) * lp_norm(f, 2)
    assert bessel_norm(f, alpha, 2) == pytest.approx(expected, rel=1e-12)


def test_multiply_pointwise(grid8, random_f8):
    one = GridFunction(grid8, np.ones(grid8.shape))
    zero = GridFunction(grid8, np.zeros(grid8.shape))
    np.testing.assert_allclose(multiply_pointwise(one, random_f8).values, random_f8.values)
    np.testing.assert_allclose(multiply_pointwise(zero, random_f8).values, 0.0)
    w = GridFunction(grid8, np.random.default_rng(0).standard_normal(grid8.shape) + 0j)
    np.testing.assert_allclose(
        multiply_pointwise(w, random_f8).values, w.values * random_f8.values, rtol=1e-13
    )


def test_laplacian_eigenfunction_and_constant():
    g = Grid(3, 16, 2 * np.pi)
    one = GridFunction(g, np.ones(g.shape))
    np.testing.assert_allclose(laplacian_apply(one).values, 0.0, atol=1e-13)
    f = GridFunction.from_callable(g, lambda x, y, z: np.sin(3 * x))
    np.testing.assert_allclose(laplacian_apply(f).values, -9.0 * f.values, atol=1e-10)


def test_laplacian_vs_finite_differences():
    # smooth band-limited f: spectral Laplacian is exact, second differences
    # converge at second order, so the FD error must shrink ~4x per refinement
    def f(x, y, z):
        return np.sin(x) * np.cos(2 * y) + 0.3 * np.cos(z)

    errs = []
    for n in (16, 32):
        g = Grid(3, n, 2 * np.pi)
        gf = GridFunction.from_callable(g, f)
        spec = laplacian_apply(gf).values.real
        fd = np.zeros(g.shape)
        v = gf.values.real
        for ax in range(3):
            fd += (np.roll(v, 1, axis=ax) - 2 * v + np.roll(v, -1, axis=ax)) / g.h ** 2
        errs.append(np.max(np.abs(fd - spec)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_gradient_divergence_recovers_laplacian(grid8, random_f8):
    lap1 = divergence_apply(gradient_apply(random_f8))
    lap2 = laplacian_apply(random_f8)
    assert lp_norm(lap1 - lap2, 2) / lp_norm(lap2, 2) < 1e-12


def test_vector_field_shapes(grid8):
    with pytest.raises(GridMismatchError):
        GridVectorField(grid8, np.zeros((2,) + grid8.shape))
    v = GridVectorField.zeros(grid8)
    assert v.magnitude().max() == 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_vector_field_rejects_nonfinite(grid8, value):
    values = np.zeros((3,) + grid8.shape, dtype=np.complex128)
    values[1, 2, 3, 4] = value
    with pytest.raises(NonFiniteFieldError, match="1 NaN or infinite"):
        GridVectorField(grid8, values)


def test_serialization_roundtrip(tmp_path, grid8, random_f8):
    for fmt in ("bin", "csv"):
        path = tmp_path / f"f_{fmt}"
        save_grid_function(random_f8, path, fmt=fmt)
        back = load_grid_function(path)
        assert back.grid == grid8
        np.testing.assert_allclose(back.values, random_f8.values, rtol=0, atol=0)


def test_fourier_eval_band_limited():
    g = Grid(3, 16, 2 * np.pi)
    f = GridFunction.from_callable(g, lambda x, y, z: np.sin(x) * np.cos(2 * z))
    pts = np.array([[0.37, 1.21, 2.44], [3.33, 0.01, 5.0]])
    vals = fourier_eval(f, pts)
    expected = np.sin(pts[:, 0]) * np.cos(2 * pts[:, 2])
    np.testing.assert_allclose(vals.real, expected, atol=1e-12)
    np.testing.assert_allclose(vals.imag, 0.0, atol=1e-12)
