import numpy as np
import pytest
import scipy.linalg

from dense_oracles import dense_generator
from sdlab.errors import SpectralDomainError
from sdlab.fields import DriftSpec, estimate_class_F_half, guarded_pair, mollify, truncate
from sdlab.grid import Grid, GridFunction, GridVectorField, lp_norm, pairing
from sdlab.resolvent import ResolventParams
from sdlab.semigroup import (
    SemigroupParams,
    delta_sources,
    evolve,
    semigroup_convergence_study,
    ultracontractivity_study,
)


def free_params(p=2.0):
    return ResolventParams(p=p, zeta=2.0, delta=0.0, lam=0.5)


def single_mode(grid, k=1):
    return GridFunction.from_callable(grid, lambda x, y, z: np.sin(k * x) + 0j)


def test_single_mode_first_order():
    g = Grid(3, 8, 2 * np.pi)
    b0 = GridVectorField.zeros(g)
    f = single_mode(g)
    t = 0.5
    errs = []
    for steps in (8, 16, 32):
        u = evolve(SemigroupParams(t, steps), free_params(), b0, f)
        errs.append(np.max(np.abs(u.values - np.exp(-t) * f.values)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)


def test_richardson_second_order():
    g = Grid(3, 8, 2 * np.pi)
    b0 = GridVectorField.zeros(g)
    f = single_mode(g)
    t = 0.5
    plain = evolve(SemigroupParams(t, 16), free_params(), b0, f)
    extr = evolve(SemigroupParams(t, 16, richardson=True), free_params(), b0, f)
    exact = np.exp(-t) * f.values
    assert np.max(np.abs(extr.values - exact)) < 0.05 * np.max(np.abs(plain.values - exact))


def test_single_step_large_mu_near_identity():
    g = Grid(3, 8, 2 * np.pi)
    b0 = GridVectorField.zeros(g)
    f = single_mode(g, k=2)
    for t in (1e-2, 1e-3):
        u = evolve(SemigroupParams(t, 1), free_params(), b0, f)
        # mu R(mu) f = f + O(1/mu) for smooth f
        assert np.max(np.abs(u.values - f.values)) <= 1.1 * 4.0 * t


def test_dense_expm_oracle(grid8, bounded_field8):
    est = estimate_class_F_half(bounded_field8, lambda_grid=np.logspace(-1, 2, 5))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    params = ResolventParams(p=2.0, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
    rng = np.random.default_rng(3)
    f = GridFunction(grid8, rng.standard_normal(grid8.shape) + 0j)
    t = 0.4
    M = scipy.linalg.expm(-t * dense_generator(grid8, bounded_field8))
    want = (M @ f.values.ravel()).reshape(grid8.shape)
    errs = []
    for steps in (8, 16):
        u = evolve(SemigroupParams(t, steps), params, bounded_field8, f)
        errs.append(np.max(np.abs(u.values - want)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.3)
    assert errs[1] < 0.1 * np.max(np.abs(want))


def test_steps_floor_enforced():
    g = Grid(3, 8, 2 * np.pi)
    b0 = GridVectorField.zeros(g)
    params = ResolventParams(p=2.0, zeta=20.0, delta=0.0, lam=10.0)
    f = single_mode(g)
    with pytest.raises(SpectralDomainError):
        evolve(SemigroupParams(1.0, 2), params, b0, f)  # mu = 2 < kappa_d * 10


def test_positivity_heat_bump(grid16):
    b0 = GridVectorField.zeros(grid16)
    bump = GridFunction.from_callable(
        grid16, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2 + (z - 8) ** 2) / 4.0)
    )
    u = evolve(SemigroupParams(0.5, 8), free_params(), b0, bump)
    assert np.min(u.values.real) > 0.0


def test_constants_preserved_on_torus(grid16):
    b0 = GridVectorField.zeros(grid16)
    one = GridFunction(grid16, np.ones(grid16.shape))
    u = evolve(SemigroupParams(0.7, 8), free_params(), b0, one)
    np.testing.assert_allclose(u.values, 1.0, atol=1e-12)


def test_positivity_mollified_hardy(grid16):
    b = mollify(truncate(DriftSpec("hardy", c=0.2).on_grid(grid16), 5.0), 2.0)
    est = estimate_class_F_half(b, lambda_grid=np.logspace(-1, 2, 5))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    params = ResolventParams(p=2.0, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
    bump = GridFunction.from_callable(
        grid16, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2 + (z - 8) ** 2) / 4.0)
    )
    u = evolve(SemigroupParams(0.3, 6), params, b, bump)
    assert np.min(u.values.real) >= -1e-8 * lp_norm(bump, np.inf)
    assert lp_norm(u, np.inf) <= (1 + 1e-8) * lp_norm(bump, np.inf)


def test_mass_conserved_free_heat(grid16):
    b0 = GridVectorField.zeros(grid16)
    rng = np.random.default_rng(0)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    u = evolve(SemigroupParams(0.4, 8), free_params(), b0, f)
    one = GridFunction(grid16, np.ones(grid16.shape))
    assert pairing(u, one).real == pytest.approx(pairing(f, one).real, rel=1e-10)


def test_semigroup_law(grid16, hardy16):
    est = estimate_class_F_half(hardy16, lambda_grid=np.logspace(-1, 2, 5))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    params = ResolventParams(p=2.0, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
    f = GridFunction.from_callable(
        grid16, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2) / 4.0)
    )
    t = 0.4
    # evolve(t, n) against two half-time runs of n steps each: the two
    # backward-Euler parametrizations differ at first order in 1/n
    discrepancies = []
    for steps in (4, 8):
        full = evolve(SemigroupParams(t, steps), params, hardy16, f)
        half = evolve(SemigroupParams(t / 2, steps), params, hardy16, f)
        twice = evolve(SemigroupParams(t / 2, steps), params, hardy16, half)
        discrepancies.append(lp_norm(full - twice, 2) / lp_norm(full, 2))
    assert discrepancies[1] < discrepancies[0]
    assert discrepancies[1] / discrepancies[0] == pytest.approx(0.5, abs=0.2)
    assert discrepancies[1] < 0.05


def test_ultracontractivity_free_heat_slopes():
    g = Grid(3, 32, 8.0)
    b0 = GridVectorField.zeros(g)
    params = free_params()
    t_grid = np.logspace(np.log10(0.02), np.log10(0.1), 5)
    slope, _, norms = ultracontractivity_study(params, b0, 1, np.inf, t_grid, steps=24, n_sources=1)
    assert slope == pytest.approx(-1.5, abs=0.15)
    assert (np.diff(norms) < 0).all()
    slope2, _, _ = ultracontractivity_study(params, b0, 1, 2.0, t_grid, steps=24, n_sources=1)
    assert slope2 == pytest.approx(-0.75, abs=0.08)


def test_ultracontractivity_guards():
    g = Grid(3, 8, 4.0)
    b0 = GridVectorField.zeros(g)
    with pytest.raises(ValueError):
        ultracontractivity_study(free_params(), b0, 2, 2, [0.1])
    with pytest.raises(ValueError):
        ultracontractivity_study(free_params(), b0, 1, np.inf, [5.0])


def test_delta_sources_unique(grid16):
    picks = delta_sources(grid16, 4, seed=1)
    assert len(set(picks)) == 4


def test_convergence_study_trivial_cases(grid16, rng):
    b = DriftSpec("smooth-random", amp=0.3, kmax=1, seed=4).on_grid(grid16)
    sup = b.magnitude().max()
    params = ResolventParams(p=2.0, zeta=4.0, delta=0.02, lam=1.0)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    p_err, sup_err = semigroup_convergence_study(params, b, [2.0 * sup], 0.3, 4, f)
    assert p_err[0] == pytest.approx(0.0, abs=1e-13)
    assert sup_err[0] == pytest.approx(0.0, abs=1e-13)
    b0 = GridVectorField.zeros(grid16)
    p0, s0 = semigroup_convergence_study(params, b0, [1.0, 2.0], 0.3, 4, f)
    np.testing.assert_allclose(p0, 0.0, atol=1e-13)
