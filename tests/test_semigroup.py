import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dense_oracles import dense_generator
from sdlab import grid as grid_module
from sdlab.errors import SpectralDomainError
from sdlab.fields import DriftSpec, estimate_class_F_half, guarded_pair, mollify, truncate
from sdlab.grid import Grid, GridFunction, GridVectorField, fft_workers, lp_norm, pairing, set_fft_workers
from sdlab.resolvent import ResolventAssembly, ResolventParams
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


def test_drift_evolve_step_transform_count(count_transforms, monkeypatch, hardy16):
    # one forward transform, 4k + 4 per step of k series terms in 2k + 2
    # calls (one call per gradient), one inverse
    terms = []
    neumann = ResolventAssembly._neumann

    def recorded(self, *args, **kwargs):
        total, history = neumann(self, *args, **kwargs)
        terms.append(len(history))
        return total, history

    monkeypatch.setattr(ResolventAssembly, "_neumann", recorded)
    params = ResolventParams(p=2.0, zeta=40.0, delta=0.05, lam=0.5)
    f = GridFunction.from_callable(hardy16.grid, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2) / 4.0))
    counts = count_transforms()
    evolve(SemigroupParams(0.1, 4), params, hardy16, f, neumann_tol=1e-9)
    assert len(terms) == 4 and min(terms) > 0
    assert counts["transforms"] == 2 + sum(4 * k + 4 for k in terms)
    assert counts["calls"] == 2 + sum(2 * k + 2 for k in terms)


def test_zero_field_evolve_is_heat_multiplier(count_transforms, grid16):
    rng = np.random.default_rng(3)
    f = GridFunction(grid16, rng.standard_normal(grid16.shape) + 0j)
    t, steps = 0.4, 24
    mu = steps / t
    counts = count_transforms()
    u = evolve(SemigroupParams(t, steps), free_params(), GridVectorField.zeros(grid16), f)
    assert counts == {"calls": 2, "transforms": 2}
    want = np.fft.ifftn((mu / (mu + grid16.k_squared)) ** steps * np.fft.fftn(f.values))
    assert np.max(np.abs(u.values - want)) <= 1e-14 * np.max(np.abs(f.values))


def nyquist_zeroed(grid):
    """The full-spectrum odd symbols 1j*k_j with the unpaired Nyquist entry zeroed."""
    keep = np.arange(grid.n) != grid.n // 2
    return [ik * keep.reshape(ik.shape) for ik in grid.ik_components]


def repeated_apply(params, b, f, t, steps):
    """steps complex resolvent solves mu R(mu) f, mu = steps/t: the backward-Euler evolve, term by term."""
    mu = steps / t
    assembly = ResolventAssembly(params.with_zeta(complex(mu)), b)
    for _ in range(steps):
        f = mu * assembly.apply(f, tol=1e-9)
    return f


def hardy16_evolve_case(hardy16):
    params = ResolventParams(p=2.0, zeta=40.0, delta=0.05, lam=0.5)
    f = GridFunction.from_callable(hardy16.grid, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2) / 4.0))
    u = evolve(SemigroupParams(0.1, 4), params, hardy16, f, neumann_tol=1e-9)
    return params, f, u


def test_spectral_evolve_matches_repeated_apply(monkeypatch, hardy16):
    # real data on a real drift: the real lane applies the operator whose odd
    # symbols drop the Nyquist entry, which complex apply applies with them
    params, f, u = hardy16_evolve_case(hardy16)
    monkeypatch.setattr(hardy16.grid, "ik_components", nyquist_zeroed(hardy16.grid))
    want = repeated_apply(params, hardy16, f, 0.1, 4)
    assert lp_norm(u - want, 2) <= 1e-13 * lp_norm(want, 2)


def test_real_lane_gap_to_the_unzeroed_complex_path(hardy16):
    # the complex path keeps the Nyquist entry of 1j*k_j: it leaks an imaginary
    # part into real data and moves the real part, by these measured amounts
    params, f, u = hardy16_evolve_case(hardy16)
    want = repeated_apply(params, hardy16, f, 0.1, 4).values
    im_gap = np.max(np.abs(want.imag)) / np.max(np.abs(u.values))
    re_gap = np.linalg.norm(want.real - u.values.real) / np.linalg.norm(want)
    assert im_gap == pytest.approx(5.71e-6, rel=0.01)
    assert re_gap == pytest.approx(1.085e-9, rel=0.01)


@given(d=st.sampled_from([3, 4]), n=st.sampled_from([6, 8, 10]), p=st.sampled_from([2.0, 2.5]))
def test_real_lane_is_real_zeroed_and_worker_independent(d, n, p):
    # every grid size takes the slab path and threaded transforms here
    grid = Grid(d, n, 16.0)
    b = DriftSpec("hardy", c=0.2).on_grid(grid)
    params = ResolventParams(p=p, zeta=40.0, delta=0.05, lam=0.5)
    f = GridFunction(grid, np.random.default_rng(n + d).standard_normal(grid.shape))
    saved = fft_workers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "THREADED_MIN_NODES", 1)
        outs = []
        try:
            for workers in (1, 2, 3):
                set_fft_workers(workers)
                outs.append(evolve(SemigroupParams(0.1, 4), params, b, f, neumann_tol=1e-9).values)
        finally:
            set_fft_workers(saved)
        mp.setattr(grid, "ik_components", nyquist_zeroed(grid))
        want = repeated_apply(params, b, f, 0.1, 4).values
    u = outs[0]
    assert not np.any(u.imag)
    assert outs[1].tobytes() == u.tobytes() and outs[2].tobytes() == u.tobytes()
    assert np.linalg.norm(u - want) <= 1e-13 * np.linalg.norm(want)


@given(d=st.sampled_from([3, 4]), n=st.sampled_from([6, 8, 10]), p=st.sampled_from([2.0, 2.5]),
       richardson=st.booleans())
def test_complex_evolve_is_the_real_lane_on_each_part_bit_for_bit(d, n, p, richardson):
    # complex data is evolved by linearity: its real and imaginary parts each take
    # the real lane; every grid size takes the slab path and threaded transforms here
    grid = Grid(d, n, 16.0)
    b = DriftSpec("hardy", c=0.2).on_grid(grid)
    params = ResolventParams(p=p, zeta=40.0, delta=0.05, lam=0.5)
    rng = np.random.default_rng(n + d)
    re, im = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    sp = SemigroupParams(0.1, 2, richardson=richardson)

    def run(values):
        return evolve(sp, params, b, GridFunction(grid, values), neumann_tol=1e-9).values

    saved = fft_workers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "THREADED_MIN_NODES", 1)
        try:
            for workers in (1, 2, 3):
                set_fft_workers(workers)
                assert run(re + 1j * im).tobytes() == (run(re) + 1j * run(im)).tobytes()
        finally:
            set_fft_workers(saved)


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


@pytest.mark.parametrize("t", [np.nan, np.inf], ids=["nan", "inf"])
def test_semigroup_params_reject_non_finite_t(t):
    # unchecked, NaN t would run the whole series on NaN data and inf t overflow int() in the steps hint
    with pytest.raises(ValueError, match="^t must be finite"):
        SemigroupParams(t, 4)


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
