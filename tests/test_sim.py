import numpy as np
import pytest

from sdlab._accel import trilinear_at
from sdlab.fields import DriftSpec, estimate_class_F_half, guarded_pair, mollify, truncate
from sdlab.grid import Grid, GridFunction, GridVectorField
from sdlab.resolvent import ResolventParams
from sdlab.sim import SimParams, mc_vs_semigroup, simulate_paths, strong_feller_probe


def zero_drift(grid):
    return GridVectorField.zeros(grid)


def const_drift(grid, vec):
    return DriftSpec("constant", vector=vec).on_grid(grid)


@pytest.fixture(scope="module")
def g16():
    return Grid(3, 16, 16.0)


def center(g):
    return np.full(3, g.length / 2)


def test_params_validation(g16):
    with pytest.raises(ValueError):
        SimParams(drift=zero_drift(g16), t=0.1, dt=0.2, paths=10, seed=0, x0=center(g16))
    with pytest.raises(ValueError):
        SimParams(drift=zero_drift(g16), t=0.1, dt=0.01, paths=0, seed=0, x0=center(g16))


def test_seeded_determinism(g16):
    sp = SimParams(drift=zero_drift(g16), t=0.05, dt=1e-3, paths=3000, seed=11, x0=center(g16))
    r1 = simulate_paths(sp, payoff=lambda p: p[:, 0])
    r2 = simulate_paths(sp, payoff=lambda p: p[:, 0])
    assert r1.payoff_mean == r2.payoff_mean
    np.testing.assert_array_equal(r1.terminal, r2.terminal)


def test_martingale_mean(g16):
    sp = SimParams(drift=zero_drift(g16), t=0.2, dt=1e-3, paths=20000, seed=1, x0=center(g16))
    res = simulate_paths(sp, payoff=lambda p: p[:, 0])
    assert abs(res.payoff_mean - 8.0) <= 3 * res.payoff_se
    assert res.censored == 0


def test_mean_square_displacement(g16):
    t = 0.3
    sp = SimParams(drift=zero_drift(g16), t=t, dt=1e-3, paths=20000, seed=2, x0=center(g16))
    res = simulate_paths(sp, payoff=lambda p: np.sum((p - 8.0) ** 2, axis=1))
    assert abs(res.payoff_mean - 6 * t) <= 3 * res.payoff_se + 0.01


def test_constant_drift_displacement(g16):
    c, t = 0.5, 0.2
    sp = SimParams(
        drift=const_drift(g16, [c, 0, 0]), t=t, dt=1e-3, paths=20000, seed=3, x0=center(g16)
    )
    res = simulate_paths(sp, payoff=lambda p: p[:, 0])
    assert abs(res.payoff_mean - (8.0 - c * t)) <= 3 * res.payoff_se


def test_censoring_counts_and_flag(g16):
    # a strong outward constant drift expels paths through the safety box
    sp = SimParams(
        drift=const_drift(g16, [40.0, 0, 0]), t=0.3, dt=1e-2, paths=500, seed=4,
        x0=center(g16), safety_margin=1.0,
    )
    res = simulate_paths(sp, drift_sign=+1.0)
    assert res.censored == 500
    assert res.flagged_invalid
    # frozen positions stay near where they exited
    assert np.all(res.terminal[:, 0] > 14.0)


def test_trilinear_matches_grid_nodes(g16):
    rngv = np.random.default_rng(0)
    field = rngv.standard_normal((3,) + g16.shape)
    idx = np.array([[1, 2, 3], [15, 0, 7]])
    pts = idx * g16.h
    vals = trilinear_at(field, pts.astype(float), g16.n, g16.h)
    for c in range(3):
        np.testing.assert_allclose(vals[c], field[c][idx[:, 0], idx[:, 1], idx[:, 2]], rtol=1e-12)


def _coupled_em(field_arr, g, x0, t, dt_fine, n_paths, seed, levels=3):
    """Run EM at dt_fine, 2*dt_fine, 4*dt_fine on shared Brownian increments."""
    steps_fine = int(round(t / dt_fine))
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_paths, steps_fine, 3)) * np.sqrt(2 * dt_fine)
    outs = []
    for lev in range(levels):
        stride = 2 ** lev
        dt = dt_fine * stride
        steps = steps_fine // stride
        inc = noise.reshape(n_paths, steps, stride, 3).sum(axis=2)
        pos = np.tile(np.asarray(x0, float), (n_paths, 1))
        for s in range(steps):
            b = trilinear_at(field_arr, pos, g.n, g.h).T
            pos = pos - b * dt + inc[:, s, :]
        outs.append(pos)
    return outs


def test_weak_order_one(g16):
    # payoff means at dt, 2dt, 4dt on coupled increments: successive
    # differences should halve (weak order 1), ratio in [1.5, 2.5]
    b = DriftSpec("smooth-random", amp=1.2, kmax=1, seed=13).on_grid(g16)
    field_arr = np.ascontiguousarray(b.values.real)
    fine, mid, coarse = _coupled_em(
        field_arr, g16, center(g16), t=0.4, dt_fine=0.0125, n_paths=40000, seed=21
    )

    def payoff(p):
        return np.cos(2 * np.pi * p[:, 0] / 16.0) + 0.5 * np.sin(2 * np.pi * p[:, 1] / 16.0)

    m_fine, m_mid, m_coarse = (np.mean(payoff(p)) for p in (fine, mid, coarse))
    d1 = abs(m_coarse - m_mid)
    d2 = abs(m_mid - m_fine)
    assert 1.5 <= d1 / d2 <= 2.5


def _bump(pts):
    return np.exp(-np.sum((pts - 8.0) ** 2, axis=1) / 4.5)


def test_mc_vs_semigroup_free_and_constant(g16):
    params = ResolventParams(p=2.0, zeta=2.0, delta=0.0, lam=0.5)
    f = GridFunction.from_callable(
        g16, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2 + (z - 8) ** 2) / 4.5)
    )
    starts = [center(g16), center(g16) + [1.0, 0, 0]]
    rows, ok = mc_vs_semigroup(
        zero_drift(g16), params, f, starts, t=0.2, dt=2e-3, paths=20000, pde_steps=64,
        seed=6, payoff_fn=_bump,
    )
    assert ok
    rows2, ok2 = mc_vs_semigroup(
        const_drift(g16, [0.8, 0.0, 0.0]), params, f, starts,
        t=0.2, dt=2e-3, paths=20000, pde_steps=64, seed=7, payoff_fn=_bump,
    )
    assert ok2


def test_mc_vs_semigroup_sign_flip_fails():
    # the designated mutation: wrong drift sign must break the comparison;
    # needs the finer grid so the smoothed pole keeps real strength
    g = Grid(3, 32, 16.0)
    b = mollify(truncate(DriftSpec("hardy", c=0.2).on_grid(g), 4.0), 1.25)
    est = estimate_class_F_half(b, lambda_grid=np.logspace(-1, 2, 5))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    params = ResolventParams(p=2.0, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
    f = GridFunction.from_callable(
        g, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2 + (z - 8) ** 2) / 4.5)
    )
    starts = [center(g) + [1.2, 0, 0], center(g) - [0, 1.4, 0]]
    common = dict(t=0.3, dt=1e-3, paths=30000, pde_steps=192, seed=8, payoff_fn=_bump)
    _, ok_right = mc_vs_semigroup(b, params, f, starts, **common)
    _, ok_wrong = mc_vs_semigroup(b, params, f, starts, drift_sign=+1.0, **common)
    assert ok_right
    assert not ok_wrong


def test_strong_feller_probe_smooth_payoff(g16):
    b = zero_drift(g16)
    f = GridFunction.from_callable(g16, lambda x, y, z: np.sin(2 * np.pi * x / 16.0))
    seps, diffs, exponent = strong_feller_probe(
        b, f, center(g16), [1.6, 0.8, 0.4, 0.2], t=0.05, dt=2.5e-3, paths=4000, seed=9
    )
    assert exponent == pytest.approx(1.0, abs=0.2)
    assert (np.diff(diffs) < 0).all()


def test_strong_feller_probe_mollified_drift(g16):
    b = mollify(truncate(DriftSpec("hardy", c=0.2).on_grid(g16), 4.0), 2.0)
    f = GridFunction.from_callable(g16, lambda x, y, z: np.sin(2 * np.pi * x / 16.0))
    seps, diffs, exponent = strong_feller_probe(
        b, f, center(g16) + [1.0, 0, 0], [1.6, 0.8, 0.4], t=0.05, dt=2.5e-3,
        paths=3000, seed=10,
    )
    assert np.isfinite(exponent) and exponent > 0.5
