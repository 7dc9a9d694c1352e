import functools
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import em_reference
from sdlab import sim
from sdlab._accel import TILE, em_chunk, trilinear_at
from sdlab.fields import DriftSpec, estimate_class_F_half, guarded_pair, mollify, truncate
from sdlab.grid import Grid, GridFunction, GridVectorField, set_fft_workers
from sdlab.resolvent import ResolventParams
from sdlab.sim import (CHUNK, SimParams, _block_paths, _noise_blocks, _stream, mc_vs_semigroup, simulate_paths,
                       strong_feller_probe)


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


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["t", "dt"])
def test_params_reject_non_finite_times(g16, name, value):
    times = {"t": 0.1, "dt": 0.01, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SimParams(drift=zero_drift(g16), paths=10, seed=0, x0=center(g16), **times)


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


def _per_component_trilinear(field, points, n, h):
    """Trilinear torus interpolation of a (c, n, n, n) field, one component at a time."""
    u = (points % (n * h)) / h
    idx0 = np.floor(u).astype(np.int64)
    frac = u - idx0
    idx0 %= n
    idx1 = (idx0 + 1) % n
    i0, j0, k0 = idx0.T
    i1, j1, k1 = idx1.T
    f0, f1, f2 = frac.T
    out = np.empty((field.shape[0], len(points)))
    for c, F in enumerate(field):
        out[c] = (
            F[i0, j0, k0] * (1 - f0) * (1 - f1) * (1 - f2)
            + F[i0, j0, k1] * (1 - f0) * (1 - f1) * f2
            + F[i0, j1, k0] * (1 - f0) * f1 * (1 - f2)
            + F[i0, j1, k1] * (1 - f0) * f1 * f2
            + F[i1, j0, k0] * f0 * (1 - f1) * (1 - f2)
            + F[i1, j0, k1] * f0 * (1 - f1) * f2
            + F[i1, j1, k0] * f0 * f1 * (1 - f2)
            + F[i1, j1, k1] * f0 * f1 * f2
        )
    return out


def test_trilinear_matches_per_component_reference_off_the_base_period(g16):
    rng = np.random.default_rng(1)
    field = rng.standard_normal((3,) + g16.shape)
    L = g16.length
    # points next to both faces of the base period, then shifted off it by whole periods,
    # so that some coordinates are negative and some at or above L
    edge = np.array([0.0, 1e-13, g16.h / 2, L - g16.h / 2, L - 1e-13, L])
    pts = np.concatenate([rng.uniform(0.0, L, size=(500, 3)), rng.choice(edge, size=(100, 3))])
    want = _per_component_trilinear(field, pts, g16.n, g16.h)
    shifted = pts + L * rng.integers(-2, 3, size=pts.shape)
    shifted[-60:] = pts[-60:] - L * rng.integers(2, 4, size=(60, 3))  # negative in every coordinate
    assert (shifted < 0).any() and (shifted >= L).any() and (shifted[-60:] < 0).all()
    for at in (pts, shifted, -shifted):
        got = trilinear_at(field, at, g16.n, g16.h)
        np.testing.assert_array_equal(got, em_reference.trilinear_at(field, at, g16.n, g16.h))
    np.testing.assert_allclose(trilinear_at(field, shifted, g16.n, g16.h), want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trilinear_at(field[1], pts, g16.n, g16.h), want[1], rtol=0, atol=1e-12)


def _masked_em(pos, field, n, h, dt, sqrt2dt, noise, drift_sign, lo, hi, censored):
    """Euler-Maruyama that steps only the uncensored paths (the reference lane)."""
    for s in range(noise.shape[1]):
        active = ~censored
        if not active.any():
            break
        pts = pos[active]
        b = _per_component_trilinear(field, pts, n, h).T
        pts = pts + drift_sign * b * dt + sqrt2dt * noise[active, s, :]
        pos[active] = pts
        out = np.any((pts < lo) | (pts > hi), axis=1)
        censored[np.nonzero(active)[0][out]] = True


def _em_lanes(g, field, drift_sign):
    """(pos, censored) of em_chunk, then of the masked lane, on one 2000-path chunk.

    The start is one cell inside the safety box, so that part of the paths is censored.
    """
    m, steps, dt = 2000, 120, 1e-3
    lo, hi = 2 * g.h, g.length - 2 * g.h
    noise = _stream(5, 0).standard_normal((m, steps, 3))
    runs = []
    for lane in (em_chunk, _masked_em):
        pos = np.tile([lo + g.h, 8.0, hi - 0.5 * g.h], (m, 1))
        censored = np.zeros(m, dtype=np.bool_)
        lane(pos, field, g.n, g.h, dt, np.sqrt(2 * dt), noise, drift_sign, lo, hi, censored)
        runs.append((pos, censored))
    return runs


@pytest.mark.parametrize("drift_sign", [-1.0, 1.0])
def test_em_chunk_matches_masked_lane(g16, drift_sign):
    field = np.ascontiguousarray(DriftSpec("smooth-random", amp=1.5, kmax=2, seed=3).on_grid(g16).values.real)
    lo, hi = 2 * g16.h, g16.length - 2 * g16.h
    (pos, censored), (want_pos, want_censored) = _em_lanes(g16, field, drift_sign)
    assert 0 < censored.sum() < len(censored)
    np.testing.assert_array_equal(censored, want_censored)
    np.testing.assert_allclose(pos, want_pos, rtol=0, atol=1e-12)
    # a censored path is frozen at its first position outside the safety box
    assert np.all(np.any((pos[censored] < lo) | (pos[censored] > hi), axis=1))


@pytest.mark.parametrize("drift_sign", [-1.0, 1.0])
def test_em_chunk_zero_field_equals_masked_lane(g16, drift_sign):
    # the zero-field lane skips the drift gather; positions stay bit for bit
    field = np.zeros((3,) + g16.shape)
    (pos, censored), (want_pos, want_censored) = _em_lanes(g16, field, drift_sign)
    assert 0 < censored.sum() < len(censored)
    np.testing.assert_array_equal(censored, want_censored)
    np.testing.assert_array_equal(pos, want_pos)


@functools.lru_cache
def _smooth_field(n):
    """A smooth drift on the n^3 grid of spacing 1/2, strong enough to move paths by cells."""
    g = Grid(3, n, n / 2)
    return np.ascontiguousarray(DriftSpec("smooth-random", amp=1.5, kmax=2, seed=n).on_grid(g).values.real)


@given(n=st.sampled_from([6, 8, 10]), m=st.integers(30, 700), steps=st.integers(1, 3 * TILE + 1),
       drift_sign=st.sampled_from([-1.0, 1.0]), zero_field=st.booleans(), seed=st.integers(0, 2**16))
def test_em_chunk_equals_frozen_reference_bit_for_bit(n, m, steps, drift_sign, zero_field, seed):
    # zero safety margin: a third of the paths start next to the lower faces and a
    # third next to the upper ones, so that censored paths sit below 0 or above L and
    # are still looked up at every step; the rest start in the middle
    h = 0.5
    L = n * h
    field = np.zeros((3, n, n, n)) if zero_field else _smooth_field(n)
    dt = 1e-2
    noise = np.random.default_rng(seed).standard_normal((m, steps, 3))
    start = np.full((m, 3), L / 2)
    start[: m // 3] = h / 8
    start[m // 3 : 2 * m // 3] = L - h / 8
    runs = []
    for kernel in (em_chunk, em_reference.em_chunk):
        pos, censored = start.copy(), np.zeros(m, dtype=np.bool_)
        kernel(pos, field, n, h, dt, np.sqrt(2 * dt), noise, drift_sign, 0.0, L, censored)
        runs.append((pos, censored))
    (pos, censored), (want_pos, want_censored) = runs
    np.testing.assert_array_equal(censored, want_censored)
    np.testing.assert_array_equal(pos, want_pos)
    assert (pos < 0).any() and (pos > L).any()


def test_block_paths_split_a_chunk_into_fewest_near_equal_blocks(monkeypatch):
    # feller's 8192-path chunk at 300 steps: six blocks of 1366 paths, 9.8 MB each
    assert sim.NOISE_BLOCK_BYTES == 10 * 2**20
    assert _block_paths(8192, 300) == 1366
    assert _block_paths(100_000 - 12 * CHUNK, 300) == 848  # criterion 11's last chunk: two blocks
    monkeypatch.setattr(sim, "NOISE_BLOCK_BYTES", 1)
    assert _block_paths(5, 10) == 1  # one path at least


def test_noise_blocks_list_every_chunk_in_stream_order():
    blocks = _noise_blocks(2 * CHUNK + 5, 300)
    assert blocks[:2] == [(0, 0, 1366), (0, 1366, 2732)] and blocks[5] == (0, 6830, CHUNK)
    assert blocks[6:12] == [(1, CHUNK + a, CHUNK + b) for _, a, b in blocks[:6]]
    assert blocks[12:] == [(2, 2 * CHUNK, 2 * CHUNK + 5)]


def _two_chunk_run(g, monkeypatch):
    """A two-chunk run whose chunks take 21 and 3 noise blocks, its field and its block budget.

    The start is one cell inside the safety box, so that part of the paths is censored.
    """
    field = np.ascontiguousarray(DriftSpec("smooth-random", amp=1.5, kmax=2, seed=3).on_grid(g).values.real)
    lo = 2 * g.h
    sp = SimParams(drift=GridVectorField(g, field), t=0.05, dt=1e-3, paths=CHUNK + 1000, seed=12,
                   x0=[lo + g.h, 8.0, 8.0], safety_margin=lo)
    budget = 400 * sp.steps * 24 + 100
    monkeypatch.setattr(sim, "NOISE_BLOCK_BYTES", budget)
    return sp, field, budget


def _one_draw_per_chunk(sp, field, g):
    """(terminal, censored) of sp from one noise draw and one em_chunk call per chunk."""
    steps, dt = sp.steps, sp.dt_effective
    lo, hi = sp.safety_margin, g.length - sp.safety_margin
    terminal = np.empty((sp.paths, 3))
    censored = np.zeros(sp.paths, dtype=np.bool_)
    for chunk_index, start in enumerate(range(0, sp.paths, CHUNK)):
        m = min(CHUNK, sp.paths - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=sp.seed, spawn_key=(chunk_index,)))
        pos = np.tile(sp.x0, (m, 1))
        em_chunk(pos, field, g.n, g.h, dt, np.sqrt(2 * dt), rng.standard_normal((m, steps, 3)), +1.0,
                 lo, hi, censored[start : start + m])
        terminal[start : start + m] = pos
    return terminal, censored


def _assert_equals_one_draw_per_chunk(res, sp, field, g):
    terminal, censored = _one_draw_per_chunk(sp, field, g)
    vals = _bump(terminal)
    assert 0 < censored.sum() < sp.paths
    np.testing.assert_array_equal(res.terminal, terminal)
    assert res.censored == censored.sum()
    assert res.payoff_mean == np.mean(vals)
    assert res.payoff_se == np.std(vals, ddof=1) / np.sqrt(sp.paths)


def test_noise_blocks_equal_one_draw_per_chunk(g16, monkeypatch):
    # two chunks, each drawn and stepped in blocks, against one draw and one
    # em_chunk call per chunk
    sp, field, budget = _two_chunk_run(g16, monkeypatch)
    blocks, bases, offsets = [], [], []

    def checked(pos, field, n, h, dt, sqrt2dt, noise, *rest):
        assert noise.nbytes <= budget and len(pos) == len(noise)
        blocks.append(len(noise))
        bases.append(noise.base)
        offsets.append(noise.__array_interface__["data"][0] - noise.base.__array_interface__["data"][0])
        em_chunk(pos, field, n, h, dt, sqrt2dt, noise, *rest)

    monkeypatch.setattr(sim, "em_chunk", checked)
    res = simulate_paths(sp, payoff=_bump, drift_sign=+1.0)
    assert len(blocks) >= 6 and sum(blocks) == sp.paths
    # every block of both chunks lies in one of the two halves of one allocation, in turn
    half = bases[0].nbytes // 2
    assert bases[0].shape[0] == 2 and all(base is bases[0] for base in bases)
    assert offsets == [half * (i % 2) for i in range(len(blocks))]
    _assert_equals_one_draw_per_chunk(res, sp, field, g16)


def test_simulate_paths_is_bit_identical_at_any_worker_count(g16, monkeypatch, restore_fft_workers):
    # the next block is drawn on the pool from 2 workers on, after the step at 1; with
    # threads switching every microsecond, a draw into the half being stepped would show
    sp, field, _ = _two_chunk_run(g16, monkeypatch)
    assert min(Counter(c for c, _, _ in _noise_blocks(sp.paths, sp.steps)).values()) >= 3
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            set_fft_workers(workers)
            _assert_equals_one_draw_per_chunk(simulate_paths(sp, payoff=_bump, drift_sign=+1.0), sp, field, g16)
    finally:
        sys.setswitchinterval(saved)


def test_em_chunk_error_propagates_and_the_next_call_works(g16, monkeypatch, restore_fft_workers):
    set_fft_workers(2)
    sp, field, _ = _two_chunk_run(g16, monkeypatch)
    calls = []

    def fails_on_block_2(*args):
        calls.append(len(calls))
        if len(calls) == 3:
            raise RuntimeError("block 2")
        em_chunk(*args)

    monkeypatch.setattr(sim, "em_chunk", fails_on_block_2)
    with pytest.raises(RuntimeError, match="^block 2$"):
        simulate_paths(sp, payoff=_bump, drift_sign=+1.0)
    assert calls == [0, 1, 2]
    monkeypatch.setattr(sim, "em_chunk", em_chunk)
    _assert_equals_one_draw_per_chunk(simulate_paths(sp, payoff=_bump, drift_sign=+1.0), sp, field, g16)


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
    rows, ok, _ = mc_vs_semigroup(
        zero_drift(g16), params, f, starts, t=0.2, dt=2e-3, paths=20000, pde_steps=64,
        seed=6, payoff_fn=_bump,
    )
    assert ok
    rows2, ok2, _ = mc_vs_semigroup(
        const_drift(g16, [0.8, 0.0, 0.0]), params, f, starts,
        t=0.2, dt=2e-3, paths=20000, pde_steps=64, seed=7, payoff_fn=_bump,
    )
    assert ok2


def test_mc_vs_semigroup_reuses_pde_values_and_returns_terminals(g16, monkeypatch):
    import sdlab.sim

    params = ResolventParams(p=2.0, zeta=2.0, delta=0.0, lam=0.5)
    b = const_drift(g16, [0.8, 0.0, 0.0])
    f = GridFunction.from_callable(
        g16, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2 + (z - 8) ** 2) / 4.5)
    )
    starts = [center(g16), center(g16) + [1.0, 0, 0]]
    common = dict(t=0.05, dt=5e-3, paths=500, pde_steps=8, seed=3, payoff_fn=_bump, drift_sign=+1.0)
    rows, ok, results = mc_vs_semigroup(b, params, f, starts, **common)

    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve ran although pde_values were given")

    monkeypatch.setattr(sdlab.sim, "evolve", no_evolve)
    reused, ok_reused, _ = mc_vs_semigroup(b, params, f, starts, pde_values=[r[3] for r in rows], **common)
    assert reused == rows and ok_reused == ok
    sp = SimParams(drift=b, t=0.05, dt=5e-3, paths=500, seed=3, x0=starts[0], safety_margin=2 * g16.h)
    np.testing.assert_array_equal(results[0].terminal, simulate_paths(sp, drift_sign=+1.0).terminal)


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
    rows, ok_right, _ = mc_vs_semigroup(b, params, f, starts, **common)
    _, ok_wrong, _ = mc_vs_semigroup(b, params, f, starts, drift_sign=+1.0,
                                     pde_values=[r[3] for r in rows], **common)
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
