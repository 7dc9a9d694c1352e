import functools
import sys
import threading

import numpy as np
import pytest
import scipy.fft
from dense_oracles import load_grid_function

from sdlab import grid as grid_module
from sdlab.errors import ComplexFieldError, GridMismatchError, NonFiniteFieldError
from sdlab.grid import (
    Grid,
    GridFunction,
    GridVectorField,
    apply_symbol_array,
    bessel_norm,
    fftn,
    fourier_eval,
    gradient_apply,
    ifftn,
    laplacian_apply,
    batch_limit,
    lp_norm,
    pairing,
    run_on_workers,
    set_fft_workers,
    split_pass,
)
from sdlab.gridio import save_grid_function
from sdlab.resolvent import ResolventAssembly, ResolventParams


def free_assembly(grid, zeta):
    """Assembly for b = 0, whose symbols are (zeta + |k|^2)^(-alpha)."""
    params = ResolventParams(p=2.0, zeta=zeta, delta=0.0, lam=0.1)
    return ResolventAssembly(params, GridVectorField.zeros(grid))


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
    out = free_assembly(grid8, 1.0).apply(one)
    np.testing.assert_allclose(out.values, 1.0, atol=1e-13)
    out2 = free_assembly(grid8, 2.0).apply(one)
    np.testing.assert_allclose(out2.values, 0.5, atol=1e-13)


def test_multiplier_gradient_single_mode():
    g = Grid(3, 16, 2 * np.pi)
    f = GridFunction.from_callable(g, lambda x, y, z: np.sin(x))
    out = gradient_apply(free_assembly(g, 1.0).apply(f))[0]
    # i*k/(1+k^2) at k=1 turns sin into cos/2
    np.testing.assert_allclose(out, np.cos(g.coordinates()[0]) / 2.0, atol=1e-12)


def test_multiplier_identity_symbol(grid8, random_f8):
    out = apply_symbol_array(free_assembly(grid8, 1.0)._sym(0.0), random_f8)
    np.testing.assert_allclose(out.values, random_f8.values, rtol=1e-12)


def test_multiplier_composition_principal_branch(grid8, random_f8):
    zeta = complex(0.7, 2.3)
    a, bexp = 0.35, 0.9
    asm = free_assembly(grid8, zeta)
    one = apply_symbol_array(asm._sym(bexp), apply_symbol_array(asm._sym(a), random_f8))
    two = apply_symbol_array(asm._sym(a + bexp), random_f8)
    assert lp_norm(one - two, 2) / lp_norm(two, 2) < 1e-10


def test_resolvent_defining_equation(grid8, random_f8):
    zeta = complex(1.5, -0.8)
    u = free_assembly(grid8, zeta).apply(random_f8)
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
    # divergence of the gradient: sum over j of d/dx_j of its j-th component
    grad = gradient_apply(random_f8)
    second = [gradient_apply(GridFunction(grid8, grad[j]))[j] for j in range(3)]
    lap1 = GridFunction(grid8, sum(second))
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


def test_vector_field_is_real(grid8, rng):
    values = rng.standard_normal((3,) + grid8.shape)
    for given in (values, values + 0j, values.tolist()):
        b = GridVectorField(grid8, given)
        assert b.values.dtype == np.float64 and b.values.flags.c_contiguous
        np.testing.assert_array_equal(b.values, values)
    with pytest.raises(ComplexFieldError, match="nonzero imaginary part"):
        GridVectorField(grid8, values + 1e-300j)
    with pytest.raises(ComplexFieldError):
        b * 1j


def test_serialization_roundtrip(tmp_path, grid8, random_f8):
    path = tmp_path / "f"
    save_grid_function(random_f8, path)
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


def test_fourier_eval_nyquist_content_is_real_and_interpolates(rng):
    g = Grid(3, 8, 2 * np.pi)
    f = GridFunction(g, rng.standard_normal(g.shape))
    idx = np.array([[0, 0, 0], [1, 3, 6], [4, 4, 4], [7, 2, 5]])
    vals = fourier_eval(f, g.x_axis[idx])
    np.testing.assert_allclose(vals.real, f.values[tuple(idx.T)].real, atol=1e-12)
    off = fourier_eval(f, rng.uniform(0.0, g.length, size=(20, 3)))
    np.testing.assert_allclose(off.imag, 0.0, atol=1e-12)
    # the mode (N, N, 0) is cos(4x) cos(4y), not a one-sided exponential
    mode = GridFunction.from_callable(g, lambda x, y, z: np.cos(4 * x) * np.cos(4 * y))
    pts = rng.uniform(0.0, g.length, size=(3, 3))
    np.testing.assert_allclose(fourier_eval(mode, pts), np.cos(4 * pts[:, 0]) * np.cos(4 * pts[:, 1]), atol=1e-12)


@pytest.mark.parametrize("d, n", [(2, 6), (3, 8), (4, 4)])
def test_fourier_eval_blocks_match_pointwise_sum(monkeypatch, rng, d, n):
    # a five-point block budget, so 23 points take four full blocks and a partial one
    g = Grid(d, n, 3.0)
    monkeypatch.setattr(grid_module, "FOURIER_EVAL_BLOCK_BYTES", 5 * 16 * n ** (d - 1))
    f = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    pts = rng.uniform(-g.length, 2 * g.length, size=(23, d))
    fhat = scipy.fft.fftn(f.values) / g.node_count()
    nyq = n // 2
    want = []
    for x in pts:
        factors = [np.exp(1j * g.k_axis * xj) for xj in x]
        for factor, xj in zip(factors, x):
            factor[nyq] = np.cos(g.k_axis[nyq] * xj)
        want.append(np.sum(fhat * functools.reduce(np.multiply.outer, factors)))
    np.testing.assert_allclose(fourier_eval(f, pts), want, rtol=0, atol=1e-13)


def test_small_transforms_run_on_one_worker(monkeypatch, restore_fft_workers):
    seen = []

    def recording(transform):
        def wrapped(values, workers=None, **kwargs):
            seen.append((values.shape[0], workers))
            return transform(values, workers=workers, **kwargs)

        return wrapped

    monkeypatch.setattr(scipy.fft, "fftn", recording(scipy.fft.fftn))
    monkeypatch.setattr(scipy.fft, "ifftn", recording(scipy.fft.ifftn))
    set_fft_workers(2)
    for n in (16, 32, 64):
        ifftn(fftn(np.zeros((n,) * 3, dtype=np.complex128)))
    assert seen == [(16, 1), (16, 1), (32, 1), (32, 1), (64, 2), (64, 2)]


@pytest.mark.parametrize("n", [32, 64])
def test_transforms_do_not_depend_on_worker_count(rng, restore_fft_workers, n):
    x = rng.standard_normal((n,) * 3) + 1j * rng.standard_normal((n,) * 3)
    set_fft_workers(1)
    one = fftn(x), ifftn(x)
    set_fft_workers(2)
    two = fftn(x), ifftn(x)
    assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])



@pytest.mark.parametrize("d,n", [(3, 8), (3, 16), (3, 32), (3, 64), (4, 8)])
def test_stacked_transform_equals_separate_transforms(rng, restore_fft_workers, d, n):
    # one call over the last d axes of a (d,) + shape stack against d calls;
    # the (3, 64^3) call runs on two workers
    set_fft_workers(2)
    shape = (d,) + (n,) * d
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(1, d + 1))
    for transform in (fftn, ifftn):
        batched = transform(stack.copy(), axes=axes, overwrite_x=True)
        for j in range(d):
            assert batched[j].tobytes() == transform(stack[j]).tobytes()


def test_stacked_transform_workers_count_the_whole_call(monkeypatch, restore_fft_workers):
    seen = []

    def wrapped(values, workers=None, **kwargs):
        seen.append(workers)
        return np.asarray(values, dtype=np.complex128)

    monkeypatch.setattr(scipy.fft, "ifftn", wrapped)
    set_fft_workers(2)
    for n in (32, 64):
        ifftn(np.zeros((3,) + (n,) * 3, dtype=np.complex128), axes=(1, 2, 3))
    # 3 * 32^3 values stay below THREADED_MIN_NODES = 64^3
    assert seen == [1, 2]


@pytest.mark.parametrize("d,n", [(3, 16), (4, 8)])
def test_gradient_apply_matches_componentwise_transforms(rng, d, n):
    grid = Grid(d, n, 16.0)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    fhat = fftn(f.values)
    grad = gradient_apply(f)
    for j in range(d):
        assert grad[j].tobytes() == ifftn(grid.ik_components[j] * fhat).tobytes()


@pytest.mark.parametrize("n", [8, 16])
def test_apply_symbol_array_multiplies_the_transform_first(rng, n):
    # the order numpy's temporary elision gives from 32^3 on; with a complex
    # symbol, S * fftn(f) rounds differently below that
    grid = Grid(3, n, 16.0)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    sym = np.power(complex(2.0, 1.0) + grid.k_squared, -0.7)
    t = fftn(f.values)
    t *= sym
    assert apply_symbol_array(sym, f).values.tobytes() == ifftn(t).tobytes()


def recording_kernel(seen):
    def kernel(out, *args):
        seen.append((threading.get_ident(), out.shape))

    return kernel


def test_split_pass_with_one_worker_starts_no_thread(monkeypatch, restore_fft_workers):
    monkeypatch.setattr(grid_module, "THREADED_MIN_NODES", 1)
    set_fft_workers(1)
    grid = Grid(3, 8, 16.0)
    threads, seen = threading.active_count(), []
    split_pass(recording_kernel(seen), np.zeros(grid.shape), grid=grid)
    assert seen == [(threading.get_ident(), grid.shape)]
    assert threading.active_count() == threads


def test_split_pass_below_the_threshold_is_one_call(restore_fft_workers):
    # 62^3 nodes are below THREADED_MIN_NODES, 64^3 reach it
    set_fft_workers(2)
    below, at = Grid(3, 62, 16.0), Grid(3, 64, 16.0)
    threads, seen = threading.active_count(), []
    split_pass(recording_kernel(seen), np.zeros(below.shape), grid=below)
    assert seen == [(threading.get_ident(), below.shape)]
    assert threading.active_count() == threads
    split_pass(recording_kernel(seen), np.zeros(at.shape), grid=at)
    assert sorted(shape for _, shape in seen[1:]) == [(32, 64, 64)] * 2


@pytest.mark.parametrize("workers,n,planes", [(3, 8, [2, 3, 3]), (6, 4, [1, 1, 1, 1])],
                         ids=["3-of-8", "6-capped-at-4"])
def test_split_pass_makes_min_of_workers_and_planes_slabs(monkeypatch, restore_fft_workers,
                                                          workers, n, planes):
    monkeypatch.setattr(grid_module, "THREADED_MIN_NODES", 1)
    set_fft_workers(workers)
    grid = Grid(3, n, 16.0)
    seen = []
    split_pass(recording_kernel(seen), np.zeros(grid.shape), grid=grid)
    assert sorted(shape[0] for _, shape in seen) == planes
    assert all(shape[1:] == grid.shape[1:] for _, shape in seen)
    assert len({ident for ident, _ in seen}) <= len(planes)
    assert threading.get_ident() in {ident for ident, _ in seen}


def test_split_pass_cuts_each_argument_along_its_first_grid_axis(monkeypatch, restore_fft_workers, rng):
    # a (d,) + shape stack is cut along axis 1, an axis of length 1 and a
    # scalar broadcast whole; the slabs write what the whole call writes
    monkeypatch.setattr(grid_module, "THREADED_MIN_NODES", 1)
    set_fft_workers(3)
    grid = Grid(3, 8, 16.0)
    stack = rng.standard_normal((3,) + grid.shape)
    ik0, ik1 = grid.ik_components[:2]

    def kernel(out, stack, ik0, ik1, scale):
        np.multiply(stack[1] * ik0 + ik1, scale, out=out)

    out = np.empty(grid.shape, dtype=np.complex128)
    split_pass(kernel, out, stack, ik0, ik1, 0.5, grid=grid)
    want = np.empty_like(out)
    kernel(want, stack, ik0, ik1, 0.5)
    assert out.tobytes() == want.tobytes()


def test_split_pass_cuts_a_batch_along_its_first_grid_axis(monkeypatch, restore_fft_workers, rng):
    # an (s,) + shape batch is cut along axis 1 and a (d, s) + shape
    # stack along axis 2, here with s = n; a grid-shaped argument is cut along axis 0
    monkeypatch.setattr(grid_module, "THREADED_MIN_NODES", 1)
    set_fft_workers(3)
    grid = Grid(3, 8, 16.0)
    stack = rng.standard_normal((3, 8) + grid.shape)
    out = rng.standard_normal((8,) + grid.shape) + 0j
    seen = []

    def kernel(out, stack, ik0, scale):
        seen.append(out.shape)
        np.multiply(stack[1] * ik0 + out, scale, out=out)

    want = out.copy()
    kernel(want, stack, grid.ik_components[0], 0.5)
    split_pass(kernel, out, stack, grid.ik_components[0], 0.5, grid=grid)
    assert out.tobytes() == want.tobytes()
    assert sorted(shape[1] for shape in seen[1:]) == [2, 3, 3]
    assert all(shape[0] == 8 and shape[2:] == grid.shape[1:] for shape in seen[1:])


def test_split_pass_takes_its_path_from_the_grids_nodes(restore_fft_workers):
    # a batch of 15 arrays of 8^4 nodes is one call: the grid has 4,096 nodes, though
    # 15^5 exceeds THREADED_MIN_NODES
    set_fft_workers(2)
    grid = Grid(4, 8, 16.0)
    seen = []
    split_pass(recording_kernel(seen), np.zeros((15,) + grid.shape), grid=grid)
    assert seen == [(threading.get_ident(), (15,) + grid.shape)]


@pytest.mark.parametrize("d,n,limit", [(3, 16, 21), (3, 32, 2), (3, 64, 0), (4, 8, 15)])
def test_batch_limit_keeps_a_batch_stack_below_the_threaded_size(d, n, limit):
    grid = Grid(d, n, 16.0)
    assert batch_limit(grid) == limit
    assert limit * d * grid.node_count() < grid_module.THREADED_MIN_NODES
    assert (limit + 1) * d * grid.node_count() >= grid_module.THREADED_MIN_NODES


def test_run_on_workers_runs_the_first_task_on_the_caller(restore_fft_workers):
    set_fft_workers(3)
    idents = run_on_workers([threading.get_ident] * 3)
    assert idents[0] == threading.get_ident()
    set_fft_workers(1)
    assert run_on_workers([threading.get_ident]) == [threading.get_ident()]


def test_run_on_workers_with_one_worker_runs_every_task_in_order_on_the_caller(monkeypatch, restore_fft_workers):
    set_fft_workers(1)

    def no_pool():
        raise AssertionError("a pool was asked for at one worker")

    monkeypatch.setattr(grid_module, "_slab_pool", no_pool)
    calls = []

    def task(i):
        calls.append((i, threading.get_ident()))
        return i

    assert run_on_workers([functools.partial(task, i) for i in range(3)]) == [0, 1, 2]
    assert calls == [(i, threading.get_ident()) for i in range(3)]


def test_split_pass_under_fast_thread_switching(monkeypatch, restore_fft_workers, rng):
    # more workers than cores, switching every microsecond: slabs that wrote
    # over each other or a slab left out would change the in-place sum
    monkeypatch.setattr(grid_module, "THREADED_MIN_NODES", 1)
    set_fft_workers(4)
    grid = Grid(3, 16, 16.0)
    term = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    total, want = np.zeros_like(term), np.zeros_like(term)

    def accumulate(total, term, scale):
        total += term * scale

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(50):
            split_pass(accumulate, total, term, 1.0 + k, grid=grid)
            accumulate(want, term, 1.0 + k)
    finally:
        sys.setswitchinterval(saved)
    assert total.tobytes() == want.tobytes()
