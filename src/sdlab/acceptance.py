"""The acceptance suite: every headline claim checked at desk scale.

Each criterion function returns a CriterionResult with its pass flag and
the measured numbers; run_all executes them in order.  Tolerances are
fixed here, not configurable: they are the exit criteria of the build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import constants as C
from .errors import GuardViolationError
from .fields import (
    DriftSpec,
    estimate_class_F_half,
    guarded_pair,
    mollify,
    truncate,
)
from .grid import Grid, GridFunction, GridVectorField, lp_norm
from .kernels import (
    KernelProbe,
    check_complex_domination,
    check_fractional_power_identity,
    check_gradient_domination,
    kernel_value,
    truncation_l1_curve,
    yukawa_value,
)
from .regularity import bessel_smoothing_study, make_test_functions, weak_identity_residual
from .resolvent import (
    ResolventAssembly,
    ResolventParams,
    apply_generator,
    estimate_op_norm,
    pseudo_resolvent_residual,
    strong_convergence_study,
    zeta_ray_grid,
)
from .semigroup import SemigroupParams, evolve, semigroup_convergence_study, ultracontractivity_study
from .sim import mc_vs_semigroup

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        details = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"[{status}] criterion {self.index:2d} {self.name}: {details}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, (list, tuple)) and v and isinstance(v[0], float):
        return "[" + ", ".join(f"{x:.3g}" for x in v) + "]"
    return str(v)


def _timed(fn):
    def wrapper():
        t0 = time.perf_counter()
        res = fn()
        res.seconds = time.perf_counter() - t0
        return res

    wrapper.__name__ = fn.__name__
    return wrapper


_cache = {}


def _hardy(n, L, c):
    key = ("hardy", n, L, c)
    if key not in _cache:
        _cache[key] = DriftSpec("hardy", c=c).on_grid(Grid(3, n, L))
    return _cache[key]


def _estimate(field_key, b, lams):
    key = ("est", field_key, tuple(np.round(lams, 12)))
    if key not in _cache:
        _cache[key] = estimate_class_F_half(b, lambda_grid=lams)
    return _cache[key]


@_timed
def constants_consistency():
    """Closed-form constants: cross-formula agreement and interval guards."""
    worst = 0.0
    for d in range(2, 11):
        a, b = C.m_d(d), C.m_d_squared_form(d)
        worst = max(worst, abs(a - b) / a)
    ok = worst <= 1e-12
    md = C.m_d(3)
    contains_two = True
    guard_ok = True
    rng = np.random.default_rng(0)
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        delta = frac / md
        lo, hi = C.interval_I(delta, 3)
        contains_two = contains_two and lo < 2.0 < hi
        span = hi - lo
        ps = rng.uniform(lo + 1e-9 * span, hi - 1e-9 * span, size=20)
        guard_ok = guard_ok and all(C.neumann_guard_value(p, delta, 3) < 1.0 for p in ps)
    return CriterionResult(
        1,
        "constants formulas and exponent-interval guard",
        ok and contains_two and guard_ok,
        {"max_formula_mismatch": worst, "interval_contains_2": contains_two, "guard_all": guard_ok},
    )


@_timed
def resolvent_identity_oracle():
    """(zeta + generator) R(zeta) f = f on the 8^3 grid, three bounded fields."""
    g = Grid(3, 8, 8.0)
    fields = [
        DriftSpec("constant", vector=[0.1, -0.05, 0.2]).on_grid(g),
        DriftSpec("smooth-random", amp=0.2, kmax=1, seed=1).on_grid(g),
        truncate(DriftSpec("hardy", c=0.3).on_grid(g), 0.25),
    ]
    rng = np.random.default_rng(2)
    f = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    p = 2.5
    worst = 0.0
    for b in fields:
        est = estimate_class_F_half(b, lambda_grid=np.logspace(-1, 2, 5))
        delta, lam = guarded_pair(est, p=p, d=3)
        for zeta in zeta_ray_grid(lam, 3, n_ray=3, n_real=2):
            pr = ResolventParams(p=p, zeta=zeta, delta=delta, lam=lam)
            u = ResolventAssembly(pr, b).apply(f)
            resid = zeta * u + apply_generator(b, u) - f
            worst = max(worst, lp_norm(resid, p) / lp_norm(f, p))
    return CriterionResult(
        2, "resolvent solves the generator equation", worst <= 1e-8, {"max_residual": worst}
    )


@_timed
def pseudo_resolvent_identity():
    """First resolvent identity residual on 16^3, two fields, 10 zeta pairs."""
    g = Grid(3, 16, 16.0)
    fields = [
        truncate(DriftSpec("hardy", c=0.2).on_grid(g), 2.0),
        DriftSpec("smooth-random", amp=0.2, kmax=1, seed=7).on_grid(g),
    ]
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(g.shape) + 0j)
    worst = 0.0
    for b in fields:
        est = estimate_class_F_half(b, lambda_grid=np.logspace(-1, 2, 5))
        delta, lam = guarded_pair(est, p=2.5, d=3)
        pr = ResolventParams(p=2.5, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
        zetas = zeta_ray_grid(lam, 3, n_ray=3, n_real=2)
        pairs = [(zetas[i], zetas[j]) for i in range(len(zetas)) for j in range(i + 1, len(zetas))]
        for zeta, eta in pairs[:10]:
            worst = max(worst, pseudo_resolvent_residual(pr, b, zeta, eta, f))
    return CriterionResult(
        3, "pseudo-resolvent identity", worst <= 1e-8, {"max_residual": worst}
    )


@_timed
def representation_agreement():
    """All four factorizations agree pairwise on 32^3 with the pole field."""
    g = Grid(3, 32, 16.0)
    b = _hardy(32, 16.0, 0.2)
    est = _estimate("hardy32", b, np.logspace(-1, 2, 6))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    pr = ResolventParams(p=2.0, zeta=complex(2.0 * lam, lam), delta=delta, lam=lam)
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    outs = [ResolventAssembly(pr, b, rep).apply(f) for rep in
            ("direct", "fractional", "split", "symmetric")]
    scale = lp_norm(outs[0], 2)
    worst = 0.0
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            worst = max(worst, lp_norm(outs[i] - outs[j], 2) / scale)
    return CriterionResult(
        4, "factorizations agree pairwise", worst <= 1e-8, {"max_pairwise": worst}
    )


@_timed
def loop_norm_bounds():
    """Measured loop-factor norms against m_d c_p delta (and delta at p = 2)."""
    g = Grid(3, 32, 16.0)
    catalog = {
        "hardy": _hardy(32, 16.0, 0.2),
        "sphere": DriftSpec("sphere", beta=0.5, amp=0.15).on_grid(g),
        "smooth-random": DriftSpec("smooth-random", amp=0.2, kmax=2, seed=11).on_grid(g),
        "constant": DriftSpec("constant", vector=[0.2, 0.0, 0.0]).on_grid(g),
    }
    md = C.m_d(3)
    kd = C.kappa_d(3)
    rows = {}
    ok = True
    for name, b in catalog.items():
        est = estimate_class_F_half(b)
        pairs = [(est.delta, est.lam)]
        try:
            pairs.append(guarded_pair(est, p=2.5, d=3, margin=0.7))
        except GuardViolationError:
            pass
        for delta, lam in pairs:
            for p in (2.0, 2.5):
                guard = C.neumann_guard_value(p, delta, 3)
                if guard >= 1.0:
                    continue
                pr = ResolventParams(p=p, zeta=complex(kd * lam, 0.0), delta=delta, lam=lam)
                a = ResolventAssembly(pr, b)
                measured = estimate_op_norm(a.loop_factor(), p, n_starts=64, tol=1e-4, seed=0)
                bound = md * C.c_p(p) * delta
                if p == 2.0:
                    bound = min(bound, delta)
                passed = measured <= bound * 1.05
                ok = ok and passed
                rows[f"{name}_p{p}_lam{lam:.3g}"] = (measured, bound, passed)
    summary = {k: f"{m:.3g}<={b_:.3g}:{p_}" for k, (m, b_, p_) in rows.items()}
    return CriterionResult(5, "loop-factor norm bounds", ok, summary)


@_timed
def truncation_convergence():
    """Resolvent and semigroup errors decrease along the truncation ladder."""
    g = Grid(3, 96, 4.0)
    b = _hardy(96, 4.0, 0.25)
    est = _estimate("hardy96", b, np.array([1.0]))
    delta, lam = est.delta, est.lam
    p = 2.0
    pr = ResolventParams(p=p, zeta=complex(2.0 * C.kappa_d(3) * lam, 0.0), delta=delta, lam=lam)
    center = g.length / 2.0
    f = GridFunction.from_callable(
        g, lambda x, y, z: np.exp(-((x - center) ** 2 + (y - center) ** 2 + (z - center) ** 2) / 0.18)
    )
    levels = [2.0, 4.0, 8.0, 16.0, 32.0]
    b_ref = truncate(b, 64.0)
    res_curve = strong_convergence_study(pr, b, levels, f, truncate, b_ref=b_ref)
    sg_curve, sg_sup = semigroup_convergence_study(
        pr, b, levels, 0.1, 5, f, truncate, b_ref=b_ref, neumann_tol=1e-9
    )

    def monotone(c):
        return all(c[i + 1] <= c[i] * (1 + 1e-9) + 1e-14 for i in range(len(c) - 1))

    ok = (
        monotone(res_curve)
        and monotone(sg_curve)
        and monotone(sg_sup)
        and res_curve[-1] < 0.1 * res_curve[0]
        and sg_curve[-1] < 0.1 * sg_curve[0]
        and sg_sup[-1] < 0.1 * sg_sup[0]
    )
    return CriterionResult(
        6,
        "truncation ladder convergence",
        ok,
        {
            "resolvent_curve": list(res_curve),
            "semigroup_curve": list(sg_curve),
            "semigroup_sup_curve": list(sg_sup),
        },
    )


@_timed
def positivity_and_contraction():
    """Evolved nonnegative bump stays nonnegative; sup norm does not grow."""
    g = Grid(3, 32, 16.0)
    smooth_fields = [
        mollify(truncate(_hardy(32, 16.0, 0.2), 4.0), 1.25),
        mollify(truncate(DriftSpec("sphere", beta=0.5, amp=0.15).on_grid(g), 4.0), 1.25),
        mollify(DriftSpec("smooth-random", amp=0.3, kmax=2, seed=5).on_grid(g), 1.25),
    ]
    bump = GridFunction.from_callable(
        g, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2 + (z - 8) ** 2) / 4.5)
    )
    sup0 = lp_norm(bump, np.inf)
    worst_min = 0.0
    worst_sup = 0.0
    for b in smooth_fields:
        est = estimate_class_F_half(b, lambda_grid=np.logspace(-1, 2, 5))
        delta, lam = guarded_pair(est, p=2.0, d=3)
        pr = ResolventParams(p=2.0, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
        u = evolve(SemigroupParams(0.2, 8), pr, b, bump)
        worst_min = min(worst_min, float(np.min(u.values.real)))
        worst_sup = max(worst_sup, lp_norm(u, np.inf))
    ok = worst_min >= -1e-8 * sup0 and worst_sup <= (1 + 1e-8) * sup0
    return CriterionResult(
        7,
        "positivity and sup-norm contraction",
        ok,
        {"worst_min": worst_min, "worst_sup": worst_sup, "sup_f": sup0},
    )


@_timed
def ultracontractivity_exponent():
    """1 -> inf smoothing norm decays like t^(-3/2) with and without drift."""
    g = Grid(3, 64, 16.0)
    t_grid = np.logspace(np.log10(0.02), np.log10(0.1), 6)
    b0 = GridVectorField.zeros(g)
    pr0 = ResolventParams(p=2.0, zeta=2.0, delta=0.0, lam=0.5)
    slope_free, _, _ = ultracontractivity_study(
        pr0, b0, 1, np.inf, t_grid, steps=24, n_sources=1, neumann_tol=1e-8
    )
    b = mollify(truncate(_hardy(64, 16.0, 0.2), 8.0), 1.0)
    est = estimate_class_F_half(b, lambda_grid=np.array([0.25, 1.0, 4.0]))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    pr = ResolventParams(p=2.0, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
    slope_drift, _, _ = ultracontractivity_study(
        pr, b, 1, np.inf, t_grid, steps=24, n_sources=2, neumann_tol=1e-6
    )
    target = -1.5
    ok = abs(slope_free - target) <= 0.1 * abs(target) and abs(slope_drift - target) <= 0.1 * abs(target)
    return CriterionResult(
        8,
        "smoothing-norm decay exponent",
        ok,
        {"slope_free": slope_free, "slope_drift": slope_drift, "target": target},
    )


@_timed
def kernel_estimates():
    """Pointwise kernel dominations, the fractional-power identity, the
    closed-form check, and the truncation remainder decay."""
    distances = np.logspace(-1, 1, 10)
    re_zetas = np.logspace(np.log10(0.2), np.log10(20.0), 10)
    ratios_neg = np.linspace(-1.0, 0.0, 8)
    probes_a1 = [
        KernelProbe(3, (0.0, 0.0, 0.0), (r, 0.0, 0.0), complex(rz, q * rz), 2.0)
        for r in distances
        for rz in re_zetas
        for q in ratios_neg
    ]
    rows1 = check_gradient_domination(probes_a1)
    a1_pass = sum(1 for r in rows1 if r[4])
    ratios_pm = np.array([-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0])
    probes_c = [
        KernelProbe(3, (0.0, 0.0, 0.0), (r, 0.0, 0.0), complex(rz, q * rz), 2.0)
        for r in distances
        for rz in re_zetas
        for q in ratios_pm
    ]
    rows_grad, rows_half = check_complex_domination(probes_c)
    c_grad_pass = sum(1 for r in rows_grad if r[4])
    c_half_pass = sum(1 for r in rows_half if r[4])

    yuk_worst = 0.0
    for r in np.logspace(-1, 1, 20):
        got = kernel_value(KernelProbe(3, (0, 0, 0), (r, 0, 0), 1.0, 2.0))
        want = yukawa_value(r, 1.0)
        yuk_worst = max(yuk_worst, abs(got - want) / abs(want))

    a5_worst = 0.0
    combos = [
        (q, r, z)
        for q in (1.5, 2.0, 3.0, 6.0)
        for r, z in ((0.3, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, complex(2.0, 1.0)), (0.5, complex(1.0, -0.5)))
    ]
    for q, r, z in combos:
        a5_worst = max(
            a5_worst,
            check_fractional_power_identity(z, q, (0.0, 0.0, 0.0), (r, 0.0, 0.0)),
        )

    g = Grid(3, 64, 4.0)
    b = _hardy(64, 4.0, 0.2)
    center = g.length / 2.0
    f = GridFunction.from_callable(
        g, lambda x, y, z: np.exp(-((x - center) ** 2 + (y - center) ** 2 + (z - center) ** 2) / 0.18)
    )
    curve = truncation_l1_curve(b, f, 2.0, [0.25, 0.5, 1.0, 2.0], truncate)
    a0_ok = all(curve[i + 1] < curve[i] for i in range(len(curve) - 1)) and curve[-1] < 0.05 * curve[0]

    ok = (
        a1_pass == len(probes_a1)
        and c_grad_pass == len(probes_c)
        and c_half_pass == len(probes_c)
        and yuk_worst <= 1e-9
        and a5_worst <= 1e-6
        and a0_ok
    )
    return CriterionResult(
        9,
        "kernel estimates and integral identity",
        ok,
        {
            "grad_domination": f"{a1_pass}/{len(probes_a1)}",
            "complex_grad": f"{c_grad_pass}/{len(probes_c)}",
            "complex_half": f"{c_half_pass}/{len(probes_c)}",
            "yukawa_worst": yuk_worst,
            "identity_worst": a5_worst,
            "truncation_curve": list(curve),
        },
    )


@_timed
def weak_identity():
    """Distributional identity of the generator on 32^3, five test functions."""
    g = Grid(3, 32, 16.0)
    b = _hardy(32, 16.0, 0.2)
    est = _estimate("hardy32", b, np.logspace(-1, 2, 6))
    delta, lam = guarded_pair(est, p=2.5, d=3)
    pr = ResolventParams(p=2.5, zeta=complex(2 * lam, 0.5 * lam), delta=delta, lam=lam)
    rng = np.random.default_rng(12)
    f = GridFunction(g, rng.standard_normal(g.shape) + 0j)
    vs = make_test_functions(g, count=5, seed=0)
    worst = weak_identity_residual(pr, b, f, vs)
    return CriterionResult(10, "weak identity of the generator", worst <= 1e-6, {"max_residual": worst})


@_timed
def feller_cross_validation():
    """Monte Carlo vs semigroup at five starts, plus the sign-flip mutation."""
    g = Grid(3, 32, 16.0)
    b = mollify(truncate(_hardy(32, 16.0, 0.2), 8.0), 1.25)
    est = estimate_class_F_half(b, lambda_grid=np.logspace(-1, 2, 5))
    delta, lam = guarded_pair(est, p=2.0, d=3)
    pr = ResolventParams(p=2.0, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
    f = GridFunction.from_callable(
        g, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2 + (z - 8) ** 2) / 4.5)
    )

    def bump(pts):
        return np.exp(-np.sum((pts - 8.0) ** 2, axis=1) / 4.5)

    starts = [
        np.array([9.2, 8.0, 8.0]),
        np.array([8.0, 6.6, 8.0]),
        np.array([6.8, 8.3, 8.0]),
        np.array([8.5, 8.0, 9.1]),
        np.array([8.0, 8.9, 7.2]),
    ]
    common = dict(t=0.3, dt=1e-3, paths=100_000, pde_steps=192, seed=10, payoff_fn=bump)
    rows, ok_right, _ = mc_vs_semigroup(b, pr, f, starts, **common)
    _, ok_wrong, _ = mc_vs_semigroup(b, pr, f, starts, drift_sign=+1.0,
                                     pde_values=[r[3] for r in rows], **common)
    diffs = [r[4] for r in rows]
    budgets = [r[5] for r in rows]
    return CriterionResult(
        11,
        "path-simulation cross-validation with mutation control",
        ok_right and not ok_wrong,
        {"diffs": diffs, "budgets": budgets, "mutation_detected": not ok_wrong},
    )


@_timed
def smoothing_refinement():
    """Order-(1+1/q) norms of resolvent outputs stay bounded under refinement."""
    p, q = 2.5, 3.0
    delta, lam = 0.25, 1.0
    pr = ResolventParams(p=p, zeta=complex(2 * C.kappa_d(3) * lam, 0.0), delta=delta, lam=lam)
    fields = [_hardy(n, 16.0, 0.2) for n in (16, 32, 64)]
    rows = bessel_smoothing_study(fields, pr, q, seed=21)
    outs = [r[1] for r in rows]
    ins = [r[2] for r in rows]
    bounded = all(outs[i + 1] <= outs[i] * 1.1 for i in range(len(outs) - 1))
    diverging = all(ins[i + 1] > 1.5 * ins[i] for i in range(len(ins) - 1))
    return CriterionResult(
        12,
        "smoothing-order norms bounded under refinement",
        bounded and diverging,
        {"output_norms": outs, "input_norms": ins},
    )


CRITERIA = [
    constants_consistency,
    resolvent_identity_oracle,
    pseudo_resolvent_identity,
    representation_agreement,
    loop_norm_bounds,
    truncation_convergence,
    positivity_and_contraction,
    ultracontractivity_exponent,
    kernel_estimates,
    weak_identity,
    feller_cross_validation,
    smoothing_refinement,
]


def run_all(indices=None):
    results = []
    for i, fn in enumerate(CRITERIA, start=1):
        if indices is not None and i not in indices:
            continue
        results.append(fn())
    return results
