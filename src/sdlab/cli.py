"""Configuration-driven experiment runner.

Subcommands mirror the experiment catalog.  Each experiment declares its
config keys once: kind, default and bound.  ``validate_config`` reads a
JSON config against that declaration into typed values, naming the
first offending key, before the experiment runs.  A run writes
deterministic CSV bodies plus a manifest into --out, and returns:

* exit 0 on success,
* exit 1 on a failed check or missing artifacts,
* exit 2 on a config schema violation,
* exit 3 when the requested run sits outside the smallness hypotheses
  (the series-inverse guard m_d c_p delta >= 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from . import constants as Cmod
from .acceptance import (
    CRITERIA,
    POWER_IDENTITY_TOL,
    RESIDUAL_TOL,
    WEAK_RESIDUAL_TOL,
    bounded_under_refinement,
    run_all,
    truncation_remainder,
)
from .errors import ConfigError, GuardViolationError, SpectralDomainError
from .fields import (
    PARAM_KINDS,
    default_lambda_grid,
    drift_from_config,
    estimate_class_F,
    estimate_class_F_half,
    estimate_class_K,
    guarded_pair,
    mollify,
    truncate,
)
from .grid import (
    Grid,
    GridFunction,
    GridVectorField,
    gaussian_bump,
    lp_norm,
    pairing,
    parse_thread_count,
    set_fft_workers,
)
from .gridio import save_grid_function, write_csv, write_manifest
from .kernels import (
    check_complex_domination,
    check_fractional_gradient_domination,
    check_fractional_power_identity,
    check_gradient_domination,
    radial_probes,
)
from .regularity import (
    bessel_smoothing_study,
    holder_probe,
    holder_separations,
    make_test_functions,
    rough_input,
    weak_identity_residual,
)
from .resolvent import (
    REPRESENTATIONS,
    ResolventAssembly,
    ResolventParams,
    generator_residual,
    norm_bound_report,
    pseudo_resolvent_residual,
    strong_convergence_study,
    zeta_ray_grid,
)
from .semigroup import SemigroupParams, evolve, semigroup_convergence_study, ultracontractivity_study
from .sim import mc_vs_semigroup

# -- the config schema ---------------------------------------------------

REQUIRED = object()
_finite = PARAM_KINDS["number"][1]


class Key(NamedTuple):
    """One config key.  ``read(value, path, ctx)`` returns its typed value or raises
    ConfigError naming ``path``; ``ctx`` holds the run's seed and experiment name and
    the keys read before this one.  The default is REQUIRED, a JSON value, or a
    function of ``ctx``, and is read like a given value."""

    kind: str
    bound: str
    default: Any
    read: Callable


def _fail(path, expected, value):
    raise ConfigError(f"{path}: expected {expected}, got {json.dumps(value)}")


def _as_given(value):
    return value


def number(default=REQUIRED, bound="", test=None, convert=float):
    """A finite JSON number (not a bool) within ``bound``, as a float unless ``convert`` says otherwise."""
    def read(value, path, ctx):
        if not _finite(value):
            _fail(path, "a finite number", value)
        if test is not None and not test(value):
            _fail(path, bound, convert(value))
        return convert(value)
    return Key("number", bound, default, read)


POSITIVE = ("a number > 0", lambda x: x > 0)


def count(default=REQUIRED, least=1, most=None):
    """A whole JSON number (3.0 is taken as 3, 2.5 is not) from ``least`` to ``most``, as an int."""
    bound = f"of at least {least}" if most is None else f"in {least}..{most}"

    def read(value, path, ctx):
        if not (_finite(value) and value == int(value) and least <= value <= (most or value)):
            _fail(path, f"a whole number {bound}", value)
        return int(value)
    return Key("whole number", bound, default, read)


def flag(default=False):
    """JSON true or false; any other value (0, "false", null) is refused."""
    def read(value, path, ctx):
        if not isinstance(value, bool):
            _fail(path, "true or false", value)
        return value
    return Key("true or false", "", default, read)


def choice(default, options):
    """One of the strings ``options``."""
    bound = f"one of {', '.join(options)}"

    def read(value, path, ctx):
        if not isinstance(value, str) or value not in options:
            _fail(path, f"a string, {bound}", value)
        return value
    return Key("string", bound, default, read)


def listof(entry, default=REQUIRED, indexed=False):
    """A nonempty JSON list of ``entry`` values, each read under the list's path (with [i] if ``indexed``)."""
    def read(value, path, ctx):
        if not isinstance(value, list) or not value:
            _fail(path, "a nonempty list", value)
        return [entry.read(x, f"{path}[{i}]" if indexed else path, ctx) for i, x in enumerate(value)]
    return Key(f"list of {entry.kind}s", entry.bound, default, read)


def _read_object(keys, value, path, ctx):
    """The typed values of the declared ``keys`` from the JSON object ``value`` at ``path``."""
    if not isinstance(value, dict):
        _fail(path or "config", "a JSON object", value)
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in keys:
            raise ConfigError(f"{prefix}{key}: unknown key; this object takes {', '.join(keys)}")
    typed = {}
    for key, spec in keys.items():
        sub = prefix + key
        if key in value:
            raw = value[key]
        elif spec.default is REQUIRED:
            raise ConfigError(f"{sub}: required key missing")
        else:
            raw = spec.default({**ctx, **typed}) if callable(spec.default) else spec.default
        try:
            typed[key] = spec.read(raw, sub, {**ctx, **typed})
        except (KeyError, ValueError) as exc:  # an sdlab constructor refused the value
            raise ConfigError(f"{sub}: {exc}") from exc
    return typed


def _point(value, path, ctx):
    """Exactly one finite JSON number per grid axis, as an array."""
    d = ctx["grid"].d
    if not isinstance(value, list) or len(value) != d or not all(map(_finite, value)):
        _fail(path, f"{d} coordinates", value)
    return np.array(value, dtype=float)


POINT = Key("point", "one finite number per grid axis", REQUIRED, _point)


GRID = {"d": count(3), "n": count(32), "L": number(16.0, *POSITIVE)}


def _grid(value, path, ctx):
    g = _read_object(GRID, value, path, ctx)
    return Grid(g["d"], g["n"], g["L"])


def _drift(value, path, ctx):
    """A field object (null: the zero field) as a function of the grid.

    ``truncate`` and ``mollify`` post-process the sampled field; every
    other key is the drift's, checked by ``drift_from_config``.  Its
    readers build the field while the config is read, so that a grid it
    does not fit is a config error too.
    """
    if value is None:
        return GridVectorField.zeros
    if not isinstance(value, dict):
        _fail(path, "a JSON object", value)
    post = [(fn, number(REQUIRED, *POSITIVE).read(value[key], f"{path}.{key}", ctx))
            for key, fn in (("truncate", truncate), ("mollify", mollify)) if key in value]
    spec = drift_from_config({k: v for k, v in value.items() if k not in ("truncate", "mollify")})

    def on(grid):
        b = spec.on_grid(grid)
        for fn, x in post:
            b = fn(b, x)
        return b
    return on


INPUT_KIND = choice("bump", ("bump", "noise"))
INPUTS = {
    "bump": {
        "kind": INPUT_KIND,
        "sigma2": number(lambda ctx: (ctx["grid"].length / 8.0) ** 2, "a positive width", lambda x: x > 0),
        "center": POINT._replace(default=lambda ctx: [ctx["grid"].length / 2.0] * ctx["grid"].d),
    },
    "noise": {"kind": INPUT_KIND, "seed": count(lambda ctx: ctx["seed"], least=0)},
}


def _input(value, path, ctx):
    """The input f on the grid, and the bump's closed form for the Monte Carlo payoff (None for noise)."""
    kind = INPUT_KIND.read(value.get("kind", "bump"), f"{path}.kind", ctx) if isinstance(value, dict) else "bump"
    f = SimpleNamespace(**_read_object(INPUTS[kind], value, path, ctx))
    if kind == "noise":
        return rough_input(ctx["grid"], f.seed), None
    return gaussian_bump(ctx["grid"], f.sigma2, f.center)


def _zeta(value, path, ctx):
    if value is not None and not (isinstance(value, list) and len(value) == 2 and all(map(_finite, value))):
        _fail(path, "a number pair [re, im]", value)
    return None if value is None else complex(*value)


# the resolvent set-up keys; an experiment takes those it names
SETUP = {
    "grid": Key("object", "", {}, _grid),
    "field": Key("field object or null", "", REQUIRED, lambda v, path, ctx: _drift(v, path, ctx)(ctx["grid"])),
    "p": number(2.0, "a number > 1", lambda x: x > 1),
    "lambda_grid": listof(number(REQUIRED, *POSITIVE), np.logspace(-1, 2, 5).tolist()),
    "guard_margin": number(0.7, "0 < margin < 1", lambda x: 0 < x < 1),
    "zeta": Key("[re, im] or null", "", None, _zeta),
    "f": Key("input object", "", {"kind": "bump"}, _input),
}
COMMON = {
    "schema": Key("1", "", 1, lambda v, path, ctx: v if v == 1 and not isinstance(v, bool) else _fail(path, 1, v)),
    "experiment": Key("string", "the subcommand's name", lambda ctx: ctx["name"],
                      lambda v, path, ctx: v if v == ctx["name"] else _fail(path, json.dumps(ctx["name"]), v)),
}
EXPERIMENTS = {}


def experiment(name, *setup, **keys):
    """Register a handler with the set-up keys it names and its own ``keys``."""
    def register(fn):
        EXPERIMENTS[name] = (fn, {**{k: SETUP[k] for k in setup}, **keys, **COMMON})
        return fn

    return register


def validate_config(name, cfg, seed=0):
    """The typed values of experiment ``name``'s JSON config; ConfigError names the first bad key."""
    return SimpleNamespace(**_read_object(EXPERIMENTS[name][1], cfg, "", {"seed": seed, "name": name}))


def _resolvent_setup(c, seed, zeta=None):
    """ResolventParams from the guarded F_half estimate of the config's field."""
    est = estimate_class_F_half(c.field, lambda_grid=np.asarray(c.lambda_grid), seed=seed)
    delta, lam = guarded_pair(est, p=c.p, d=c.grid.d, margin=c.guard_margin)
    if zeta is None:
        zeta = complex(2.0 * Cmod.kappa_d(c.grid.d) * lam, 0.0)
    return ResolventParams(p=c.p, zeta=zeta, delta=delta, lam=lam)


# -- experiment handlers -------------------------------------------------


@experiment(
    "constants",
    d=Key("whole number or list of them", "of at least 1", [3],
          lambda v, path, ctx: listof(count()).read(v if isinstance(v, list) else [v], path, ctx)),
    deltas=listof(number(convert=_as_given), [0.1, 0.2, 0.3]),  # a delta of 1 prints as 1
)
def run_constants(c, out, seed):
    rows = Cmod.constants_table(c.d, c.deltas)
    write_csv(out / "constants.csv",
              ["d", "m_d", "kappa_d", "feller_threshold", "delta", "I_lo", "I_hi"], rows)
    return 0


@experiment(
    "estimate-class", "grid", "field",
    classes=listof(choice(None, ("F_half", "F", "K")), ["F_half", "F", "K"]),
    lambda_grid=listof(number(REQUIRED, *POSITIVE), default_lambda_grid().tolist()),
)
def run_estimate_class(c, out, seed):
    est_fns = {"F_half": estimate_class_F_half, "F": estimate_class_F, "K": estimate_class_K}
    rows = []
    for cls in c.classes:
        kwargs = {} if cls == "K" else {"seed": seed}
        est = est_fns[cls](c.field, lambda_grid=np.asarray(c.lambda_grid), **kwargs)
        for lam, dv in zip(est.lambda_grid, est.delta_curve):
            rows.append((cls, lam, dv, ""))
        rows.append((cls, est.lam, est.delta, "min"))
    write_csv(out / "class_estimate.csv", ["class", "lambda", "delta", "tag"], rows)
    return 0


@experiment("resolvent", "grid", "field", "p", "zeta", "f", "lambda_grid", "guard_margin",
            representation=choice("direct", REPRESENTATIONS))
def run_resolvent(c, out, seed):
    params = _resolvent_setup(c, seed, c.zeta)
    u = ResolventAssembly(params, c.field, c.representation).apply(c.f[0])
    rel = generator_residual(params, c.field, c.f[0], u)
    ok = rel <= RESIDUAL_TOL
    save_grid_function(u, out / "resolvent_output")
    write_csv(out / "residual_report.csv", ["quantity", "lhs", "rhs_bound", "pass"],
              [("generator_equation_residual", rel, RESIDUAL_TOL, ok)])
    return 0 if ok else 1


@experiment("pseudo-resolvent", "grid", "field", "p", "lambda_grid", "guard_margin", n_pairs=count(10))
def run_pseudo_resolvent(c, out, seed):
    params = _resolvent_setup(c, seed)
    f = rough_input(c.grid, seed)
    pairs = list(combinations(zeta_ray_grid(params.lam, c.grid.d, n_ray=4, n_real=3), 2))[:c.n_pairs]
    rows = []
    for zeta, eta in pairs:
        r = pseudo_resolvent_residual(params, c.field, zeta, eta, f)
        rows.append((zeta, eta, r, r <= RESIDUAL_TOL))
    write_csv(out / "pseudo_resolvent.csv", ["zeta", "eta", "residual", "pass"], rows)
    return 0 if all(row[3] for row in rows) else 1


@experiment("norm-bounds", "grid", "field", "p", "lambda_grid", "guard_margin", n_starts=count(8))
def run_norm_bounds(c, out, seed):
    params = _resolvent_setup(c, seed)
    rows = norm_bound_report(params, c.field, n_starts=c.n_starts, seed=seed)
    write_csv(out / "norm_bounds.csv", ["quantity", "zeta", "measured", "bound", "pass"], rows)
    return 0


@experiment(
    "convergence-study", "grid", "field", "p", "f", "lambda_grid", "guard_margin",
    levels=listof(number(REQUIRED, *POSITIVE), [2, 4, 8, 16, 32]), t=number(0.1, *POSITIVE), steps=count(5),
)
def run_convergence_study(c, out, seed):
    params = _resolvent_setup(c, seed)
    res_curve = strong_convergence_study(params, c.field, c.levels, c.f[0])
    sg_p, sg_sup = semigroup_convergence_study(params, c.field, c.levels, c.t, c.steps, c.f[0])
    write_csv(out / "convergence.csv", ["level", "resolvent_err", "semigroup_err_p", "semigroup_err_sup"],
              zip(c.levels, res_curve, sg_p, sg_sup))
    return 0


@experiment("semigroup", "grid", "field", "p", "f", "lambda_grid", "guard_margin",
            t=number(0.1, *POSITIVE), steps=count(8), richardson=flag())
def run_semigroup(c, out, seed):
    params = _resolvent_setup(c, seed)
    u = evolve(SemigroupParams(c.t, c.steps, richardson=c.richardson), params, c.field, c.f[0])
    save_grid_function(u, out / "evolved")
    one = GridFunction(c.grid, np.ones(c.grid.shape))
    rows = [(c.t, c.steps, float(np.min(u.values.real)), lp_norm(u, np.inf), pairing(u, one).real)]
    write_csv(out / "semigroup.csv", ["t", "steps", "min", "sup", "mass"], rows)
    return 0


@experiment(
    "ultracontractivity", "grid", "p", "lambda_grid", "guard_margin",
    field=SETUP["field"]._replace(default=None),
    p_from=number(1.0),
    r_to=Key("number or \"inf\"", "", "inf",
             lambda v, path, ctx: np.inf if v in ("inf", None) else number().read(v, path, ctx)),
    t_grid=listof(number(REQUIRED, *POSITIVE), np.logspace(np.log10(0.02), np.log10(0.1), 6).tolist()),
    steps=count(16), n_sources=count(2),
)
def run_ultracontractivity(c, out, seed):
    params = _resolvent_setup(c, seed)
    slope, ts, norms = ultracontractivity_study(
        params, c.field, c.p_from, c.r_to, np.asarray(c.t_grid), steps=c.steps, n_sources=c.n_sources, seed=seed,
        neumann_tol=1e-7,
    )
    rows = [(t, nv, "") for t, nv in zip(ts, norms)] + [(float("nan"), slope, "fitted_slope")]
    write_csv(out / "ultracontractivity.csv", ["t", "value", "tag"], rows)
    return 0


KERNEL_CHECKS = ("A0", "A1", "A2", "A3", "A4", "A5")


@experiment(
    "verify-kernels",
    which=Key("comma-separated string or list of strings", f"tokens among {', '.join(KERNEL_CHECKS)}",
              ["A1", "A2", "A3", "A4", "A5", "A0"],
              lambda v, path, ctx: listof(choice(None, KERNEL_CHECKS)).read(
                  [w.strip() for w in v.split(",") if w.strip()] if isinstance(v, str) else v, path, ctx)),
    d=count(3),
)
def run_verify_kernels(c, out, seed):
    d = c.d
    distances = np.logspace(-1, 1, 6)
    re_zetas = np.logspace(np.log10(0.2), np.log10(20.0), 5)

    def complex_probes(qs):
        """Probes at zeta = rz (1 + i q) for each distance, Re zeta and q."""
        return radial_probes(d, distances, [complex(rz, q * rz) for rz in re_zetas for q in qs])

    def domination_csv(token, checked):
        """One kernels_<token>.csv row per checked probe; 0 when every probe passes, else 1."""
        rows = [(p_.distance, p_.zeta, lhs, rhs, ratio, ok) for (p_, lhs, rhs, ratio, ok, _) in checked]
        write_csv(out / f"kernels_{token}.csv", ["distance", "zeta", "lhs", "rhs", "ratio", "pass"], rows)
        return 0 if all(r[5] for r in rows) else 1

    status = 0
    for token in c.which:
        if token == "A1":
            status |= domination_csv(token, check_gradient_domination(complex_probes((-1.0, -0.5, 0.0))))
        elif token == "A2":
            rows, probes = [], radial_probes(d, distances, re_zetas)
            for r_exp in (1.5, 4.0):
                sup, checked = check_fractional_gradient_domination(probes, r_exp)
                rows += [(r_exp, p_.distance, p_.zeta, lhs, rhs, ratio) for (p_, lhs, rhs, ratio) in checked]
                rows.append((r_exp, float("nan"), "", float("nan"), float("nan"), sup))
            write_csv(out / "kernels_A2.csv", ["r", "distance", "zeta", "lhs", "rhs", "ratio_or_sup"], rows)
        elif token in ("A3", "A4"):
            rows_grad, rows_half = check_complex_domination(complex_probes((-1.0, -0.5, 0.5, 1.0)))
            status |= domination_csv(token, rows_grad if token == "A3" else rows_half)
        elif token == "A5":
            rows = []
            for q in (1.5, 2.0, 3.0):
                for r in (0.5, 1.0):
                    err = check_fractional_power_identity(1.0, q, (0.0,) * d, (r,) + (0.0,) * (d - 1), d=d)
                    rows.append((q, r, err, err <= POWER_IDENTITY_TOL))
            write_csv(out / "kernels_A5.csv", ["q", "distance", "rel_error", "pass"], rows)
            status |= 0 if all(r[3] for r in rows) else 1
        else:  # A0: criterion 9's fixed 3-D set-up, whatever d is
            levels, curve, passed = truncation_remainder()
            write_csv(out / "kernels_A0.csv", ["level", "l1_remainder"], zip(levels, curve))
            status |= 0 if passed else 1
    return status


@experiment("holder-probe", "grid", "field", "p", "f", "lambda_grid", "guard_margin", pairs_per_bin=count(2048))
def run_holder_probe(c, out, seed):
    holder_separations(c.grid)  # the grid is checked before any estimate or solve
    params = _resolvent_setup(c, seed)
    u = ResolventAssembly(params, c.field).apply(c.f[0])
    slope, resid, seps, maxima = holder_probe(GridFunction(c.grid, u.values.real), c.pairs_per_bin, seed=seed)
    rows = [(s, m, "") for s, m in zip(seps, maxima)] + [(float("nan"), slope, "fitted_slope")]
    write_csv(out / "holder.csv", ["separation", "value", "tag"], rows)
    return 0


SIZES = listof(count())


@experiment(
    "smoothing-study", "grid",
    sizes=Key(SIZES.kind, SIZES.bound, [16, 32, 64],  # one grid per size, with the base grid's d and L
              lambda v, path, ctx: [Grid(ctx["grid"].d, n, ctx["grid"].length) for n in SIZES.read(v, path, ctx)]),
    field=Key("field object or null", "", REQUIRED,
              lambda v, path, ctx: [_drift(v, path, ctx)(grid) for grid in ctx["sizes"]]),
    p=SETUP["p"]._replace(default=2.5), q=number(3.0, *POSITIVE),
    delta=number(0.25, "a number >= 0", lambda x: x >= 0), lam=number(1.0, *POSITIVE),
)
def run_smoothing_study(c, out, seed):
    params = ResolventParams(p=c.p, zeta=complex(2 * Cmod.kappa_d(c.grid.d) * c.lam, 0.0), delta=c.delta, lam=c.lam)
    rows = bessel_smoothing_study(c.field, params, c.q, seed=seed)
    outs = [row[1] for row in rows]
    ratios = [float("nan")] + [b / a for a, b in zip(outs, outs[1:])]
    write_csv(out / "smoothing.csv", ["n", "out_norm", "in_norm", "out_ratio"],
              [row + (ratio,) for row, ratio in zip(rows, ratios)])
    return 0 if bounded_under_refinement(outs) else 1


@experiment("weak-identity", "grid", "field", "p", "f", "lambda_grid", "guard_margin", count=count(5))
def run_weak_identity(c, out, seed):
    params = _resolvent_setup(c, seed)
    vs = make_test_functions(c.grid, count=c.count, seed=seed)
    worst = weak_identity_residual(params, c.field, c.f[0], vs)
    ok = worst <= WEAK_RESIDUAL_TOL
    write_csv(out / "weak_identity.csv", ["quantity", "lhs", "rhs_bound", "pass"],
              [("max_residual", worst, WEAK_RESIDUAL_TOL, ok)])
    return 0 if ok else 1


@experiment(
    "simulate", "grid", "field", "p", "f", "lambda_grid", "guard_margin",
    t=number(0.2, *POSITIVE), dt=number(1e-3, *POSITIVE),
    paths=count(20000, least=2),  # a payoff's standard error needs two paths
    starts=listof(POINT,
                  lambda ctx: [[ctx["grid"].length / 2.0 + dx, ctx["grid"].length / 2.0 + dy, ctx["grid"].length / 2.0 + dz]
                               for dx, dy, dz in ((1.0, 0, 0), (0, -1.2, 0), (0, 0, 1.4))], indexed=True),
    pde_steps=count(64), dump_terminal=flag(),
    drift_sign=number(-1.0, "-1 or 1", lambda x: x in (-1, 1)),
)
def run_simulate(c, out, seed):
    params = _resolvent_setup(c, seed)
    f, payoff_fn = c.f
    rows, ok, results = mc_vs_semigroup(
        c.field, params, f, c.starts, t=c.t, dt=c.dt, paths=c.paths, pde_steps=c.pde_steps, seed=seed,
        drift_sign=c.drift_sign, payoff_fn=payoff_fn,
    )
    rows = [(";".join(f"{x:g}" for x in start),) + tuple(rest) for start, *rest in rows]
    write_csv(out / "simulate.csv", ["start", "mc_mean", "mc_se", "pde_value", "diff", "budget", "pass", "flagged"],
              rows)
    if c.dump_terminal:
        write_csv(out / "terminal.csv", ["x", "y", "z"], [tuple(p) for p in results[0].terminal])
    return 0 if ok else 1


ONLY = listof(count(least=1, most=len(CRITERIA)))


@experiment("acceptance", only=Key(ONLY.kind, ONLY.bound, None,
                                   lambda v, path, ctx: None if v is None else ONLY.read(v, path, ctx)))
def run_acceptance(c, out, seed):
    results = run_all(None if c.only is None else set(c.only))
    rows = []
    ok = True
    for r in results:
        print(r.line(), flush=True)
        rows.append((r.index, r.name, r.passed, round(r.seconds, 3)))
        ok = ok and r.passed
    write_csv(out / "acceptance.csv", ["index", "name", "passed", "seconds"], rows)
    return 0 if ok else 1


@experiment("report")
def run_report(c, out, seed):
    csvs = sorted(out.glob("*.csv"))
    if not csvs:
        print(f"report: no artifacts found in {out}", file=sys.stderr)
        return 1
    lines = ["# Run digest", ""]
    titles = {
        "acceptance": "Acceptance suite",
        "constants": "Closed-form constants",
        "class_estimate": "Field class estimates",
        "residual_report": "Resolvent defining equation",
        "pseudo_resolvent": "Resolvent identity across spectral parameters",
        "norm_bounds": "Factor norm bounds",
        "convergence": "Truncation-ladder convergence",
        "semigroup": "Semigroup evolution summary",
        "ultracontractivity": "Smoothing-norm decay",
        "kernels_A0": "Truncation remainder decay (integral form)",
        "kernels_A1": "Gradient kernel domination",
        "kernels_A2": "Fractional gradient domination (empirical constant)",
        "kernels_A3": "Complex-parameter gradient domination",
        "kernels_A4": "Complex-parameter half-power domination",
        "kernels_A5": "Fractional-power integral identity",
        "holder": "Increment-exponent probe",
        "smoothing": "Smoothing-order refinement study",
        "weak_identity": "Distributional identity of the generator",
        "simulate": "Path-simulation cross-validation",
    }
    expected = set(titles)
    seen = set()
    for path in csvs:
        stem = path.stem
        seen.add(stem)
        body = path.read_text().strip().splitlines()
        if stem == "acceptance" and len(body) > 1:
            # one section per criterion so the digest mirrors the suite
            for row in body[1:]:
                idx, name, passed, secs = row.split(",", 3)
                mark = "PASS" if passed == "True" else "FAIL"
                lines.append(f"## Criterion {idx}: {name}")
                lines.append("")
                lines.append(f"- result: **{mark}** ({secs}s, from `{path.name}`)")
                lines.append("")
            continue
        title = titles.get(stem, stem)
        lines.append(f"## {title}")
        lines.append("")
        lines.append(f"- source: `{path.name}` ({max(0, len(body) - 1)} rows)")
        if len(body) > 1:
            lines.append(f"- header: `{body[0]}`")
            lines.append(f"- last row: `{body[-1]}`")
        lines.append("")
    gaps = expected - seen
    if gaps:
        lines.append("## Gaps")
        lines.append("")
        for g in sorted(gaps):
            lines.append(f"- no artifact for: {titles[g]} (`{g}.csv`)")
        lines.append("")
    digest = out / "digest.md"
    digest.write_text("\n".join(lines))
    print(f"wrote {digest}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sdlab",
        description="Desk-scale laboratory for diffusion operators with singular drifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--out", type=str, default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=None,
                        help="workers of a transform, or of a series' elementwise pass, of at least 64^3 values")
        if name == "acceptance":
            sp.add_argument("--only", type=str, default=None, help="comma-separated criterion indices")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    name = args.command
    threads = os.environ.get("SDL_THREADS")
    if threads is not None:
        n_threads = parse_thread_count(threads)
        if n_threads is None:
            print(f"config error: SDL_THREADS: expected a positive integer, got {threads!r}",
                  file=sys.stderr)
            return 2
        set_fft_workers(n_threads)
    elif args.threads is not None:
        try:
            set_fft_workers(args.threads)
        except ValueError as exc:
            print(f"config error: --threads: {exc}", file=sys.stderr)
            return 2
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config: cannot read {args.config}: {exc}", file=sys.stderr)
            return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        if name == "acceptance" and args.only and isinstance(cfg, dict):
            try:
                only = json.loads(f"[{args.only}]")
            except json.JSONDecodeError:
                only = [args.only]
            cfg = {**cfg, "only": ONLY.read(only, "--only", {})}
        status = EXPERIMENTS[name][0](validate_config(name, cfg, args.seed), out, args.seed)
    except (ConfigError, ValueError) as exc:
        # sdlab constructors reject out-of-range config values with ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GuardViolationError, SpectralDomainError) as exc:
        print(f"outside the admissible hypotheses: {exc}", file=sys.stderr)
        return 3
    write_manifest(out, cfg, args.seed, round(time.perf_counter() - t0, 3))
    return status


if __name__ == "__main__":
    sys.exit(main())
