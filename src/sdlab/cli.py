"""Configuration-driven experiment runner.

Subcommands mirror the experiment catalog; each consumes a JSON config
(validated against a per-experiment key schema, offending keys named),
writes deterministic CSV bodies plus a manifest into --out, and returns:

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
from pathlib import Path

import numpy as np

from . import constants as Cmod
from .acceptance import CRITERIA, run_all
from .errors import ConfigError, GuardViolationError, SpectralDomainError
from .fields import (
    default_lambda_grid,
    drift_from_config,
    estimate_class_F,
    estimate_class_F_half,
    estimate_class_K,
    guarded_pair,
    mollify,
    truncate,
)
from .grid import Grid, GridFunction, GridVectorField, lp_norm, pairing, parse_thread_count, set_fft_workers
from .gridio import save_grid_function, write_csv, write_manifest
from .kernels import (
    KernelProbe,
    check_complex_domination,
    check_fractional_gradient_domination,
    check_fractional_power_identity,
    check_gradient_domination,
    truncation_l1_curve,
)
from .regularity import (
    bessel_smoothing_study,
    holder_probe,
    holder_separations,
    make_test_functions,
    weak_identity_residual,
)
from .resolvent import (
    ResolventAssembly,
    ResolventParams,
    apply_generator,
    norm_bound_report,
    pseudo_resolvent_residual,
    strong_convergence_study,
    zeta_ray_grid,
)
from .semigroup import SemigroupParams, evolve, semigroup_convergence_study, ultracontractivity_study
from .sim import mc_vs_semigroup

EXPERIMENTS = {}


def experiment(name, required=(), optional=()):
    def register(fn):
        EXPERIMENTS[name] = {
            "fn": fn,
            "required": set(required),
            "optional": set(optional) | {"schema", "experiment"},
        }
        return fn

    return register


def _nonfinite_key(value, key=""):
    """Key path of the first NaN or infinite number in a config value, else None."""
    if isinstance(value, float) and not np.isfinite(value):
        return key
    if isinstance(value, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for sub_key, sub in items:
        found = _nonfinite_key(sub, sub_key)
        if found is not None:
            return found
    return None


def validate_config(name, cfg):
    spec = EXPERIMENTS[name]
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    if cfg.get("schema", 1) != 1:
        raise ConfigError("schema: unsupported value, expected 1")
    if "experiment" in cfg and cfg["experiment"] != name:
        raise ConfigError(f"experiment: config names {cfg['experiment']!r}, subcommand is {name!r}")
    allowed = spec["required"] | spec["optional"]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown key for experiment {name!r}")
    for key in spec["required"]:
        if key not in cfg:
            raise ConfigError(f"{key}: required key missing for experiment {name!r}")
    bad = _nonfinite_key(cfg)
    if bad is not None:
        raise ConfigError(f"{bad}: non-finite number; every config number must be finite")
    return cfg


def _object_from(cfg, key, default):
    """cfg[key] (``default`` if absent), which must be a JSON object."""
    value = cfg.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a JSON object, got {json.dumps(value)}")
    return value


def _number(value, key):
    """A config value as a float; it must be a JSON number, not null, a bool, a string or a list."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {json.dumps(value)}")
    return float(value)


def _number_from(cfg, key, default):
    """cfg[key] (``default`` if absent) as a float, which must be a JSON number."""
    return _number(cfg.get(key, default), key)


def _count(value, key, least=1):
    """A config value as an int, which must be a whole JSON number (3.0 is taken, 2.5 is not) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value) or value < least:
        raise ConfigError(f"{key}: expected a whole number of at least {least}, got {json.dumps(value)}")
    return int(value)


def _count_from(cfg, key, default):
    """cfg[key] (``default`` if absent) as an int, which must be a whole number of at least 1."""
    return _count(cfg.get(key, default), key)


def _flag_from(cfg, key):
    """cfg[key] (false if absent), which must be JSON true or false."""
    value = cfg.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true or false, got {json.dumps(value)}")
    return value


def _list_from(cfg, key, default, cast=None):
    """cfg[key] (``default`` if absent), a nonempty JSON list of numbers, or of entries through ``cast``."""
    values = cfg.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key}: expected a nonempty list, got {json.dumps(values)}")
    return [_number(x, key) if cast is None else cast(x) for x in values]


def _point(value, key, d):
    """A config value as a point: a list of exactly d finite JSON numbers."""
    if not isinstance(value, list) or len(value) != d or not np.isfinite([_number(x, key) for x in value]).all():
        raise ConfigError(f"{key}: expected {d} coordinates, got {json.dumps(value)}")
    return np.array(value, dtype=float)


def _grid_from(cfg):
    g = _object_from(cfg, "grid", {})
    for key in g:
        if key not in {"n", "L", "d"}:
            raise ConfigError(f"grid.{key}: unknown key")
    return Grid(_count(g.get("d", 3), "grid.d"), _count(g.get("n", 32), "grid.n"), _number(g.get("L", 16.0), "grid.L"))


def _field_from(cfg, grid):
    if cfg.get("field") is None:
        return GridVectorField.zeros(grid)
    fc = dict(_object_from(cfg, "field", None))
    level = fc.pop("truncate", None)
    eps = fc.pop("mollify", None)
    try:
        b = drift_from_config(fc).on_grid(grid)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"field: {exc}") from exc
    if level is not None:
        b = truncate(b, _number(level, "field.truncate"))
    if eps is not None:
        b = mollify(b, _number(eps, "field.mollify"))
    return b


INPUT_KEYS = {"bump": {"kind", "sigma2", "center"}, "noise": {"kind", "seed"}}


def _input_from(cfg, grid, seed, with_callable=False):
    fc = _object_from(cfg, "f", {"kind": "bump"})
    kind = fc.get("kind", "bump")
    if kind not in INPUT_KEYS:
        raise ConfigError(f"f.kind: unknown input kind {kind!r}")
    for key in fc:
        if key not in INPUT_KEYS[kind]:
            raise ConfigError(f"f.{key}: unknown key for input kind {kind!r}")
    if kind == "bump":
        sigma2 = _number(fc.get("sigma2", (grid.length / 8.0) ** 2), "f.sigma2")
        if not sigma2 > 0:
            raise ConfigError(f"f.sigma2: expected a positive width, got {sigma2!r}")
        c = _point(fc.get("center", [grid.length / 2.0] * grid.d), "f.center", grid.d)
        coords = grid.coordinates()
        r2 = sum((x - ci) ** 2 for x, ci in zip(coords, c))
        f = GridFunction(grid, np.exp(-r2 / sigma2).astype(np.complex128))
        if with_callable:
            return f, lambda pts: np.exp(-np.sum((pts - c) ** 2, axis=1) / sigma2)
        return f
    rng = np.random.default_rng(_count(fc.get("seed", seed), "f.seed", least=0))
    f = GridFunction(grid, rng.standard_normal(grid.shape).astype(np.complex128))
    return (f, None) if with_callable else f


def _resolvent_setup(cfg, grid, seed):
    b = _field_from(cfg, grid)
    p = _number_from(cfg, "p", 2.0)
    lams = np.asarray(_list_from(cfg, "lambda_grid", np.logspace(-1, 2, 5).tolist()))
    margin = _number_from(cfg, "guard_margin", 0.7)
    if not 0.0 < margin < 1.0:
        raise ConfigError(f"guard_margin: expected 0 < margin < 1, got {margin}")
    zeta = cfg.get("zeta")
    if zeta is not None:
        if not isinstance(zeta, list) or len(zeta) != 2:
            raise ConfigError(f"zeta: expected a number pair [re, im], got {json.dumps(zeta)}")
        zeta = complex(_number(zeta[0], "zeta"), _number(zeta[1], "zeta"))
    est = estimate_class_F_half(b, lambda_grid=lams, seed=seed)
    delta, lam = guarded_pair(est, p=p, d=grid.d, margin=margin)
    if zeta is None:
        zeta = complex(2.0 * Cmod.kappa_d(grid.d) * lam, 0.0)
    params = ResolventParams(p=p, zeta=zeta, delta=delta, lam=lam)
    return b, params


# -- experiment handlers -------------------------------------------------


@experiment("constants", optional=("d", "deltas"))
def run_constants(cfg, out, seed):
    ds = cfg.get("d", [3])
    ds = ds if isinstance(ds, list) else [ds]
    deltas = cfg.get("deltas", [0.1, 0.2, 0.3])
    # check the entries but pass on the JSON values, so a delta of 1 prints as 1
    _list_from({"d": ds}, "d", None, cast=lambda x: _count(x, "d"))
    _list_from(cfg, "deltas", deltas)
    rows = Cmod.constants_table(ds, deltas)
    write_csv(out / "constants.csv",
              ["d", "m_d", "kappa_d", "feller_threshold", "delta", "I_lo", "I_hi"], rows)
    return 0


@experiment("estimate-class", required=("field",), optional=("grid", "classes", "lambda_grid"))
def run_estimate_class(cfg, out, seed):
    grid = _grid_from(cfg)
    b = _field_from(cfg, grid)
    lams = np.asarray(_list_from(cfg, "lambda_grid", default_lambda_grid().tolist()))
    classes = _list_from(cfg, "classes", ["F_half", "F", "K"], cast=str)
    est_fns = {"F_half": estimate_class_F_half, "F": estimate_class_F, "K": estimate_class_K}
    rows = []
    for cls in classes:
        if cls not in est_fns:
            raise ConfigError(f"classes: unknown class {cls!r}")
        kwargs = {} if cls == "K" else {"seed": seed}
        est = est_fns[cls](b, lambda_grid=lams, **kwargs)
        for lam, dv in zip(est.lambda_grid, est.delta_curve):
            rows.append((cls, lam, dv, ""))
        rows.append((cls, est.lam, est.delta, "min"))
    write_csv(out / "class_estimate.csv", ["class", "lambda", "delta", "tag"], rows)
    return 0


@experiment(
    "resolvent",
    required=("field",),
    optional=("grid", "p", "zeta", "f", "representation", "lambda_grid", "guard_margin"),
)
def run_resolvent(cfg, out, seed):
    grid = _grid_from(cfg)
    b, params = _resolvent_setup(cfg, grid, seed)
    f = _input_from(cfg, grid, seed)
    rep = cfg.get("representation", "direct")
    a = ResolventAssembly(params, b, rep)
    u = a.apply(f)
    resid = params.zeta * u + apply_generator(b, u) - f
    rel = lp_norm(resid, params.p) / lp_norm(f, params.p)
    save_grid_function(u, out / "resolvent_output")
    write_csv(
        out / "residual_report.csv",
        ["quantity", "lhs", "rhs_bound", "pass"],
        [("generator_equation_residual", rel, 1e-8, rel <= 1e-8)],
    )
    return 0 if rel <= 1e-8 else 1


@experiment("pseudo-resolvent", required=("field",), optional=("grid", "p", "n_pairs", "lambda_grid", "guard_margin"))
def run_pseudo_resolvent(cfg, out, seed):
    grid = _grid_from(cfg)
    n_pairs = _count_from(cfg, "n_pairs", 10)
    b, params = _resolvent_setup(cfg, grid, seed)
    rng = np.random.default_rng(seed)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 0j)
    zetas = zeta_ray_grid(params.lam, grid.d, n_ray=4, n_real=3)
    pairs = [(zetas[i], zetas[j]) for i in range(len(zetas)) for j in range(i + 1, len(zetas))][:n_pairs]
    rows = []
    ok = True
    for zeta, eta in pairs:
        r = pseudo_resolvent_residual(params, b, zeta, eta, f)
        rows.append((zeta, eta, r, r <= 1e-8))
        ok = ok and r <= 1e-8
    write_csv(out / "pseudo_resolvent.csv", ["zeta", "eta", "residual", "pass"], rows)
    return 0 if ok else 1


@experiment("norm-bounds", required=("field",), optional=("grid", "p", "n_starts", "lambda_grid", "guard_margin"))
def run_norm_bounds(cfg, out, seed):
    grid = _grid_from(cfg)
    n_starts = _count_from(cfg, "n_starts", 8)
    b, params = _resolvent_setup(cfg, grid, seed)
    rows = norm_bound_report(params, b, n_starts=n_starts, seed=seed)
    write_csv(
        out / "norm_bounds.csv",
        ["quantity", "zeta", "measured", "bound", "pass"],
        rows,
    )
    return 0


@experiment(
    "convergence-study",
    required=("field",),
    optional=("grid", "p", "levels", "t", "steps", "f", "lambda_grid", "guard_margin"),
)
def run_convergence_study(cfg, out, seed):
    grid = _grid_from(cfg)
    levels = _list_from(cfg, "levels", [2, 4, 8, 16, 32])
    steps = _count_from(cfg, "steps", 5)
    t = _number_from(cfg, "t", 0.1)
    b, params = _resolvent_setup(cfg, grid, seed)
    f = _input_from(cfg, grid, seed)
    res_curve = strong_convergence_study(params, b, levels, f)
    sg_p, sg_sup = semigroup_convergence_study(params, b, levels, t, steps, f)
    rows = [
        (lev, r, sp_, ss)
        for lev, r, sp_, ss in zip(levels, res_curve, sg_p, sg_sup)
    ]
    write_csv(
        out / "convergence.csv",
        ["level", "resolvent_err", "semigroup_err_p", "semigroup_err_sup"],
        rows,
    )
    return 0


@experiment(
    "semigroup",
    required=("field",),
    optional=("grid", "p", "t", "steps", "richardson", "f", "lambda_grid", "guard_margin"),
)
def run_semigroup(cfg, out, seed):
    grid = _grid_from(cfg)
    steps = _count_from(cfg, "steps", 8)
    t = _number_from(cfg, "t", 0.1)
    richardson = _flag_from(cfg, "richardson")
    b, params = _resolvent_setup(cfg, grid, seed)
    f = _input_from(cfg, grid, seed)
    sp = SemigroupParams(t, steps, richardson=richardson)
    u = evolve(sp, params, b, f)
    save_grid_function(u, out / "evolved")
    one = GridFunction(grid, np.ones(grid.shape))
    rows = [
        (t, steps, float(np.min(u.values.real)), lp_norm(u, np.inf), pairing(u, one).real)
    ]
    write_csv(out / "semigroup.csv", ["t", "steps", "min", "sup", "mass"], rows)
    return 0


@experiment(
    "ultracontractivity",
    required=(),
    optional=("field", "grid", "p_from", "r_to", "t_grid", "steps", "n_sources", "lambda_grid", "guard_margin", "p"),
)
def run_ultracontractivity(cfg, out, seed):
    grid = _grid_from(cfg)
    t_grid = np.asarray(_list_from(cfg, "t_grid", np.logspace(np.log10(0.02), np.log10(0.1), 6).tolist()))
    steps, n_sources = _count_from(cfg, "steps", 16), _count_from(cfg, "n_sources", 2)
    p_from = _number_from(cfg, "p_from", 1.0)
    r_to = cfg.get("r_to", "inf")
    r_to = np.inf if r_to in ("inf", None) else _number(r_to, "r_to")
    b, params = _resolvent_setup(cfg, grid, seed)
    slope, ts, norms = ultracontractivity_study(
        params, b, p_from, r_to, t_grid, steps=steps, n_sources=n_sources, seed=seed, neumann_tol=1e-7,
    )
    rows = [(t, nv, "") for t, nv in zip(ts, norms)] + [(float("nan"), slope, "fitted_slope")]
    write_csv(out / "ultracontractivity.csv", ["t", "value", "tag"], rows)
    return 0


KERNEL_CHECKS = ("A0", "A1", "A2", "A3", "A4", "A5")


@experiment("verify-kernels", required=(), optional=("which", "d"))
def run_verify_kernels(cfg, out, seed):
    which = cfg.get("which", ["A1", "A2", "A3", "A4", "A5", "A0"])
    if isinstance(which, str):
        which = [w.strip() for w in which.split(",") if w.strip()]
    elif not isinstance(which, list) or not all(isinstance(w, str) for w in which):
        raise ConfigError(f"which: expected a string or a list of strings, got {json.dumps(which)}")
    if not which:
        raise ConfigError(f"which: expected at least one of {', '.join(KERNEL_CHECKS)}, got none")
    for token in which:
        if token not in KERNEL_CHECKS:
            raise ConfigError(f"which: unknown token {token!r}")
    d = _count_from(cfg, "d", 3)
    distances = np.logspace(-1, 1, 6)
    re_zetas = np.logspace(np.log10(0.2), np.log10(20.0), 5)

    def complex_probes(qs):
        """Probes at zeta = rz (1 + i q) for each distance, Re zeta and q."""
        return [KernelProbe(d, (0.0,) * d, (r,) + (0.0,) * (d - 1), complex(rz, q * rz), 2.0)
                for r in distances for rz in re_zetas for q in qs]

    def domination_csv(token, checked):
        """One kernels_<token>.csv row per checked probe; 0 when every probe passes, else 1."""
        rows = [(p_.distance, p_.zeta, lhs, rhs, ratio, ok) for (p_, lhs, rhs, ratio, ok, _) in checked]
        write_csv(out / f"kernels_{token}.csv", ["distance", "zeta", "lhs", "rhs", "ratio", "pass"], rows)
        return 0 if all(r[5] for r in rows) else 1

    status = 0
    for token in which:
        if token == "A1":
            status |= domination_csv(token, check_gradient_domination(complex_probes((-1.0, -0.5, 0.0))))
        elif token == "A2":
            probes = [
                KernelProbe(d, (0.0,) * d, (r,) + (0.0,) * (d - 1), rz, 2.0)
                for r in distances for rz in re_zetas
            ]
            rows_all = []
            for r_exp in (1.5, 4.0):
                sup, rows = check_fractional_gradient_domination(probes, r_exp)
                rows_all.extend(
                    (r_exp, p_.distance, p_.zeta, lhs, rhs, ratio)
                    for (p_, lhs, rhs, ratio) in rows
                )
                rows_all.append((r_exp, float("nan"), "", float("nan"), float("nan"), sup))
            write_csv(out / "kernels_A2.csv",
                      ["r", "distance", "zeta", "lhs", "rhs", "ratio_or_sup"], rows_all)
        elif token in ("A3", "A4"):
            rows_grad, rows_half = check_complex_domination(complex_probes((-1.0, -0.5, 0.5, 1.0)))
            status |= domination_csv(token, rows_grad if token == "A3" else rows_half)
        elif token == "A5":
            rows = []
            for q in (1.5, 2.0, 3.0):
                for r in (0.5, 1.0):
                    err = check_fractional_power_identity(
                        1.0, q, (0.0,) * d, (r,) + (0.0,) * (d - 1), d=d
                    )
                    rows.append((q, r, err, err <= 1e-6))
            write_csv(out / "kernels_A5.csv", ["q", "distance", "rel_error", "pass"], rows)
            status |= 0 if all(r[3] for r in rows) else 1
        else:  # A0
            grid = Grid(3, 64, 4.0)
            b = drift_from_config({"kind": "hardy", "c": 0.2}).on_grid(grid)
            c0 = grid.length / 2.0
            f = GridFunction.from_callable(
                grid,
                lambda x, y, z: np.exp(-((x - c0) ** 2 + (y - c0) ** 2 + (z - c0) ** 2) / 0.18),
            )
            levels = [0.25, 0.5, 1.0, 2.0]
            curve = truncation_l1_curve(b, f, 2.0, levels)
            rows = list(zip(levels, curve))
            write_csv(out / "kernels_A0.csv", ["level", "l1_remainder"], rows)
            status |= 0 if all(b2 < a2 for a2, b2 in zip(curve, curve[1:])) else 1
    return status


@experiment(
    "holder-probe",
    required=("field",),
    optional=("grid", "p", "f", "pairs_per_bin", "lambda_grid", "guard_margin"),
)
def run_holder_probe(cfg, out, seed):
    grid = _grid_from(cfg)
    pairs_per_bin = _count_from(cfg, "pairs_per_bin", 2048)
    holder_separations(grid)  # the grid is checked before any estimate or solve
    b, params = _resolvent_setup(cfg, grid, seed)
    f = _input_from(cfg, grid, seed)
    u = ResolventAssembly(params, b).apply(f)
    slope, resid, seps, maxima = holder_probe(GridFunction(grid, u.values.real), pairs_per_bin, seed=seed)
    rows = [(s, m, "") for s, m in zip(seps, maxima)] + [(float("nan"), slope, "fitted_slope")]
    write_csv(out / "holder.csv", ["separation", "value", "tag"], rows)
    return 0


@experiment("smoothing-study", required=("field",), optional=("grid", "p", "q", "sizes", "delta", "lam"))
def run_smoothing_study(cfg, out, seed):
    base = _grid_from(cfg)
    p = _number_from(cfg, "p", 2.5)
    q = _number_from(cfg, "q", 3.0)
    sizes = _list_from(cfg, "sizes", [16, 32, 64], cast=lambda n: _count(n, "sizes"))
    delta = _number_from(cfg, "delta", 0.25)
    lam = _number_from(cfg, "lam", 1.0)
    fields = [_field_from(cfg, Grid(base.d, n, base.length)) for n in sizes]
    params = ResolventParams(p=p, zeta=complex(2 * Cmod.kappa_d(base.d) * lam, 0.0), delta=delta, lam=lam)
    rows = bessel_smoothing_study(fields, params, q, seed=seed)
    out_rows = []
    prev = None
    ok = True
    for n, o, i in rows:
        ratio = float("nan") if prev is None else o / prev
        ok = ok and (prev is None or o <= prev * 1.1)
        out_rows.append((n, o, i, ratio))
        prev = o
    write_csv(out / "smoothing.csv", ["n", "out_norm", "in_norm", "out_ratio"], out_rows)
    return 0 if ok else 1


@experiment("weak-identity", required=("field",), optional=("grid", "p", "count", "f", "lambda_grid", "guard_margin"))
def run_weak_identity(cfg, out, seed):
    grid = _grid_from(cfg)
    count = _count_from(cfg, "count", 5)
    b, params = _resolvent_setup(cfg, grid, seed)
    f = _input_from(cfg, grid, seed)
    vs = make_test_functions(grid, count=count, seed=seed)
    worst = weak_identity_residual(params, b, f, vs)
    write_csv(
        out / "weak_identity.csv",
        ["quantity", "lhs", "rhs_bound", "pass"],
        [("max_residual", worst, 1e-6, worst <= 1e-6)],
    )
    return 0 if worst <= 1e-6 else 1


@experiment(
    "simulate",
    required=("field",),
    optional=(
        "grid", "p", "t", "dt", "paths", "starts", "pde_steps", "f",
        "dump_terminal", "lambda_grid", "guard_margin", "drift_sign",
    ),
)
def run_simulate(cfg, out, seed):
    grid = _grid_from(cfg)
    c0 = grid.length / 2.0
    starts = _list_from(cfg, "starts", [[c0 + 1.0, c0, c0], [c0, c0 - 1.2, c0], [c0, c0, c0 + 1.4]], cast=lambda s: s)
    starts = [_point(s, f"starts[{i}]", grid.d) for i, s in enumerate(starts)]
    pde_steps = _count_from(cfg, "pde_steps", 64)
    t, dt = _number_from(cfg, "t", 0.2), _number_from(cfg, "dt", 1e-3)
    paths, drift_sign = _count_from(cfg, "paths", 20000), _number_from(cfg, "drift_sign", -1.0)
    if drift_sign not in (-1.0, 1.0):
        raise ConfigError(f"drift_sign: expected -1 or 1, got {json.dumps(cfg['drift_sign'])}")
    dump_terminal = _flag_from(cfg, "dump_terminal")
    b, params = _resolvent_setup(cfg, grid, seed)
    f, payoff_fn = _input_from(cfg, grid, seed, with_callable=True)
    rows, ok, results = mc_vs_semigroup(
        b, params, f, starts, t=t, dt=dt, paths=paths, pde_steps=pde_steps, seed=seed, drift_sign=drift_sign,
        payoff_fn=payoff_fn,
    )
    rows = [(";".join(f"{x:g}" for x in start),) + tuple(rest) for start, *rest in rows]
    write_csv(
        out / "simulate.csv",
        ["start", "mc_mean", "mc_se", "pde_value", "diff", "budget", "pass", "flagged"],
        rows,
    )
    if dump_terminal:
        write_csv(out / "terminal.csv", ["x", "y", "z"], [tuple(p) for p in results[0].terminal])
    return 0 if ok else 1


@experiment("acceptance", required=(), optional=("only",))
def run_acceptance(cfg, out, seed):
    only = cfg.get("only")
    if only is not None and not (
        isinstance(only, list) and all(isinstance(i, int) and 1 <= i <= len(CRITERIA) for i in only)
    ):
        raise ConfigError(
            f"only (--only): expected a list of criterion indices in 1..{len(CRITERIA)}, got {only!r}"
        )
    results = run_all(None if only is None else set(only))
    rows = []
    ok = True
    for r in results:
        print(r.line(), flush=True)
        rows.append((r.index, r.name, r.passed, round(r.seconds, 3)))
        ok = ok and r.passed
    write_csv(out / "acceptance.csv", ["index", "name", "passed", "seconds"], rows)
    return 0 if ok else 1


@experiment("report", required=(), optional=())
def run_report(cfg, out, seed):
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
    if name == "acceptance" and args.only:
        cfg = dict(cfg)
        try:
            cfg["only"] = [int(x) for x in args.only.split(",")]
        except ValueError:
            print(f"config error: --only: expected comma-separated criterion indices, got {args.only!r}",
                  file=sys.stderr)
            return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        cfg = validate_config(name, cfg)
        status = EXPERIMENTS[name]["fn"](cfg, out, args.seed)
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
