"""The three benchmark workloads: resolve, certify and feller.

A workload builds its inputs from the run seed in ``__init__`` (the
set-up), then runs rounds: ``prepare`` draws a round's inputs (untimed),
``run`` makes the round's sdlab calls through ``op`` (timed), and
``check`` judges every recorded output against ``oracles`` or a
property the method must have (untimed).  Every round makes the same
calls, so the share of failed operations does not depend on the seed or
on the run length.  ``smoke=True`` shrinks every size so that all calls
and checks run in seconds.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import oracles
from sdlab import constants as C
from sdlab.errors import GuardViolationError
from sdlab.fields import (
    ClassEstimate,
    DriftSpec,
    default_lambda_grid,
    estimate_class_F,
    estimate_class_F_half,
    estimate_class_K,
    guarded_pair,
    mollify,
    truncate,
)
from sdlab.grid import Grid, GridFunction, GridVectorField
from sdlab.resolvent import ResolventAssembly, ResolventParams, estimate_op_norm, zeta_ray_grid
from sdlab.semigroup import SemigroupParams, evolve
from sdlab.sim import SimParams, simulate_paths

BOX = 16.0


class Record:
    """One operation: its label, output or error, and whether it passed."""

    __slots__ = ("label", "out", "error", "ok")

    def __init__(self, label, out, error):
        self.label = label
        self.out = out
        self.error = error
        self.ok = error is None


def p_tag(p):
    return "p" + f"{p:g}".replace(".", "_")


class Workload:
    name = ""

    def __init__(self, seed, smoke=False, tracer=None, ticks=None):
        self.seed = int(seed)
        self.smoke = smoke
        self.tracer = tracer
        self.ticks = ticks  # calib.Ticks, run around every operation when set
        self.records = []
        self.facts = {}  # extra figures for the result file
        self.setup()

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def op(self, label, span, kind, fn, *args, **kwargs):
        """Run one sdlab call as an operation; an exception marks it failed.

        ``kind`` names the reference kernel (see calib) run around it.
        """
        if self.tracer:
            self.tracer.new_op()
        out, error = None, None
        if self.ticks:
            self.ticks.before(kind)
        t0 = time.perf_counter()
        try:
            with self.span(span):
                out = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark counts the failure and runs on
            error = f"{type(exc).__name__}: {exc}"
        if self.ticks:
            self.ticks.after(kind, time.perf_counter() - t0)
        self.records.append(Record(label, out, error))
        return out

    def assembly(self, params, b, rep="direct"):
        with self.span("resolvent.assembly"):
            return ResolventAssembly(params, b, rep)

    def fail(self, rec, why):
        if rec.ok:
            rec.ok = False
            rec.error = why

    def prepare(self, index):
        pass

    def layer_extras(self):
        """Per-layer figures read outside the traced round (traced run only)."""
        return {}


# -- resolve ------------------------------------------------------------------


class Resolve(Workload):
    """Neumann solves through every factorization, pole field, two sizes."""

    name = "resolve"
    COMBOS = (
        ("direct", 2.0), ("fractional", 2.0), ("split", 2.0), ("symmetric", 2.0),
        ("direct", 2.5), ("fractional", 2.5), ("split", 2.5),
    )
    # the smallest lambda of criterion 4's grid already meets the p = 2.5
    # guard at both sizes, and the guard takes the smallest passing lambda
    LAMBDAS = np.array([0.1])

    def setup(self):
        self.cases = []
        # cases are tagged by their full size; smoke mode shrinks 32 -> 8 and 64 -> 16
        for tag, n in zip(("n32", "n64"), (8, 16) if self.smoke else (32, 64)):
            grid = Grid(3, n, BOX)
            b = DriftSpec("hardy", c=0.2).on_grid(grid)
            with self.span("fields.guard"):
                est = estimate_class_F_half(b, lambda_grid=self.LAMBDAS)
            # the p = 2.5 pair also guards p = 2, since c_p is smallest at 2
            delta, lam = guarded_pair(est, p=2.5, d=3)
            zeta = zeta_ray_grid(lam, 3, n_ray=2, n_real=0)[1]
            asm = {
                (rep, p): self.assembly(ResolventParams(p=p, zeta=zeta, delta=delta, lam=lam), b, rep)
                for rep, p in self.COMBOS
            }
            self.cases.append({"tag": tag, "n": n, "grid": grid, "b": b, "zeta": zeta, "asm": asm})
        first = self.cases[0]
        first["asm"]["direct", 2.0].apply(GridFunction(first["grid"], np.ones(first["grid"].shape)))

    def prepare(self, index):
        rng = np.random.default_rng([self.seed, index])
        for case in self.cases:
            shape = case["grid"].shape
            case["f"] = GridFunction(case["grid"], rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def run(self):
        for case in self.cases:
            for rep, p in self.COMBOS:
                label = ("solve", rep, p_tag(p), case["tag"])
                span = "resolvent.apply." + ".".join(label[1:])
                self.op(label, span, "fft" + case["tag"][1:], case["asm"][rep, p].apply, case["f"])

    def layer_extras(self):
        """Series terms of a direct solve at each p, from neumann_inverse."""
        case = self.cases[0]
        out = {}
        for p in (2.0, 2.5):
            a = case["asm"]["direct", p]
            _, history = a.neumann_inverse(a.apply_input_factor(case["f"]))
            out[f"resolvent.neumann_terms.{p_tag(p)}"] = len(history)
        return out

    def check(self, records):
        by_label = {r.label: r for r in records}
        for case in self.cases:
            n, tag, f = case["n"], case["tag"], case["f"].values
            for rep, p in self.COMBOS:
                rec = by_label[("solve", rep, p_tag(p), tag)]
                if not rec.ok:
                    continue
                resid = oracles.generator_residual(case["b"].values, rec.out.values, f, case["zeta"], BOX, p)
                if not resid <= 1e-8:
                    self.fail(rec, f"generator residual {resid:.3g} > 1e-8")
            group = [by_label[("solve", rep, "p2", tag)] for rep, p in self.COMBOS if p == 2.0]
            if all(r.out is not None for r in group):
                h = BOX / n
                scale = oracles.lp_norm(group[0].out.values, 2, h)
                worst = max(
                    oracles.lp_norm(a.out.values - c.out.values, 2, h) / scale
                    for i, a in enumerate(group) for c in group[i + 1:]
                )
                if not worst <= 1e-8:
                    for r in group:
                        self.fail(r, f"factorizations disagree by {worst:.3g} > 1e-8")


# -- certify ------------------------------------------------------------------


CONSTANT = np.array([0.2, 0.0, 0.0])


def catalog(grid):
    """The loop-norm catalog of acceptance criterion 5."""
    return {
        "hardy": DriftSpec("hardy", c=0.2).on_grid(grid),
        "sphere": DriftSpec("sphere", beta=0.5, amp=0.15).on_grid(grid),
        "smooth-random": DriftSpec("smooth-random", amp=0.2, kmax=2, seed=11).on_grid(grid),
        "constant": DriftSpec("constant", vector=list(CONSTANT)).on_grid(grid),
    }


INCLUSION_SLACK = 1e-6
# The estimators' random starts are fixed at sdlab's default seed, as in the
# acceptance suite: their iteration counts, and so a round's work, change
# with the start (up to 30 % for one field), which would read as a speed
# change between seeds.
ESTIMATOR_SEED = 0


def norm_bound(p, delta):
    """Criterion 5's bound on the loop-factor norm: m_d c_p delta, and delta at p = 2."""
    bound = C.neumann_guard_value(p, delta, 3)
    return min(bound, delta) if p == 2.0 else bound


class Certify(Workload):
    """Smallness certification: class curves and loop-factor norm estimates."""

    name = "certify"
    CURVES = (("F", estimate_class_F), ("F_half", estimate_class_F_half), ("K", estimate_class_K))

    def setup(self):
        self.n = 8 if self.smoke else 16
        self.n_starts = 4 if self.smoke else 8
        self.lams = default_lambda_grid()[::5] if self.smoke else default_lambda_grid()
        self.grid = Grid(3, self.n, BOX)
        self.fields = catalog(self.grid)
        # the dense-reference field on 8^3 nodes (4^3 in smoke mode).  Every
        # input of this workload is fixed: a smooth-random 8^3 field drawn
        # from the run seed was left out, since sdlab's class estimates miss
        # the dense eigenvalue by more than 1e-6 on some draws (CHANGES.md)
        small = Grid(3, 4 if self.smoke else 8, 8.0)
        self.dense = {"dense-hardy": truncate(DriftSpec("hardy", c=0.2).on_grid(small), 1.0)}
        self._dense_ref = {}
        estimate_class_K(self.fields["hardy"], lambda_grid=self.lams[:1])

    def loop_norm(self, b, p, delta, lam):
        zeta = complex(C.kappa_d(3) * lam, 0.0)
        a = self.assembly(ResolventParams(p=p, zeta=zeta, delta=delta, lam=lam), b)
        loop = a.loop_factor()
        if self.tracer:
            loop.forward = self.tracer.wrap("resolvent.loop_matvec", loop.forward)
            loop.adjoint = self.tracer.wrap("resolvent.loop_matvec", loop.adjoint)
        value = estimate_op_norm(loop, p, n_starts=self.n_starts, tol=1e-4, seed=ESTIMATOR_SEED)
        return value, zeta, delta

    def pairs(self, est):
        """Criterion 5's (delta, lambda) pairs: the minimizer, then the p = 2.5 guarded pair."""
        pairs = [(est.delta, est.lam)]
        try:
            pairs.append(guarded_pair(est, p=2.5, d=3, margin=0.7))
        except GuardViolationError:  # no guarded point on this curve: criterion 5 skips it too
            pass
        return pairs

    def certify(self, name, b, lams, norm_ps):
        # F and F_half run one lambda per call, so that the reference kernels
        # run between points; each point is the same computation the full
        # curve makes for it (every lambda starts from the same seed)
        curves = {}
        for cls, fn in self.CURVES:
            span = f"fields.curve.{cls}.{name}"
            if cls == "K":
                if not name.startswith("dense"):
                    self.op(("curve", cls, name), span, "fft16", fn, b, lambda_grid=lams)
                continue
            points = [
                self.op(("point", cls, name, i), span, "fft16", fn, b, lambda_grid=lams[i:i + 1], seed=ESTIMATOR_SEED)
                for i in range(len(lams))
            ]
            if all(pt is not None for pt in points):
                curve = np.array([pt.delta for pt in points])
                i0 = int(np.argmin(curve))
                curves[cls] = ClassEstimate(cls, float(curve[i0]), float(lams[i0]), lams.copy(), curve)
        if "F_half" not in curves:
            return
        for delta, lam in self.pairs(curves["F_half"]):
            for p in norm_ps:
                if C.neumann_guard_value(p, delta, 3) < 1.0:
                    label = ("norm", name, p_tag(p), lam)
                    span = f"resolvent.op_norm.{name}.{p_tag(p)}"
                    self.op(label, span, "fft16", self.loop_norm, b, p, delta, lam)

    def run(self):
        for name, b in self.fields.items():
            self.certify(name, b, self.lams, (2.0, 2.5))
        for name, b in self.dense.items():
            self.certify(name, b, self.lams, (2.0,))

    def dense_reference(self, name):
        if name not in self._dense_ref:
            b = self.dense[name]
            mag = b.magnitude()
            self._dense_ref[name] = {
                "F": np.array([oracles.dense_class_delta(mag, b.grid.length, lam, 0.5, 2) for lam in self.lams]),
                "F_half": np.array([oracles.dense_class_delta(mag, b.grid.length, lam, 0.25, 1) for lam in self.lams]),
            }
        return self._dense_ref[name]

    def check(self, records):
        deltas = {}  # (class, field) -> {lambda index: delta}
        for r in records:
            if r.ok and r.label[0] == "point":
                deltas.setdefault(r.label[1:3], {})[r.label[3]] = r.out.delta_curve[0]
            elif r.ok and r.label[0] == "curve":
                deltas[r.label[1:3]] = dict(enumerate(r.out.delta_curve))
        for r in records:
            if not r.ok:
                continue
            if r.label[0] == "norm":
                self.check_norm(r, r.label[1], float(r.label[2][1:].replace("_", ".")))
            else:
                cls, name = r.label[1:3]
                idx = [r.label[3]] if r.label[0] == "point" else list(range(len(self.lams)))
                self.check_deltas(r, cls, name, idx, deltas)

    def check_deltas(self, rec, cls, name, idx, deltas):
        lams = self.lams[idx]
        got = np.array([deltas[cls, name][i] for i in idx])
        c = float(np.linalg.norm(CONSTANT))
        if name == "constant":
            if cls == "K":
                want = np.array([c * oracles.kato_kernel_l1(self.n, BOX, lam) for lam in lams])
                tol = 1e-9
            else:
                want = c * c / lams if cls == "F" else c / np.sqrt(lams)
                tol = 1e-6
        elif name.startswith("dense"):
            want, tol = self.dense_reference(name)[cls][idx], 1e-6
        else:
            if cls != "F_half":
                return
            # both sides meet as lambda grows, and each is an iterative lower
            # estimate good to the 1e-6 the dense check grants a delta
            slack = 1.0 + INCLUSION_SLACK
            for i, value in zip(idx, got):
                k, f = deltas.get(("K", name), {}).get(i), deltas.get(("F", name), {}).get(i)
                if k is not None and f is not None and not (value <= slack * k and value <= slack * np.sqrt(f)):
                    self.fail(rec, "delta_F_half exceeds delta_K or sqrt(delta_F)")
            return
        err = float(np.max(np.abs(got - want) / want))
        if not err <= tol:
            self.fail(rec, f"{cls} delta off its reference by {err:.3g} > {tol:g}")

    def check_norm(self, rec, name, p):
        value, zeta, delta = rec.out
        if not value <= 1.05 * norm_bound(p, delta):
            self.fail(rec, f"loop norm {value:.4g} above 1.05 x criterion-5 bound")
            return
        if p != 2.0:
            return
        if name == "constant":
            exact = oracles.constant_loop_norm(CONSTANT, zeta, self.n, BOX)
        elif name.startswith("dense"):
            b = self.dense[name]
            exact = oracles.dense_loop_norm(b.values, zeta, b.grid.length)
        else:
            return
        if not 0.99 * exact <= value <= (1.0 + 1e-9) * exact:
            self.fail(rec, f"p = 2 loop norm {value:.6g} outside [0.99, 1+1e-9] x {exact:.6g}")


# -- feller -------------------------------------------------------------------


CENTER = np.full(3, 8.0)
BUMP_WIDTH2 = 4.5  # f(x) = exp(-|x - (8,8,8)|^2 / 4.5), as in criterion 11
# three of criterion 11's five starts: the ones where the sign flip moves
# the mean most, so that one chunk of paths per start still exposes it
STARTS = np.array([[9.2, 8.0, 8.0], [6.8, 8.3, 8.0], [8.5, 8.0, 9.1]])


# The b = 0 control's budget leaves only 3 SE + dt of room for pure noise,
# so a fresh draw would miss it in about one start in 1500; its path seed
# is fixed, which decides that check once instead of anew in every run.
FREE_STARTS = 1
FREE_SEED = 7


def bump(points):
    return np.exp(-np.sum((points - CENTER) ** 2, axis=1) / BUMP_WIDTH2)


class Feller(Workload):
    """Criterion 11's cross-validation: evolve, then Euler-Maruyama paths."""

    name = "feller"
    T = 0.3
    PIECES = 4

    def setup(self):
        # smoke: a coarser grid, fewer paths and steps, and a stronger pole
        # so that the sign flip still stands out of the larger budget
        n, c = (16, 0.6) if self.smoke else (32, 0.2)
        self.pde_steps = 96 if self.smoke else 192
        self.dt = 2e-3 if self.smoke else 1e-3
        self.paths = 4096 if self.smoke else 8192
        self.grid = g = Grid(3, n, BOX)
        self.b = mollify(truncate(DriftSpec("hardy", c=c).on_grid(g), 8.0), 1.25)
        with self.span("fields.guard"):
            est = estimate_class_F_half(self.b, lambda_grid=np.logspace(-1, 2, 5))
        delta, lam = guarded_pair(est, p=2.0, d=3)
        self.params = ResolventParams(p=2.0, zeta=complex(2 * lam, 0.0), delta=delta, lam=lam)
        self.params0 = ResolventParams(p=2.0, zeta=2.0, delta=0.0, lam=0.5)
        self.zero = GridVectorField.zeros(g)
        self.f = GridFunction.from_callable(
            g, lambda x, y, z: np.exp(-((x - 8) ** 2 + (y - 8) ** 2 + (z - 8) ** 2) / BUMP_WIDTH2)
        )
        mu = self.pde_steps / self.T
        self.assembly(self.params.with_zeta(complex(mu)), self.b).apply(self.f)
        simulate_paths(SimParams(drift=self.b, t=self.T, dt=self.T / 4, paths=64, seed=0, x0=STARTS[0]))

    def prepare(self, index):
        self.round_seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def mc(self, label, drift, x0, seed, sign):
        sp = SimParams(drift=drift, t=self.T, dt=self.dt, paths=self.paths, seed=seed, x0=x0,
                       safety_margin=2.0 * self.grid.h)
        self.op(label, "sim.simulate_paths", "em", simulate_paths, sp, payoff=bump, drift_sign=sign)

    def run(self):
        # The drift run is evolved in PIECES calls of t/PIECES, which applies
        # the same backward-Euler step (mu = steps/t) the same number of times
        # as one call, so that the reference kernels run every second or so.
        piece = SemigroupParams(self.T / self.PIECES, self.pde_steps // self.PIECES)
        u = self.f
        for i in range(self.PIECES):
            u = self.op(("evolve", "drift", i), "semigroup.evolve", "fft32", evolve, piece, self.params, self.b, u,
                        neumann_tol=1e-9)
            if u is None:
                break
        sp = SemigroupParams(self.T, self.pde_steps)
        self.op(("evolve", "free"), "semigroup.evolve_free", "fft32", evolve, sp, self.params0, self.zero, self.f,
                neumann_tol=1e-9)
        seeds = self.round_seed + 1000 * np.arange(len(STARTS))
        for i, x0 in enumerate(STARTS):
            self.mc(("mc", "drift", i), self.b, x0, int(seeds[i]), -1.0)
        for i, x0 in enumerate(STARTS):
            self.mc(("mc", "flipped", i), self.b, x0, int(seeds[i]), +1.0)
        for i, x0 in enumerate(STARTS[:FREE_STARTS]):
            self.mc(("mc", "free", i), self.zero, x0, FREE_SEED + i, -1.0)

    def layer_extras(self):
        a = ResolventAssembly(self.params.with_zeta(complex(self.pde_steps / self.T)), self.b)
        _, history = a.neumann_inverse(a.apply_input_factor(self.f))
        return {"resolvent.neumann_terms.p2": len(history)}

    def check(self, records):
        by = {r.label: r for r in records}
        sup_f = float(np.max(self.f.values.real))
        steps = round(self.T / self.dt)
        disc = sup_f * (self.T / steps + 1.0 / self.pde_steps)

        free = by["evolve", "free"]
        if free.ok:
            want = oracles.free_heat_steps(self.f.values, self.pde_steps / self.T, self.pde_steps, BOX)
            err = float(np.max(np.abs(free.out.values - want)))
            if not err <= 1e-10:
                self.fail(free, f"b = 0 evolve off the heat multiplier by {err:.3g}")
        drift = by.get(("evolve", "drift", self.PIECES - 1))  # absent if an earlier piece failed
        pde = None
        if drift is not None and drift.ok:
            u = drift.out.values
            if not (u.real.min() >= -1e-8 * sup_f and np.abs(u).max() <= (1 + 1e-8) * sup_f):
                self.fail(drift, "evolved bump breaks positivity or sup contraction")
            pde = oracles.trig_interp(u, STARTS, BOX)

        for r in records:
            if r.label[0] == "mc" and r.ok and not r.out.censored_fraction < 1e-3:
                self.fail(r, f"censored fraction {r.out.censored_fraction:.3g} >= 1e-3")

        flipped_miss = []
        for i, x0 in enumerate(STARTS):
            for kind in ("drift", "flipped"):
                r = by["mc", kind, i]
                if not r.ok or pde is None:
                    continue
                miss = abs(r.out.payoff_mean - pde[i]) > 3.0 * r.out.payoff_se + disc
                if kind == "drift" and miss:
                    self.fail(r, "Monte Carlo mean outside the semigroup budget")
                if kind == "flipped":
                    flipped_miss.append(miss)
        if not any(flipped_miss):
            for i in range(len(STARTS)):
                self.fail(by["mc", "flipped", i], "sign-flipped drift passed at every start")

        for i, x0 in enumerate(STARTS[:FREE_STARTS]):
            r = by["mc", "free", i]
            if r.ok:
                want = oracles.gaussian_bump_mean(x0, CENTER, BUMP_WIDTH2, self.T)
                self.facts.setdefault("free_mc_z", {})[i] = (r.out.payoff_mean - want) / r.out.payoff_se
                if abs(r.out.payoff_mean - want) > 3.0 * r.out.payoff_se + sup_f * self.T / steps:
                    self.fail(r, "b = 0 Monte Carlo mean off the Gaussian convolution")


WORKLOADS = {w.name: w for w in (Resolve, Certify, Feller)}
