"""Monte Carlo realization of the drift diffusion, cross-validated
against the deterministic semigroup.

The generator convention makes the expectation semigroup solve
du/dt = Lap u - b . grad u, so sample paths follow

    dX = -b(X) dt + sqrt(2) dW.

The minus sign is stated here once and carried by ``drift_sign`` (-1 or
+1: a step rounds b * drift_sign * dt once); a sign-flip run is the
designated mutation check and must fail the cross-validation.  Drift
fields are grid fields read off-grid by trilinear torus interpolation
(the semigroup side multiplies by node values); a grid-function payoff
is read by its trigonometric interpolant, the function the semigroup
side evolves.  Paths leaving the safety box are censored (frozen and
counted); runs with a censored fraction >= 0.1% are flagged invalid.

Each chunk of CHUNK paths draws its noise from its own (seed, chunk)
stream, in path blocks of at most NOISE_BLOCK_BYTES.  The calling thread
steps one block while the slab pool draws the next, so the draw, one
numpy call that releases the GIL, overlaps the step; the stepping itself
stays on the calling thread, where the GIL keeps it anyway.  A step is
one gather of all 8 cell corners and 22 numpy calls (``_accel``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._accel import em_chunk
from .grid import GridFunction, fourier_eval, run_on_workers
from .semigroup import SemigroupParams, evolve

__all__ = [
    "SimParams",
    "SimResult",
    "simulate_paths",
    "mc_vs_semigroup",
    "strong_feller_probe",
]

CENSOR_LIMIT = 1e-3
CHUNK = 8192
# a chunk's noise is drawn and stepped in path blocks of at most this size, two blocks held at a time
NOISE_BLOCK_BYTES = 10 * 2**20


@dataclass
class SimParams:
    """One Monte Carlo run: drift field, horizon, step, path count, start.

    The step count is round(t/dt) and the effective step is t/steps, so
    the horizon is hit exactly.  The safety box is the box shrunk by
    ``safety_margin`` (absolute length units) on every side.
    """

    drift: object  # GridVectorField; the zero field for pure diffusion
    t: float
    dt: float
    paths: int
    seed: int
    x0: np.ndarray
    safety_margin: float = 0.0

    def __post_init__(self):
        for name in ("t", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dt <= 0 or self.t <= 0 or self.dt > self.t:
            raise ValueError("need 0 < dt <= t")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        self.x0 = np.asarray(self.x0, dtype=float)
        d = self.drift.grid.d
        if self.x0.shape != (d,) or not np.all(np.isfinite(self.x0)):
            raise ValueError(f"x0 must be a finite point of length {d}, got {self.x0.tolist()}")

    @property
    def steps(self):
        return max(1, int(round(self.t / self.dt)))

    @property
    def dt_effective(self):
        return self.t / self.steps


@dataclass
class SimResult:
    terminal: np.ndarray
    censored: int
    censored_fraction: float
    flagged_invalid: bool
    payoff_mean: float | None = None
    payoff_se: float | None = None


def _block_paths(m, steps):
    """Paths per noise block of an m-path chunk: the fewest near-equal blocks of at most
    NOISE_BLOCK_BYTES, one path at least."""
    fit = max(1, NOISE_BLOCK_BYTES // (steps * 3 * 8))  # paths per block, at most
    return -(-m // -(-m // fit))


def _stream(seed, chunk_index):
    """The noise stream of one chunk, derived from (seed, chunk index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def _noise_blocks(paths, steps):
    """(chunk index, start, stop) of every path block of a run, in stream order.

    The run's paths fall in chunks of CHUNK (the last one may be shorter),
    and each m-path chunk in consecutive blocks of ``_block_paths(m, steps)``
    paths (its last one may be shorter).  Drawn one after another from the
    chunk's ``_stream``, a chunk's blocks are the ``(m, steps, 3)`` array
    of one draw, bit for bit.
    """
    blocks = []
    for chunk_index, first in enumerate(range(0, paths, CHUNK)):
        end = min(first + CHUNK, paths)
        size = _block_paths(end - first, steps)
        blocks += [(chunk_index, start, min(start + size, end)) for start in range(first, end, size)]
    return blocks


def simulate_paths(sp, payoff=None, drift_sign=-1.0):
    """Run Euler-Maruyama paths; returns terminal points and statistics.

    ``payoff`` may be a GridFunction (read at terminal points by its
    trigonometric interpolant) or a callable on (N, d) points; its
    standard error needs at least 2 paths (ValueError).  Paths run
    in chunks of CHUNK, each with its own noise stream derived from
    (seed, chunk index), so identical SimParams reproduce identical
    statistics bit for bit.  A chunk's noise is drawn and stepped in
    consecutive path blocks of at most NOISE_BLOCK_BYTES (``_noise_blocks``),
    which leaves every number as one draw per chunk gives it while the
    noise held at a time no longer grows with the step count.  The blocks
    alternate between the two halves of one noise array, allocated once
    per call: while ``em_chunk`` steps a block on the calling thread, the
    next block is drawn into the other half on the slab pool
    (``run_on_workers``), and with one worker after it on the calling
    thread.  Each stream is still drawn block after block in order, so no
    number depends on the worker count.  ``drift_sign`` must be -1.0 or +1.0.
    """
    grid = sp.drift.grid
    if grid.d != 3:
        raise ValueError("the path simulator is implemented for d = 3")
    if payoff is not None and sp.paths < 2:
        raise ValueError(f"paths: a payoff's standard error needs at least 2 paths, got {sp.paths}")
    if drift_sign not in (-1.0, 1.0):
        raise ValueError(f"drift_sign must be -1.0 or 1.0, got {drift_sign!r}")
    n, h = grid.n, grid.h
    steps = sp.steps
    dt = sp.dt_effective
    sqrt2dt = np.sqrt(2.0 * dt)
    lo = sp.safety_margin
    hi = grid.length - sp.safety_margin
    if lo >= hi:
        raise ValueError("safety margin leaves no interior box")

    terminal = np.empty((sp.paths, 3))
    terminal[:] = sp.x0
    censored = np.zeros(sp.paths, dtype=np.bool_)
    blocks = _noise_blocks(sp.paths, steps)
    streams = [_stream(sp.seed, chunk_index) for chunk_index in range(blocks[-1][0] + 1)]
    # block i is drawn into half i % 2, sized for the longest block
    noise = np.empty((2, max(stop - start for _, start, stop in blocks), steps, 3))

    def draw(i):
        chunk_index, start, stop = blocks[i]
        streams[chunk_index].standard_normal(out=noise[i % 2, : stop - start])

    def step(i):
        _, start, stop = blocks[i]
        em_chunk(terminal[start:stop], sp.drift.values, n, h, dt, sqrt2dt, noise[i % 2, : stop - start],
                 drift_sign, lo, hi, censored[start:stop])

    draw(0)
    for i in range(len(blocks)):
        tasks = [functools.partial(step, i)]
        if i + 1 < len(blocks):
            tasks.append(functools.partial(draw, i + 1))
        run_on_workers(tasks)
    del noise  # frees the noise before the payoff is read
    censored_total = int(censored.sum())

    frac = censored_total / sp.paths
    result = SimResult(
        terminal=terminal,
        censored=censored_total,
        censored_fraction=frac,
        flagged_invalid=frac >= CENSOR_LIMIT,
    )
    if payoff is not None:
        if isinstance(payoff, GridFunction):
            vals = fourier_eval(payoff, terminal).real
        else:
            vals = np.asarray(payoff(terminal), dtype=float)
        result.payoff_mean = float(np.mean(vals))
        result.payoff_se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    return result


def mc_vs_semigroup(
    b,
    params,
    f,
    starts,
    t,
    dt,
    paths,
    pde_steps,
    seed=0,
    drift_sign=-1.0,
    payoff_fn=None,
    pde_values=None,
):
    """Compare MC payoff means against the evolved field at several starts.

    The tolerance budget per start is 3*SE + c_disc*(dt + 1/pde_steps)
    with c_disc = sup|f|.  Paths run in the box shrunk by two cells on
    every side, and the evolve stops its series at relative tolerance
    1e-9.  Both sides read f's trigonometric interpolant: the PDE side
    evolves the grid samples and reads the result at the starts, and the
    MC side reads f at the path ends, unless a closed form of the payoff
    is passed as ``payoff_fn``.
    ``drift_sign`` reaches the paths only, so a run that differs from an
    earlier one in nothing else may pass that run's ``pde_value`` column
    as ``pde_values`` and skip the evolve.
    Returns (rows, all_passed, results) with rows
    (start, mc_mean, mc_se, pde_value, |diff|, budget, pass, flagged)
    and ``results`` the ``SimResult`` of each start.
    """
    grid = b.grid
    c_disc = float(np.max(np.abs(f.values.real)))
    # checked and built first, so a bad path count, start or step is rejected before the evolve
    if paths < 2:
        raise ValueError(f"paths: a payoff's standard error needs at least 2 paths, got {paths}")
    sims = [
        SimParams(drift=b, t=t, dt=dt, paths=paths, seed=seed + 1000 * i, x0=x0,
                  safety_margin=2.0 * grid.h)
        for i, x0 in enumerate(starts)
    ]
    if pde_values is None:
        u = evolve(SemigroupParams(t, pde_steps), params, b, f, neumann_tol=1e-9)
        pde_vals = fourier_eval(u, [sp.x0 for sp in sims]).real
    else:
        pde_vals = np.asarray(pde_values, dtype=float)
    rows = []
    results = []
    all_pass = True
    for i, sp in enumerate(sims):
        res = simulate_paths(sp, payoff=payoff_fn if payoff_fn is not None else f,
                             drift_sign=drift_sign)
        budget = 3.0 * res.payoff_se + c_disc * (sp.dt_effective + 1.0 / pde_steps)
        diff = abs(res.payoff_mean - pde_vals[i])
        ok = diff <= budget and not res.flagged_invalid
        all_pass = all_pass and ok
        rows.append(
            (tuple(sp.x0), res.payoff_mean, res.payoff_se, float(pde_vals[i]), diff, budget, ok,
             res.flagged_invalid)
        )
        results.append(res)
    return rows, all_pass, results


def strong_feller_probe(b, f, base_point, separations, t, dt, paths, seed=0, direction=None):
    """Modulus of continuity of x -> E f(X_t^x) at shrinking separations.

    Both starts of a pair share the random increments (the chunk streams
    depend only on the seed), so the difference of means is computed
    with common random numbers and survives far below the naive MC
    noise floor.  Returns (separations, diffs, fitted exponent).
    """
    grid = b.grid
    direction = np.array([1.0, 0.0, 0.0]) if direction is None else np.asarray(direction, float)
    direction = direction / np.linalg.norm(direction)
    base_point = np.asarray(base_point, float)

    def mean_at(x0):
        sp = SimParams(drift=b, t=t, dt=dt, paths=paths, seed=seed, x0=x0,
                       safety_margin=2.0 * grid.h)
        return simulate_paths(sp, payoff=f).payoff_mean

    m0 = mean_at(base_point)
    seps = np.asarray(separations, float)
    diffs = np.array([abs(mean_at(base_point + s * direction) - m0) for s in seps])
    good = diffs > 0
    if good.sum() >= 2:
        exponent = float(np.polyfit(np.log(seps[good]), np.log(diffs[good]), 1)[0])
    else:
        exponent = float("nan")
    return seps, diffs, exponent
