"""Run one sdlab benchmark workload and print its metrics as one JSON line.

    python3 sdbench/run.py --workload resolve --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports sdlab from ``src/`` (no
install needed).  With ``--trace 0`` it reports the end-to-end metrics
of BENCHMARK.json, with ``--trace 1`` the per-layer ones, read from a
separate traced round.  ``--smoke`` shrinks every workload so that all
calls and checks run in seconds.  A full record of the run (machine
facts, every round time, every failure) goes to
``.sdbench_out/<workload>-seed<seed>-trace<0|1>.json``; the traced run
also writes its spans there as JSON lines.  See sdbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".sdbench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # set-ups per run; setup_s is their median


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("resolve", "certify", "feller"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes: every call and check in seconds")
    return ap.parse_args(argv)


def cap_threads():
    """FFT workers and BLAS threads = the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    os.environ["SDL_THREADS"] = str(nproc)
    return nproc


def git_sha():
    """HEAD's commit from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(wl, index):
    """One round; returns (seconds, records) with the checks applied.

    With reference kernels attached the seconds are the scaled operation
    time, else the raw wall time of the round.
    """
    wl.prepare(index)
    wl.records = []
    if wl.ticks:
        wl.ticks.reset()
    t0 = time.perf_counter()
    wl.run()
    seconds = wl.ticks.scaled() if wl.ticks else time.perf_counter() - t0
    wl.check(wl.records)
    for r in wl.records:
        r.out = None  # keep memory flat however many rounds run
    return seconds, wl.records


def timed_run(cls, args, import_s):
    from calib import Ticks

    ticks = Ticks(int(os.environ["SDL_THREADS"]))
    for kind in ticks.kernels:
        ticks.after(kind, 0.0)  # plan the FFTs and fault in the arrays
    # set-up is timed raw: it is mostly imports and one-off sampling, which
    # the reference kernels do not track (scaled, its spread grew)
    setups = []
    wl = None
    for _ in range(1 if args.smoke else SETUPS):
        wl = None  # drop the previous set-up before building the next
        t0 = time.perf_counter()
        wl = cls(args.seed, smoke=args.smoke, ticks=ticks)
        setups.append(import_s + time.perf_counter() - t0)
    rounds, raw_rounds, kinds, records = [], [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        seconds, recs = run_round(wl, len(rounds))
        rounds.append(seconds)
        raw_rounds.append(sum(ticks.op_s.values()))
        kinds.append({k: [ticks.op_s[k], ticks.tick_s[k] / ticks.ticks[k]] for k in ticks.kernels if ticks.ticks[k]})
        records.extend(recs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rounds),
        "ops_per_s": len(records) / sum(rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, records, {"setups_s": setups, "rounds_s": rounds, "raw_rounds_s": raw_rounds,
                              "round_kinds": kinds, **wl.facts}


def timed_probe(fn, reps):
    """Median milliseconds of ``fn`` over ``reps`` calls after one warm call."""
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def probes(smoke):
    """Bare layer timings made outside any workload, same in every traced run."""
    import numpy as np
    import scipy.fft

    from sdlab import _accel, grid

    out, reference = {}, {}
    rng = np.random.default_rng(0)
    for n in (32, 64):
        x = rng.standard_normal((n,) * 3)
        xc = x + 0j
        reps = 3 if smoke else 20
        out[f"grid.fft_ms.n{n}"] = timed_probe(lambda: grid.fftn(xc), reps)
        reference[f"scipy_fftn_ms.n{n}"] = timed_probe(
            lambda: scipy.fft.fftn(xc, workers=grid.fft_workers()), reps)
        reference[f"scipy_rfftn_ms.n{n}"] = timed_probe(
            lambda: scipy.fft.rfftn(x, workers=grid.fft_workers()), reps)
    field = rng.standard_normal((3, 32, 32, 32))
    pts = rng.uniform(0.0, 16.0, size=(65536, 3))
    out["sim.trilinear_ms"] = timed_probe(lambda: _accel.trilinear_at(field, pts, 32, 0.5), 3 if smoke else 10)
    return out, reference


def layer_metrics(tracer, round_start, fft_before, drift_steps):
    """Per-layer figures of one traced round from its spans."""
    spans = tracer.spans
    rnd = spans[round_start:]
    m = {
        "grid.fft_calls": tracer.fft_calls - fft_before[0],
        "grid.fft_s": tracer.fft_s - fft_before[1],
        "resolvent.self_s": sum(s.self_s for s in rnd if s.name.startswith("resolvent.")),
    }

    def mean(values):
        return sum(values) / len(values)

    groups = {}
    for s in rnd:
        groups.setdefault(s.name, []).append(s)
    matvecs = {}
    for s in rnd:
        if s.name == "resolvent.loop_matvec":
            matvecs[s.parent] = matvecs.get(s.parent, 0) + 1
    for name, group in groups.items():
        parts = name.split(".")
        if parts[:2] == ["resolvent", "apply"] and len(parts) == 5:
            m[f"resolvent.apply_ms.{'.'.join(parts[2:])}"] = 1e3 * mean([s.duration for s in group])
        elif parts[:2] == ["resolvent", "op_norm"]:
            tag = ".".join(parts[2:])
            m[f"resolvent.op_norm_s.{tag}"] = mean([s.duration for s in group])
            ids = [spans.index(s) for s in group]
            m[f"resolvent.op_norm_matvecs.{tag}"] = mean([matvecs.get(i, 0) for i in ids])
        elif parts[:2] == ["fields", "curve"]:  # one curve per round, one span per lambda point
            tag = ".".join(parts[2:])
            m[f"fields.curve_s.{tag}"] = sum(s.duration for s in group)
            if parts[2] != "K":
                m[f"fields.matvecs.{tag}"] = sum(s.incl_fft_calls for s in group) / 4.0
    if "resolvent.apply" in groups:  # the solves inside evolve: direct, p = 2, 32^3, real data
        m["resolvent.apply_ms.direct.p2.n32"] = 1e3 * mean([s.duration for s in groups["resolvent.apply"]])
    evolves = groups.get("semigroup.evolve", [])  # the drift run's pieces
    if evolves:
        m["semigroup.evolve_s"] = sum(s.duration for s in evolves + groups.get("semigroup.evolve_free", []))
        m["semigroup.fft_calls_per_step"] = sum(s.incl_fft_calls for s in evolves) / drift_steps
    sims = groups.get("sim.simulate_paths", [])
    if sims:
        chunks = groups.get("sim.em_chunk", [])
        m["sim.simulate_paths_s"] = sum(s.duration for s in sims)
        m["sim.em_chunk_s"] = sum(s.duration for s in chunks)
        m["sim.self_s"] = m["sim.simulate_paths_s"] - m["sim.em_chunk_s"]
    assemblies = [s.duration for s in spans if s.name == "resolvent.assembly"]
    if assemblies:
        m["resolvent.assembly_ms"] = 1e3 * mean(assemblies)
    return m


def traced_run(cls, args, names):
    """Set-up and one round traced, one round untraced; per-layer figures."""
    import sdlab.semigroup
    import sdlab.sim
    from spans import Tracer

    tracer = Tracer()

    class TracedAssembly(sdlab.semigroup.ResolventAssembly):
        def apply(self, f, tol=None, kmax=None):
            with tracer.span("resolvent.apply"):
                return super().apply(f, tol=tol, kmax=kmax)

    def install():
        tracer.install()
        tracer.patch(sdlab.sim, "em_chunk", tracer.wrap("sim.em_chunk", sdlab.sim.em_chunk))
        tracer.patch(sdlab.semigroup, "ResolventAssembly", TracedAssembly)

    install()
    wl = cls(args.seed, smoke=args.smoke, tracer=tracer)
    tracer.uninstall()
    wl.tracer = None
    untraced_s, records = run_round(wl, 0)
    install()
    wl.tracer = tracer
    round_start = len(tracer.spans)
    fft_before = (tracer.fft_calls, tracer.fft_s)
    traced_s, recs = run_round(wl, 1)
    records = records + recs
    m = layer_metrics(tracer, round_start, fft_before, getattr(wl, "pde_steps", 1))
    m.update(wl.layer_extras())
    tracer.uninstall()
    probe, reference = probes(args.smoke)
    m.update(probe)
    m["trace.overhead_s"] = traced_s - untraced_s
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.spans.jsonl")
    # a layer the workload does not reach reads 0; figures of the 8^3 dense
    # references are kept in the spans file only
    metrics = {name: m.get(name, 0) for name in names}
    return metrics, records, {"untraced_s": untraced_s, "traced_s": traced_s, "reference": reference,
                              "spans": len(tracer.spans), **wl.facts}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sdlab" / "__init__.py").is_file():
        print(f"sdbench: no sdlab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import sdlab._accel
    import sdlab.grid
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    cls = WORKLOADS[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    if args.trace:
        values, records, extra = traced_run(cls, args, list(units))
    else:
        values, records, extra = timed_run(cls, args, import_s)
    failed = [r for r in records if not r.ok]
    for r in failed:
        print(f"sdbench: FAILED {r.label}: {r.error}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "nproc": nproc, "fft_workers": sdlab.grid.fft_workers(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS}, "lane": sdlab._accel.active_lane(),
        "git_sha": git_sha(), "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "failures": [[repr(r.label), r.error] for r in failed], **extra,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps({"result": result, "facts": facts}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
