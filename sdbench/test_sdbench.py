"""Tests of the benchmark itself: smoke runs, and checks that catch planted faults.

    python3 -m pytest -q sdbench

Each planted fault is one wrong answer slipped into an otherwise correct
round; the workload's own check must reject it.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as W  # noqa: E402
from sdlab.grid import GridFunction  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "sdbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def smoke(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    return {name: got["value"] for name, got in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    assert all(value > 0 for value in smoke(workload, "0").values())


def test_smoke_traced_runs_cover_every_layer_metric():
    reached = set()
    for w in BENCH["workloads"]:
        reached |= {name for name, value in smoke(w["name"], "1").items() if value != 0}
    assert reached == {m["name"] for m in BENCH["per_layer"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sdbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "resolve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def checked_round(cls):
    wl = cls(5, smoke=True)
    wl.prepare(0)
    wl.records = []
    wl.run()
    wl.check(wl.records)
    assert all(r.ok for r in wl.records), [(r.label, r.error) for r in wl.records if not r.ok]
    return wl


@pytest.fixture(scope="module")
def resolve_round():
    return checked_round(W.Resolve)


@pytest.fixture(scope="module")
def certify_round():
    return checked_round(W.Certify)


@pytest.fixture(scope="module")
def feller_round():
    return checked_round(W.Feller)


def plant(wl, label, change):
    """Re-check a copy of the round with ``change`` applied to one output."""
    records = []
    for r in wl.records:
        out = change(r.out) if r.label == label else r.out
        records.append(W.Record(r.label, out, None))
    wl.check(records)
    return {r.label: r for r in records}


def perturbed(u, rel=1e-6):
    v = u.values.copy()
    v.flat[0] += rel * np.abs(v).max()
    return GridFunction(u.grid, v)


def test_resolve_rejects_perturbed_solution(resolve_round):
    label = ("solve", "fractional", "p2_5", "n64")
    checked = plant(resolve_round, label, perturbed)
    assert not checked[label].ok and "residual" in checked[label].error


def test_resolve_rejects_disagreeing_factorization(resolve_round):
    label = ("solve", "symmetric", "p2", "n32")
    checked = plant(resolve_round, label, perturbed)
    assert not checked[("solve", "direct", "p2", "n32")].ok


def scaled_curve(factor):
    def change(est):
        return dataclasses.replace(est, delta_curve=est.delta_curve * factor)
    return change


@pytest.mark.parametrize("label", [
    ("point", "F", "constant", 0), ("point", "F_half", "constant", 3), ("curve", "K", "constant"),
    ("point", "F", "dense-hardy", 1), ("point", "F_half", "dense-hardy", 2),
])
def test_certify_rejects_perturbed_delta(certify_round, label):
    checked = plant(certify_round, label, scaled_curve(1.0 + 1e-5))
    assert not checked[label].ok


def test_certify_rejects_inflated_half_class(certify_round):
    label = ("point", "F_half", "sphere", 2)
    checked = plant(certify_round, label, scaled_curve(1.01))
    assert not checked[label].ok


def test_certify_rejects_low_exact_norm(certify_round):
    labels = [r.label for r in certify_round.records
              if r.label[0] == "norm" and r.label[1] == "constant" and r.label[2] == "p2"]
    checked = plant(certify_round, labels[0], lambda out: (0.98 * out[0],) + out[1:])
    assert not checked[labels[0]].ok


def test_certify_rejects_norm_above_bound(certify_round):
    label = next(r.label for r in certify_round.records if r.label[:2] == ("norm", "hardy"))
    checked = plant(certify_round, label, lambda out: (1e3 * out[0],) + out[1:])
    assert not checked[label].ok


def test_feller_rejects_flipped_drift_passed_as_correct(feller_round):
    wl = feller_round
    flipped = {r.label[2]: r.out for r in wl.records if r.label[:2] == ("mc", "flipped")}
    records = [W.Record(r.label, flipped[r.label[2]] if r.label[:2] == ("mc", "drift") else r.out, None)
               for r in wl.records]
    wl.check(records)
    assert not all(r.ok for r in records if r.label[:2] == ("mc", "drift"))


def test_feller_rejects_mutation_that_goes_unnoticed(feller_round):
    wl = feller_round
    drift = {r.label[2]: r.out for r in wl.records if r.label[:2] == ("mc", "drift")}
    records = [W.Record(r.label, drift[r.label[2]] if r.label[:2] == ("mc", "flipped") else r.out, None)
               for r in wl.records]
    wl.check(records)
    assert not any(r.ok for r in records if r.label[:2] == ("mc", "flipped"))


def test_feller_rejects_perturbed_free_evolution(feller_round):
    label = ("evolve", "free")
    checked = plant(feller_round, label, lambda u: perturbed(u, 1e-8))
    assert not checked[label].ok


def test_feller_rejects_lost_positivity(feller_round):
    label = ("evolve", "drift", W.Feller.PIECES - 1)

    def dent(u):
        v = u.values.copy()
        v.flat[0] = -1e-6
        return GridFunction(u.grid, v)

    checked = plant(feller_round, label, dent)
    assert not checked[label].ok
