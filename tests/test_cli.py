import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdlab.cli import main
from sdlab.grid import fft_workers


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_constants_subcommand(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"experiment": "constants", "d": [3, 4], "deltas": [0.1]})
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "constants.csv").read_text().splitlines()
    assert body[0] == "d,m_d,kappa_d,feller_threshold,delta,I_lo,I_hi"
    assert len(body) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["fft_workers"] == fft_workers() and "lane" in manifest
    assert manifest["peak_rss_mb"] > 0


def test_unknown_key_exits_2_and_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"field": {"kind": "hardy", "c": 0.2}, "grd": {"n": 8}})
    code = main(["resolvent", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "grd" in capsys.readouterr().err


HARDY = {"kind": "hardy", "c": 0.2}


@pytest.mark.parametrize(
    "experiment, cfg, named",
    [
        ("estimate-class", {"field": {"kind": "hardy", "C": 0.9}}, "field: C: unknown"),
        ("estimate-class", {"field": {"kind": "sphere", "beta": 0.5, "c": 0.2}}, "field: c: unknown"),
        ("estimate-class", {"field": {"kind": "constant", "vec": [0.1, 0, 0]}}, "field: vec: unknown"),
        ("estimate-class", {"field": {"kind": "smooth-random", "sede": 3}}, "field: sede: unknown"),
        ("estimate-class", {"field": {"kind": "sum", "terms": [{"kind": "hardy", "amp": 0.2}]}},
         "field: amp: unknown"),
        ("resolvent", {"field": HARDY, "f": {"kind": "bump", "sigma": 2.0}}, "f.sigma: unknown"),
        ("resolvent", {"field": HARDY, "f": {"kind": "noise", "sigma2": 2.0}}, "f.sigma2: unknown"),
    ],
    ids=["hardy", "sphere", "constant", "smooth-random", "sum-term", "bump", "noise"],
)
def test_unknown_field_or_input_key_exits_2(tmp_path, capsys, experiment, cfg, named):
    path = write_cfg(tmp_path, {**cfg, "grid": {"n": 8}})
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "bump, named",
    [
        ({"sigma2": 0}, "f.sigma2: expected a positive width, got 0.0"),
        ({"sigma2": -1}, "f.sigma2: expected a positive width, got -1.0"),
        ({"center": [1, 2]}, "f.center: expected 3 coordinates, got [1, 2]"),
    ],
    ids=["sigma2-zero", "sigma2-negative", "center-short"],
)
def test_bad_bump_input_exits_2_and_names_key(tmp_path, capsys, bump, named):
    # a zero width made a NaN input, a negative one a blow-up, and a short
    # center lost its missing coordinates without a word
    path = write_cfg(tmp_path, {"field": HARDY, "grid": {"n": 8}, "f": {"kind": "bump", **bump}})
    out = tmp_path / "o"
    assert main(["semigroup", "--config", path, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "semigroup.csv").exists()


@pytest.mark.parametrize(
    "cfg, named",
    [
        ({"field": HARDY, "grid": 3}, "grid: expected a JSON object, got 3"),
        ({"field": [1, 2], "grid": {"n": 8}}, "field: expected a JSON object, got [1, 2]"),
        ({"field": HARDY, "grid": {"n": 8}, "f": 3}, "f: expected a JSON object, got 3"),
    ],
    ids=["grid", "field", "f"],
)
def test_non_object_grid_field_or_input_exits_2(tmp_path, capsys, cfg, named):
    path = write_cfg(tmp_path, cfg)
    assert main(["resolvent", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


def test_smooth_random_field_off_d3_exits_2_and_names_kind(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"field": {"kind": "smooth-random"}, "grid": {"n": 8, "d": 4}})
    assert main(["estimate-class", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: field: drift kind 'smooth-random' supports d = 3 only, got d = 4" in err


def test_only_is_an_acceptance_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--only", "1", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": {"n": 8}})
    code = main(["resolvent", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "field" in capsys.readouterr().err


def test_bad_schema_value_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"schema": 2, "field": {"kind": "hardy", "c": 0.2}})
    code = main(["resolvent", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, cfg",
    [
        ("resolvent", {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 7}}),
        ("resolvent", {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 8}, "representation": "bogus"}),
        ("resolvent", {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 8}, "p": 0.5}),
        ("semigroup", {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 8}, "steps": 0}),
        ("simulate", {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 8}, "dt": -0.001}),
        ("resolvent", {"field": {"kind": "hardy", "c": 0.2, "truncate": 0}, "grid": {"n": 8}}),
        ("simulate", {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 8}, "starts": [[4, 4]]}),
        ("ultracontractivity", {"grid": {"n": 8}, "steps": 0}),
    ],
    ids=["odd-n", "representation", "p", "steps", "dt", "truncate", "start", "ultracontractivity-steps"],
)
def test_rejected_config_value_exits_2(tmp_path, capsys, experiment, cfg):
    path = write_cfg(tmp_path, cfg)
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_guard_violation_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "hardy", "c": 0.9}, "grid": {"n": 16, "L": 16},
         "p": 2.0, "lambda_grid": [0.01]},
    )
    code = main(["resolvent", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "hypotheses" in capsys.readouterr().err


def test_zeta_below_half_plane_floor_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 8}, "zeta": [0.01, 0]})
    code = main(["resolvent", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "hypotheses" in capsys.readouterr().err


def test_resolvent_pipeline_and_rerun_determinism(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"experiment": "resolvent", "field": {"kind": "hardy", "c": 0.2},
         "p": 2.5, "grid": {"n": 16, "L": 16}},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["resolvent", "--config", cfg, "--out", str(out1), "--seed", "5"]) == 0
    assert main(["resolvent", "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0
    assert (out1 / "residual_report.csv").read_bytes() == (out2 / "residual_report.csv").read_bytes()
    assert (out1 / "resolvent_output.bin").read_bytes() == (out2 / "resolvent_output.bin").read_bytes()


def test_estimate_class_csv(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "constant", "vector": [0.5, 0, 0]}, "grid": {"n": 8, "L": 8},
         "classes": ["F_half"], "lambda_grid": [1.0, 4.0]},
    )
    out = tmp_path / "out"
    assert main(["estimate-class", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "class_estimate.csv").read_text().splitlines()
    assert rows[0] == "class,lambda,delta,tag"
    # two curve rows plus the minimum row
    assert len(rows) == 4
    vals = [float(r.split(",")[2]) for r in rows[1:3]]
    np.testing.assert_allclose(vals, [0.5, 0.25], rtol=1e-5)


def test_pseudo_resolvent_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "smooth-random", "amp": 0.2, "kmax": 1, "seed": 3},
         "grid": {"n": 8, "L": 8}, "p": 2.5, "n_pairs": 3},
    )
    out = tmp_path / "out"
    assert main(["pseudo-resolvent", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "pseudo_resolvent.csv").read_text().splitlines()
    assert len(rows) == 4 and rows[1].endswith("True")


def test_verify_kernels_selected(tmp_path):
    cfg = write_cfg(tmp_path, {"which": "A1,A5"})
    out = tmp_path / "out"
    assert main(["verify-kernels", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "kernels_A1.csv").exists()
    assert (out / "kernels_A5.csv").exists()
    with pytest.raises(SystemExit):
        main(["verify-kernels", "--badflag"])


def test_verify_kernels_unknown_token(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"which": "A9"})
    assert main(["verify-kernels", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "A9" in capsys.readouterr().err


def test_weak_identity_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 16, "L": 16},
         "p": 2.5, "count": 2, "f": {"kind": "noise"}},
    )
    out = tmp_path / "out"
    assert main(["weak-identity", "--config", cfg, "--out", str(out)]) == 0


def test_smoothing_study_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "hardy", "c": 0.2}, "grid": {"L": 16}, "sizes": [8, 16]},
    )
    out = tmp_path / "out"
    assert main(["smoothing-study", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "smoothing.csv").read_text().splitlines()
    assert len(rows) == 3


def test_holder_probe_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 64, "L": 16},
         "pairs_per_bin": 512},
    )
    out = tmp_path / "out"
    assert main(["holder-probe", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "holder.csv").read_text().splitlines()
    assert rows[-1].endswith("fitted_slope")


def test_convergence_study_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "smooth-random", "amp": 0.3, "kmax": 1, "seed": 4},
         "grid": {"n": 16, "L": 16}, "levels": [0.1, 10.0], "t": 0.2, "steps": 8},
    )
    out = tmp_path / "out"
    assert main(["convergence-study", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert len(rows) == 3
    last = rows[-1].split(",")
    assert float(last[1]) == 0.0  # level above the grid sup reproduces the field


def test_semigroup_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "constant", "vector": [0.2, 0, 0]},
         "grid": {"n": 16, "L": 16}, "t": 0.2, "steps": 4},
    )
    out = tmp_path / "out"
    assert main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "evolved.bin").exists()
    header, row = (out / "semigroup.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["sup"]) <= 1.0 + 1e-8


def test_ultracontractivity_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"grid": {"n": 16, "L": 8}, "t_grid": [0.05, 0.1], "steps": 6, "n_sources": 1},
    )
    out = tmp_path / "out"
    assert main(["ultracontractivity", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "ultracontractivity.csv").read_text().splitlines()
    assert rows[-1].endswith("fitted_slope")


def test_norm_bounds_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "hardy", "c": 0.15}, "grid": {"n": 8, "L": 8}, "n_starts": 2},
    )
    out = tmp_path / "out"
    assert main(["norm-bounds", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "norm_bounds.csv").read_text()
    assert "output_factor_stated" in body and "output_factor_chain" in body


def test_simulate_terminal_dump(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "constant", "vector": [0.1, 0, 0]},
         "grid": {"n": 16, "L": 16}, "t": 0.05, "dt": 0.005,
         "paths": 500, "pde_steps": 8, "dump_terminal": True},
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "terminal.csv").read_text().splitlines()
    assert len(rows) == 501


def test_simulate_grid_payoff_matches_pde_side(tmp_path):
    # rough noise input: the Monte Carlo side must read the interpolant the PDE side evolves
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "hardy", "c": 0.2, "truncate": 5}, "grid": {"n": 16, "L": 16},
         "f": {"kind": "noise", "seed": 3}, "paths": 20000},
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    rows = (out / "simulate.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(r.split(",")[6] == "True" for r in rows)


def test_report_empty_dir_fails(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "empty")]) == 1


def test_report_digest_sections(tmp_path):
    cfg = write_cfg(tmp_path, {"d": [3], "deltas": [0.1]})
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    digest = (out / "digest.md").read_text()
    assert "## Closed-form constants" in digest
    assert "## Gaps" in digest


def test_report_expands_acceptance_rows(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    rows = "\n".join(f"{i},criterion name {i},True,1.0" for i in range(1, 13))
    (out / "acceptance.csv").write_text("index,name,passed,seconds\n" + rows + "\n")
    assert main(["report", "--out", str(out)]) == 0
    digest = (out / "digest.md").read_text()
    assert digest.count("## Criterion") == 12


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "sdlab.cli", "constants", "--out", "/tmp/sdlab-help-run"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_bad_sdl_threads_imports_and_exits_2(tmp_path, monkeypatch, capsys):
    import sdlab

    src = str(Path(sdlab.__file__).parents[1])
    env = dict(os.environ, SDL_THREADS="abc", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", "import sdlab"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for value in ("abc", "0", "-2"):
        monkeypatch.setenv("SDL_THREADS", value)
        assert main(["constants", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "SDL_THREADS" in err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_bad_threads_flag_exits_2(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.delenv("SDL_THREADS", raising=False)
    before = fft_workers()
    assert main(["constants", "--threads", threads, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: --threads" in err
    assert fft_workers() == before


@pytest.mark.parametrize("only", ["1,x", "13", "0"])
def test_acceptance_bad_only_exits_2(tmp_path, capsys, only):
    assert main(["acceptance", "--only", only, "--out", str(tmp_path / "o")]) == 2
    assert "--only" in capsys.readouterr().err


def test_nonfinite_field_exits_2_and_names_key(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"field": {"kind": "constant", "vector": [float("nan"), 0, 0]}, "grid": {"n": 8, "L": 8}},
    )
    assert main(["estimate-class", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "field.vector[0]" in capsys.readouterr().err


@pytest.mark.parametrize("t_grid", [[0.0, 0.05, 0.1, 0.2], [-0.05, 0.05]], ids=["zero", "negative"])
def test_ultracontractivity_nonpositive_t_exits_2_and_names_key(tmp_path, capsys, t_grid):
    cfg = write_cfg(tmp_path, {"grid": {"n": 8}, "t_grid": t_grid})
    assert main(["ultracontractivity", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "t_grid" in err


def test_simulate_one_path_exits_2_and_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"field": {"kind": "hardy", "c": 0.2}, "grid": {"n": 8}, "paths": 1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "paths" in err
