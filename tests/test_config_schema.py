"""The declared config schema: what each experiment takes, and that no config escapes it.

The fuzz property mutates one key path of each experiment's minimal
config at a time, nested ``grid``, ``field`` and ``f`` keys included,
over a fixed set of JSON values.  The heavy entry points (the class
estimators, the smoothing study, the acceptance run and the kernel
checks) raise a sentinel, so a run either exits 2 before any of them,
naming the key path it refuses, or reaches one.
"""

import copy
import json
import re
from pathlib import Path

import pytest

import sdlab.cli
from sdlab.cli import COMMON, EXPERIMENTS, GRID, INPUTS, REQUIRED, main
from sdlab.fields import DriftSpec

VALUES = [None, True, "x", [], [None], {}, -1, 0, 2.5, [1, None], 10**400]  # the last overflows a float
HARDY = {"kind": "hardy", "c": 0.2}
BUMP = {"kind": "bump", "sigma2": 4.0, "center": [4.0, 4.0, 4.0]}
HEAVY = (
    "estimate_class_F_half", "estimate_class_F", "estimate_class_K", "bessel_smoothing_study", "run_all",
    "check_gradient_domination", "check_fractional_gradient_domination", "check_complex_domination",
    "check_fractional_power_identity", "truncation_remainder",
)

# the key set each experiment accepted before the schema was declared, besides schema and experiment
PARENT_KEYS = {
    "constants": {"d", "deltas"},
    "estimate-class": {"field", "grid", "classes", "lambda_grid"},
    "resolvent": {"field", "grid", "p", "zeta", "f", "representation", "lambda_grid", "guard_margin"},
    "pseudo-resolvent": {"field", "grid", "p", "n_pairs", "lambda_grid", "guard_margin"},
    "norm-bounds": {"field", "grid", "p", "n_starts", "lambda_grid", "guard_margin"},
    "convergence-study": {"field", "grid", "p", "levels", "t", "steps", "f", "lambda_grid", "guard_margin"},
    "semigroup": {"field", "grid", "p", "t", "steps", "richardson", "f", "lambda_grid", "guard_margin"},
    "ultracontractivity": {"field", "grid", "p_from", "r_to", "t_grid", "steps", "n_sources", "lambda_grid",
                           "guard_margin", "p"},
    "verify-kernels": {"which", "d"},
    "holder-probe": {"field", "grid", "p", "f", "pairs_per_bin", "lambda_grid", "guard_margin"},
    "smoothing-study": {"field", "grid", "p", "q", "sizes", "delta", "lam"},
    "weak-identity": {"field", "grid", "p", "count", "f", "lambda_grid", "guard_margin"},
    "simulate": {"field", "grid", "p", "t", "dt", "paths", "starts", "pde_steps", "f", "dump_terminal",
                 "lambda_grid", "guard_margin", "drift_sign"},
    "acceptance": {"only"},
    "report": set(),
}
# the experiments whose field was a required key
REQUIRED_FIELD = set(PARENT_KEYS) - {"constants", "ultracontractivity", "verify-kernels", "acceptance", "report"}


class Reached(Exception):
    """A heavy entry point was called: the config passed validation."""


@pytest.fixture
def heavy_raises(monkeypatch):
    def sentinel(*args, **kwargs):
        raise Reached

    for name in HEAVY:
        monkeypatch.setattr(sdlab.cli, name, sentinel)
    parser = sdlab.cli.build_parser()  # built once: building it takes longer than most refusals
    monkeypatch.setattr(sdlab.cli, "build_parser", lambda: parser)


def _minimal(name):
    keys = EXPERIMENTS[name][1]
    cfg = {}
    if "grid" in keys:
        cfg["grid"] = {"n": 64 if name == "holder-probe" else 8, "L": 8.0}
    if "field" in keys:  # holder-probe's 64^3 grid takes the cheap zero field; the others cover field's keys
        cfg["field"] = None if name == "holder-probe" else dict(HARDY)
    if "f" in keys:
        cfg["f"] = dict(BUMP, center=[4.0] * 3)
    if name == "smoothing-study":
        cfg["sizes"] = [8]
    return cfg


def _key_paths(name, cfg):
    """(base config, key path) pairs: every declared key, and every nested key of grid, field and f."""
    keys = EXPERIMENTS[name][1]
    pairs = [(cfg, (key,)) for key in keys]
    if "grid" in keys:
        pairs += [(cfg, ("grid", key)) for key in GRID]
    if "f" in keys:
        pairs += [(cfg, ("f", key)) for key in INPUTS["bump"]]
        pairs += [({**cfg, "f": {"kind": "noise"}}, ("f", key)) for key in INPUTS["noise"]]
    if cfg.get("field"):
        pairs += [(cfg, ("field", key)) for key in ("kind", "c", "truncate", "mollify")]
    return pairs


def _set(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _names(err, path):
    """Whether a config error names ``path``: a.b, or a: b for a drift parameter, or a list entry a[i]."""
    return bool(re.match(rf"config error: ({re.escape('.'.join(path))}|{re.escape(': '.join(path))})[:\[]", err))


def _run(name, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    try:
        code = main([name, "--config", str(path), "--out", str(tmp_path / "out")])
    except Reached:
        code = None
    return code, capsys.readouterr().err


def test_each_experiment_takes_the_keys_it_took_before():
    assert {name: set(keys) - {"schema", "experiment"} for name, (_, keys) in EXPERIMENTS.items()} == PARENT_KEYS
    for name, (_, keys) in EXPERIMENTS.items():
        assert ("field" in keys and keys["field"].default is REQUIRED) == (name in REQUIRED_FIELD), name


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_one_mutated_key_exits_2_naming_it_or_passes_validation(tmp_path, capsys, heavy_raises, name):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "constants.csv").write_text("d\n3\n")  # an artifact for report to digest
    cfg = _minimal(name)
    code, err = _run(name, cfg, tmp_path, capsys)
    assert code in (None, 0), err
    escapes = []
    for base, path in _key_paths(name, cfg):
        for value in VALUES:
            try:
                code, err = _run(name, _set(base, path, value), tmp_path, capsys)
            except Exception as exc:  # an uncaught exception is the escape this property looks for
                escapes.append((path, value, repr(exc)))
                continue
            if code not in (None, 0, 2, 3) or (code == 2 and not _names(err, path)):
                escapes.append((path, value, code, err))
    assert not escapes


@pytest.mark.parametrize(
    "cfg, path",
    [
        ({"field": {"kind": "hardy", "c": bad}}, ("field", "c")) for bad in (None, "x", [None], {}, True)
    ] + [
        ({"field": {"kind": bad}}, ("field", "kind")) for bad in ([], {}, ["hardy"])
    ] + [
        ({"field": HARDY, "f": {"kind": bad}}, ("f", "kind")) for bad in ([], {})
    ],
)
def test_the_field_and_input_escapes_exit_2_naming_their_key(tmp_path, capsys, heavy_raises, cfg, path):
    # each raised TypeError, UFuncTypeError or "unhashable type"; c: true ran as c = 1
    for name in ("resolvent", "semigroup", "simulate", "estimate-class", "ultracontractivity", "smoothing-study"):
        if path[0] not in EXPERIMENTS[name][1]:
            continue
        code, err = _run(name, {**cfg, "grid": {"n": 8}, **({"sizes": [8]} if name == "smoothing-study" else {})},
                         tmp_path, capsys)
        assert code == 2 and _names(err, path), (name, code, err)


@pytest.mark.parametrize(
    "drift, named",
    [
        ({"kind": "sphere", "beta": "0.5"}, "beta"),
        ({"kind": "constant", "vector": [0.1, None, 0.0]}, "vector"),
        ({"kind": "smooth-random", "kmax": 1.5}, "kmax"),
        ({"kind": "smooth-random", "seed": True}, "seed"),
        ({"kind": "sum", "terms": []}, "terms"),
        ({"kind": "sum", "terms": [{"kind": "hardy", "c": "big"}]}, "c"),
        ({"kind": "smooth-random", "kmax": 0}, "kmax"),  # was "field: matmul: ... size 0 ..."
        ({"kind": "constant", "vector": [0.1, 0.0]}, "vector"),  # was "field: operands could not be broadcast ..."
    ],
)
def test_drift_parameters_are_checked_against_their_declared_kind(tmp_path, capsys, heavy_raises, drift, named):
    code, err = _run("estimate-class", {"field": drift, "grid": {"n": 8}}, tmp_path, capsys)
    assert code == 2 and err.startswith(f"config error: field: {named}: expected "), err


@pytest.mark.parametrize("kind, named", [("sphere", "beta"), ("constant", "vector"), ("sum", "terms")])
def test_a_missing_required_drift_parameter_exits_2_naming_it(tmp_path, capsys, heavy_raises, kind, named):
    # each exited 2 with a bare KeyError: "field: 'beta'"
    code, err = _run("estimate-class", {"field": {"kind": kind}, "grid": {"n": 8}}, tmp_path, capsys)
    assert code == 2, err
    assert err.strip() == f"config error: field: {named}: required parameter of drift kind {kind!r} missing"


def test_drift_spec_keyword_api_is_unchecked_by_kind():
    # the keyword API keeps its behaviour: only the JSON entry point checks parameter kinds
    assert DriftSpec("smooth-random", kmax=1.5).params == {"kmax": 1.5}
    with pytest.raises(ValueError, match="unknown parameter"):
        DriftSpec("hardy", C=0.2)


@pytest.mark.parametrize("q", [0, -1.0])
def test_smoothing_study_q_must_be_positive(tmp_path, capsys, heavy_raises, q):
    # q = 0 raised ZeroDivisionError in bessel_smoothing_study; q < 0 ran with order 1 + 1/q < 1
    code, err = _run("smoothing-study", {"field": HARDY, "grid": {"n": 8}, "sizes": [8], "q": q}, tmp_path, capsys)
    assert code == 2 and err.startswith("config error: q: expected a number > 0, got "), err


@pytest.fixture
def ran(monkeypatch):
    calls = []
    monkeypatch.setattr(sdlab.cli, "run_all", lambda indices: calls.append(indices) or [])
    return calls


@pytest.mark.parametrize("only", [[], [True], [0], [13], [2.5], "1"], ids=str)
def test_acceptance_only_takes_a_nonempty_list_of_criterion_indices(tmp_path, capsys, ran, only):
    # [] ran no criterion and exited 0; [true] ran criterion 1
    code, err = _run("acceptance", {"only": only}, tmp_path, capsys)
    assert code == 2 and err.startswith("config error: only: expected a "), err
    assert ran == []


@pytest.mark.parametrize("cfg, flag, indices", [({"only": [1.0, 3]}, None, {1, 3}), ({}, "1.0,3", {1, 3}),
                                                ({"only": None}, None, None), ({"only": [2]}, "4", {4})])
def test_acceptance_only_whole_floats_count_as_indices(tmp_path, capsys, ran, cfg, flag, indices):
    # [1.0] exited 2 although every other count takes 3.0; --only overrides the config's only
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["acceptance", "--config", str(path), "--out", str(tmp_path / "o")] + (["--only", flag] if flag else [])
    assert main(argv) == 0
    assert ran == [indices]


def test_readme_lists_every_key_of_every_experiment():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    nested = ({f"grid.{k}" for k in GRID} | {f"f.{k}" for kind in INPUTS.values() for k in kind}
              | {"field.truncate", "field.mollify"} | {k for params in DriftSpec.PARAMS.values() for k in params})
    for key in nested:
        assert f"`{key}`" in readme, key
    for key in COMMON:
        assert f"`{key}`" in readme, key
    for name, (_, keys) in EXPERIMENTS.items():
        section = readme.split(f"#### `{name}`", 1)[1].split("####", 1)[0]
        for key in set(keys) - set(COMMON):
            assert f"`{key}`" in section, (name, key)
