"""Acceptance gate: every headline criterion at its pinned tolerance.

Each test prints the one-line PASS/FAIL summary for its criterion (run
pytest with -s to see them stream), checks it and the ``repr`` of its
measured values against their records in ``golden/acceptance.txt`` and
``golden/acceptance_values.txt``, and asserts the flag.  A change that moves a
printed number rewrites the record with ``golden/regenerate.py`` and
lists the diff.
"""

from golden.regenerate import GOLDEN, VALUES, value_line, versions
from sdlab import acceptance as acc

_results = {}


def _run(index):
    if index not in _results:
        _results[index] = acc.CRITERIA[index - 1]()
    r = _results[index]
    print()
    print(r.line(), f"({r.seconds:.1f}s)")
    for record, line in ((GOLDEN, r.line()), (VALUES, value_line(r))):
        header, *lines = record.read_text().splitlines()
        assert line == lines[index - 1], (
            f"criterion {index}'s line differs from its record in {record.name}, made with {header[2:]}; "
            f"this run has {versions()}")
    return r


def test_criterion_01_constants():
    assert _run(1).passed


def test_criterion_02_resolvent_identity():
    assert _run(2).passed


def test_criterion_03_pseudo_resolvent():
    assert _run(3).passed


def test_criterion_04_representation_agreement():
    assert _run(4).passed


def test_criterion_05_loop_norm_bounds():
    assert _run(5).passed


def test_criterion_06_truncation_convergence():
    assert _run(6).passed


def test_criterion_07_positivity_contraction():
    assert _run(7).passed


def test_criterion_08_ultracontractivity():
    assert _run(8).passed


def test_criterion_09_kernel_estimates():
    assert _run(9).passed


def test_criterion_10_weak_identity():
    assert _run(10).passed


def test_criterion_11_feller_cross_validation():
    assert _run(11).passed


def test_criterion_12_smoothing_refinement():
    assert _run(12).passed
