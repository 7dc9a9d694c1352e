import math

import numpy as np
import pytest

from sdlab import constants as C


def test_m_d_two_formulas_agree():
    for d in range(2, 11):
        a = C.m_d(d)
        b = C.m_d_squared_form(d)
        assert abs(a - b) / a < 1e-12


def test_m_d_values():
    # frozen from independent high-precision evaluation of the closed form
    assert C.m_d(3) == pytest.approx(1.9749885583325186, rel=1e-12)
    assert C.m_d(2) == pytest.approx(1.5203469010662807, rel=1e-12)
    with pytest.raises(ValueError):
        C.m_d(1)


def test_c_p_minimum_at_two():
    assert C.c_p(2.0) == pytest.approx(1.0)
    for p in (1.3, 1.7, 2.5, 4.0, 9.0):
        assert C.c_p(p) > 1.0


def test_interval_quarter_case():
    # m_d * delta = 0.75 makes sqrt(1 - m_d delta) = 1/2 and I = (4/3, 4)
    d = 3
    delta = 0.75 / C.m_d(d)
    lo, hi = C.interval_I(delta, d)
    assert lo == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert hi == pytest.approx(4.0, rel=1e-12)


def test_interval_degenerate_and_empty():
    lo, hi = C.interval_I(0.0, 3)
    assert lo == pytest.approx(1.0) and hi == math.inf
    with pytest.raises(ValueError):
        C.interval_I(1.01 / C.m_d(3), 3)


def test_interval_contains_two_and_shrinks():
    for d in range(3, 11):
        md = C.m_d(d)
        widths = []
        for frac in (0.2, 0.5, 0.8, 0.95, 0.999):
            lo, hi = C.interval_I(frac / md, d)
            assert 1.0 < lo < 2.0 < hi
            widths.append(hi - lo)
        assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))
        lo, hi = C.interval_I(0.999999 / md, d)
        assert lo == pytest.approx(2.0, abs=3e-3)
        assert hi == pytest.approx(2.0, abs=3e-3)


def test_guard_inside_interval():
    d = 3
    rng = np.random.default_rng(0)
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        delta = frac / C.m_d(d)
        lo, hi = C.interval_I(delta, d)
        span = hi - lo
        for p in rng.uniform(lo + 1e-9 * span, hi - 1e-9 * span, size=20):
            assert C.neumann_guard_value(p, delta, d) < 1.0


def test_feller_threshold():
    assert C.feller_threshold(3) == pytest.approx(1.0)
    assert C.feller_threshold(4) == pytest.approx(8.0 / 9.0)
    for d in range(3, 12):
        assert C.feller_threshold(d) <= 1.0
        if d > 3:
            assert C.feller_threshold(d) < 1.0


def test_fractional_constant_value():
    # Gamma(1/2) / Gamma(1/4)^2, frozen from gamma-function evaluation
    assert C.c_q_fractional(2.0) == pytest.approx(0.13483815029709484, rel=1e-12)
    with pytest.raises(ValueError):
        C.c_q_fractional(1.0)


def test_resolvent_constant_guard():
    d, p = 3, 2.0
    delta = 0.3 / C.m_d(d)
    cp = C.C_p_resolvent(p, delta, d)
    assert cp > 1.0
    with pytest.raises(ValueError):
        C.C_p_resolvent(2.0, 1.1 / C.m_d(d), d)


def test_constants_table_rows():
    rows = C.constants_table([3, 4], [0.1, 0.2])
    assert len(rows) == 4
    d, md, kd, thr, delta, lo, hi = rows[0]
    assert d == 3 and md == pytest.approx(C.m_d(3)) and kd == pytest.approx(1.5)
