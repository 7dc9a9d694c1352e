"""Closed-form constants gating the series inversion and the norm bounds.

Everything here is evaluated from its defining formula in double
precision; nothing is a hard-coded decimal.  These values guard the
convergence of the Neumann inverse and feed the diagnostic bound
reports.
"""

from __future__ import annotations

import math

from scipy.special import gamma as _gamma

__all__ = [
    "m_d",
    "m_d_squared_form",
    "kappa_d",
    "c_p",
    "interval_I",
    "feller_threshold",
    "neumann_guard_value",
    "c_q_fractional",
    "C_r_delta",
    "C1",
    "C2",
    "C3",
    "C_p_resolvent",
    "constants_table",
]


def m_d(d):
    """Gradient-domination constant pi^(1/2) (2e)^(-1/2) d^(d/2) (d-1)^((1-d)/2)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    d = float(d)
    return math.sqrt(math.pi) / math.sqrt(2.0 * math.e) * d ** (d / 2.0) * (d - 1.0) ** ((1.0 - d) / 2.0)


def m_d_squared_form(d):
    """Same constant via its squared form pi (2e)^-1 d^d (d-1)^(1-d)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    d = float(d)
    return math.sqrt(math.pi / (2.0 * math.e) * d ** d * (d - 1.0) ** (1.0 - d))


def kappa_d(d):
    """d/(d-1), the half-plane scaling factor."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return d / (d - 1.0)


def holder_conjugate(p):
    p = float(p)
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    return p / (p - 1.0)


def c_p(p):
    """p p'/4; equals 1 exactly at p = 2 and exceeds 1 elsewhere."""
    return p * holder_conjugate(p) / 4.0


def interval_I(delta, d):
    """Admissible exponent interval (2/(1+s), 2/(1-s)), s = sqrt(1 - m_d delta).

    Empty (raises) when m_d * delta >= 1, which is exactly the failure of
    the smallness hypothesis.
    """
    md = m_d(d)
    if md * delta >= 1.0:
        raise ValueError(
            f"m_d*delta = {md * delta:.6g} >= 1: admissible interval is empty"
        )
    s = math.sqrt(1.0 - md * delta)
    if s == 1.0:
        return (1.0, math.inf)
    return (2.0 / (1.0 + s), 2.0 / (1.0 - s))


def feller_threshold(d):
    """4(d-2)/(d-1)^2, the stricter smallness level for the C_infty theory."""
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    return 4.0 * (d - 2.0) / (d - 1.0) ** 2


def neumann_guard_value(p, delta, d):
    """m_d c_p delta; the series inverse is guarded by this being < 1."""
    return m_d(d) * c_p(p) * delta


def c_q_fractional(q):
    """Gamma(1/2) / (Gamma(1/(2q)) Gamma(1/(2q'))).

    Normalizing constant of the one-dimensional integral representation
    of the fractional power (zeta - Laplacian)^(-1/(2q')).
    """
    q = float(q)
    if not 1.0 < q < math.inf:
        raise ValueError(f"q must lie in (1, inf), got {q}")
    qp = holder_conjugate(q)
    return _gamma(0.5) / (_gamma(0.5 / q) * _gamma(0.5 / qp))


def C_r_delta(r, delta):
    """(c_r delta)^(1/r), the weighted-resolvent bound constant."""
    return (c_p(r) * delta) ** (1.0 / r)


def C1(p, delta, d):
    """2 kappa_d m_d C_{p,delta} 2^(d/4): bound constant for G_p."""
    return 2.0 * kappa_d(d) * m_d(d) * C_r_delta(p, delta) * 2.0 ** (d / 4.0)


def C2(p, delta, d):
    """2 C_{p',delta} 2^(-d/4+1/4): bound constant for Q_p."""
    return 2.0 * C_r_delta(holder_conjugate(p), delta) * 2.0 ** (-d / 4.0 + 0.25)


def C3(p, delta, d):
    """2 C_{p,delta} 2^(d/4+1/4) 2^(-1/2): bound constant for P_p."""
    return 2.0 * C_r_delta(p, delta) * 2.0 ** (d / 4.0 + 0.25) * 2.0 ** (-0.5)


def C_p_resolvent(p, delta, d):
    """1 + C1 C2 / (1 - m_d c_p delta): |zeta|-scaled resolvent bound."""
    g = neumann_guard_value(p, delta, d)
    if g >= 1.0:
        raise ValueError(f"m_d c_p delta = {g:.6g} >= 1")
    return 1.0 + C1(p, delta, d) * C2(p, delta, d) / (1.0 - g)


def constants_table(d_values, deltas):
    """Rows (d, m_d, kappa_d, feller_threshold, delta, I_lo, I_hi) for the CLI."""
    rows = []
    for d in d_values:
        md = m_d(d)
        kd = kappa_d(d)
        thr = feller_threshold(d) if d >= 3 else float("nan")
        for delta in deltas:
            if md * delta < 1.0:
                lo, hi = interval_I(delta, d)
            else:
                lo, hi = float("nan"), float("nan")
            rows.append((d, md, kd, thr, delta, lo, hi))
    return rows
