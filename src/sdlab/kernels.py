"""Grid-free verification of the pointwise heat-kernel estimates.

The fractional resolvent kernel is the Laplace-type integral

    (zeta - Lap)^(-gamma/2)(x, y)
        = Gamma(gamma/2)^(-1) *
          integral_0^inf e^(-zeta t) t^(gamma/2 - 1) (4 pi t)^(-d/2)
                          e^(-|x-y|^2 / (4t)) dt,   0 < gamma <= 2,

evaluated here in closed form through

    integral_0^inf t^(nu-1) e^(-zeta t - r^2/(4t)) dt
        = 2 (r / (2 sqrt(zeta)))^nu K_nu(r sqrt(zeta)),   Re zeta > 0,

(Gradshteyn and Ryzhik 3.471.9) with the principal root, which continues
the real-zeta identity analytically to the half-plane.  The modified
Bessel function K_nu of complex argument is scipy's (Amos, ACM TOMS 12,
1986, Algorithm 644).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma, kv

from . import constants as C
from .errors import QuadratureError
from .fields import truncate
from .grid import GridFunction, fftn, ifftn, lp_norm

__all__ = [
    "KernelProbe",
    "kernel_value",
    "grad_kernel_value",
    "yukawa_value",
    "check_gradient_domination",
    "check_fractional_gradient_domination",
    "check_complex_domination",
    "check_fractional_power_identity",
    "truncation_l1_curve",
    "UNDERFLOW_FLOOR",
]

UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True)
class KernelProbe:
    """One evaluation point of a kernel estimate: (x, y, zeta, gamma)."""

    d: int
    x: tuple
    y: tuple
    zeta: complex
    gamma: float

    def __post_init__(self):
        for name in ("zeta", "x", "y"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=complex))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if complex(self.zeta).real <= 0:
            raise ValueError(f"Re zeta must be positive, got {self.zeta}")
        if not 0.0 < self.gamma <= 2.0:
            raise ValueError(f"gamma must lie in (0, 2], got {self.gamma}")
        if self.distance == 0.0:
            raise ValueError("x and y must differ")

    @property
    def distance(self):
        return float(np.linalg.norm(np.asarray(self.x, float) - np.asarray(self.y, float)))


def _log_integral(d, r, zeta, gamma, extra_inv_t=0):
    """integral of e^(-zeta t - r^2/4t) t^(gamma/2 - 1 - extra_inv_t) (4 pi t)^(-d/2) dt.

    In closed form, elementwise over an array ``zeta`` of Re zeta > 0; a
    value below ``UNDERFLOW_FLOOR`` may come back as 0.
    """
    root = np.sqrt(np.asarray(zeta, dtype=np.complex128))
    nu = gamma / 2.0 - d / 2.0 - extra_inv_t
    return (4.0 * np.pi) ** (-d / 2.0) * 2.0 * (r / (2.0 * root)) ** nu * kv(nu, r * root)


def kernel_value(probe):
    """Kernel of (zeta - Lap)^(-gamma/2) at (x, y); complex for complex zeta."""
    return _log_integral(probe.d, probe.distance, probe.zeta, probe.gamma) / _gamma(probe.gamma / 2.0)


def grad_kernel_value(probe):
    """Gradient (in x) of the kernel: the vector -(x-y)/2 times a scalar integral."""
    scalar = _log_integral(probe.d, probe.distance, probe.zeta, probe.gamma, extra_inv_t=1)
    scalar = scalar / _gamma(probe.gamma / 2.0)
    rel = np.asarray(probe.x, float) - np.asarray(probe.y, float)
    return -0.5 * rel * scalar


def grad_kernel_magnitude(probe):
    vec = grad_kernel_value(probe)
    return float(np.sqrt(np.sum(np.abs(vec) ** 2)))


def yukawa_value(r, zeta):
    """Closed-form d=3 kernel e^(-sqrt(zeta) r) / (4 pi r) of (zeta - Lap)^(-1)."""
    s = np.sqrt(complex(zeta))
    return np.exp(-s * r) / (4.0 * np.pi * r)


def _passes(lhs, rhs, slack=1e-8):
    if rhs < UNDERFLOW_FLOOR and lhs < UNDERFLOW_FLOOR:
        return True, True  # (passed, skipped)
    return lhs <= rhs * (1.0 + slack), False


def check_gradient_domination(probes):
    """Gradient kernel of the resolvent against the half-power kernel bound:

        |grad (zeta - Lap)^(-1)(x,y)| <= m_d (kappa_d^(-1) Re zeta - Lap)^(-1/2)(x,y).

    Returns rows (probe, lhs, rhs, ratio, passed, skipped).
    """
    rows = []
    for pr in probes:
        d = pr.d
        md, kd = C.m_d(d), C.kappa_d(d)
        lhs = grad_kernel_magnitude(KernelProbe(d, pr.x, pr.y, pr.zeta, 2.0))
        rhs_probe = KernelProbe(d, pr.x, pr.y, complex(pr.zeta).real / kd, 1.0)
        rhs = md * kernel_value(rhs_probe).real
        ok, skipped = _passes(lhs, rhs)
        ratio = lhs / rhs if rhs > UNDERFLOW_FLOOR else np.nan
        rows.append((pr, lhs, rhs, ratio, ok, skipped))
    return rows


def check_fractional_gradient_domination(probes, r_exponent):
    """Same domination for the fractional power indexed by r in (1, inf]:

        |grad (zeta-Lap)^(-1+1/(2r))| <= m_{r,d} (kappa_d^(-1) Re zeta - Lap)^(-1/2+1/(2r)),

    where the finite constant m_{r,d} has no closed form; the empirical
    sup of lhs/rhs over the probe set is returned alongside the rows.
    """
    if not (r_exponent > 1.0 or r_exponent == np.inf):
        raise ValueError(f"r must lie in (1, inf], got {r_exponent}")
    inv = 0.0 if r_exponent == np.inf else 1.0 / r_exponent
    gamma_lhs = 2.0 - inv
    gamma_rhs = 1.0 - inv
    rows = []
    sup_ratio = 0.0
    for pr in probes:
        kd = C.kappa_d(pr.d)
        lhs = grad_kernel_magnitude(KernelProbe(pr.d, pr.x, pr.y, pr.zeta, gamma_lhs))
        rhs = kernel_value(KernelProbe(pr.d, pr.x, pr.y, complex(pr.zeta).real / kd, gamma_rhs)).real
        ratio = lhs / rhs if rhs > UNDERFLOW_FLOOR else np.nan
        if np.isfinite(ratio):
            sup_ratio = max(sup_ratio, ratio)
        rows.append((pr, lhs, rhs, ratio))
    return sup_ratio, rows


def check_complex_domination(probes):
    """Complex-parameter bounds with |zeta| on the right-hand side:

        |grad (zeta-Lap)^(-1)(x,y)|
            <= 2^(d/4) m_d (kappa_d^(-1) 2^(-1/2) |zeta| - Lap)^(-1/2)(x,y),
        |(zeta-Lap)^(-1/2)(x,y)|
            <= 2^(d/4+1/4) (2^(-1/2) |zeta| - Lap)^(-1/2)(x,y).

    Returns (rows_gradient, rows_half_power).
    """
    rows_a, rows_b = [], []
    for pr in probes:
        d = pr.d
        md, kd = C.m_d(d), C.kappa_d(d)
        az = abs(complex(pr.zeta))
        lhs = grad_kernel_magnitude(KernelProbe(d, pr.x, pr.y, pr.zeta, 2.0))
        rhs_probe = KernelProbe(d, pr.x, pr.y, az / (kd * np.sqrt(2.0)), 1.0)
        rhs = 2.0 ** (d / 4.0) * md * kernel_value(rhs_probe).real
        ok, skipped = _passes(lhs, rhs)
        rows_a.append((pr, lhs, rhs, lhs / rhs if rhs > UNDERFLOW_FLOOR else np.nan, ok, skipped))

        lhs_b = abs(kernel_value(KernelProbe(d, pr.x, pr.y, pr.zeta, 1.0)))
        rhs_probe = KernelProbe(d, pr.x, pr.y, az / np.sqrt(2.0), 1.0)
        rhs_b = 2.0 ** (d / 4.0 + 0.25) * kernel_value(rhs_probe).real
        ok_b, skipped_b = _passes(lhs_b, rhs_b)
        rows_b.append(
            (pr, lhs_b, rhs_b, lhs_b / rhs_b if rhs_b > UNDERFLOW_FLOOR else np.nan, ok_b, skipped_b)
        )
    return rows_a, rows_b


def check_fractional_power_identity(zeta, q, x, y, d=3):
    """Relative error of the one-dimensional integral representation

        (zeta-Lap)^(-1/(2q')) = c_q integral_0^inf t^(-1+1/(2q)) (t+zeta-Lap)^(-1/2) dt

    evaluated as kernels at (x, y).  The inner kernels of (t + zeta - Lap)^(-1/2)
    are closed forms; the outer integral is a trapezoid rule on a log grid
    of 2049 nodes, refined once to 4097 for an error check that must settle
    to 1e-7.
    """
    q = float(q)
    if not 1.0 < q < np.inf:
        raise ValueError(f"q must lie in (1, inf), got {q}")
    zeta = complex(zeta)
    qp = C.holder_conjugate(q)
    lhs = kernel_value(KernelProbe(d, x, y, zeta, 1.0 / qp))

    r = float(np.linalg.norm(np.asarray(x, float) - np.asarray(y, float)))
    # outer t = e^s: integrand ~ e^(s/(2q)) to the left, Yukawa tail to the right
    so_min = 2.0 * q * np.log(1e-12)
    so_max = 2.0 * np.log(745.0 / r) + 4.0

    def outer_rule(n):
        s = np.linspace(so_min, so_max, n)
        t = np.exp(s)
        inner = _log_integral(d, r, zeta + t, 1.0) / _gamma(0.5)
        return np.trapezoid(np.exp(s * 0.5 / q) * inner, s)

    prev = outer_rule(2049)
    cur = outer_rule(4097)
    if abs(cur - prev) > 1e-7 * abs(cur):
        raise QuadratureError("outer quadrature of the fractional-power identity did not settle")
    rhs = C.c_q_fractional(q) * cur
    return abs(lhs - rhs) / abs(lhs)


def truncation_l1_curve(b, f, zeta, levels):
    """L1 size of the truncation remainder acting through the gradient:

        level -> | (b - b_level) . grad (zeta - Lap)^(-1) f |_1,

    expected to decrease to zero as the level passes the field's grid sup.
    """
    grid = b.grid
    sym = np.power(complex(zeta) + grid.k_squared, -1.0)
    fhat = fftn(f.values)
    # the d components in one inverse transform, as in grid.gradient_apply
    grad = ifftn(np.stack([ik * sym * fhat for ik in grid.ik_components]), axes=grid.axes,
                 overwrite_x=True)
    out = []
    for lev in levels:
        dv = b.values - truncate(b, lev).values
        acc = sum(dv[j] * grad[j] for j in range(grid.d))
        out.append(lp_norm(GridFunction(grid, acc), 1))
    return np.array(out)
