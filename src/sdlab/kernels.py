"""Grid-free verification of the pointwise heat-kernel estimates.

The fractional resolvent kernel is the Laplace-type integral

    (zeta - Lap)^(-gamma/2)(x, y)
        = Gamma(gamma/2)^(-1) *
          integral_0^inf e^(-zeta t) t^(gamma/2 - 1) (4 pi t)^(-d/2)
                          e^(-|x-y|^2 / (4t)) dt,   0 < gamma <= 2,

evaluated here by trapezoid quadrature after the substitution t = e^s,
under which both endpoint behaviors (the t^(gamma/2-1) singularity and
the Gaussian tails) become double-exponentially decaying, so the rule
converges geometrically under node doubling.  Complex zeta keeps the
original real-t contour: the integral converges absolutely whenever
Re zeta > 0, only with oscillation, which the node doubling absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from . import constants as C
from .errors import QuadratureError
from .fields import truncate
from .grid import GridFunction, fftn, ifftn, lp_norm

__all__ = [
    "KernelProbe",
    "kernel_value",
    "grad_kernel_value",
    "yukawa_value",
    "yukawa_gradient_magnitude",
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

    Computed in s = log t, doubling the nodes (at most 14 times) until two
    successive sums agree to 1e-10 relative.  Returns (value, err_estimate).
    """
    zeta = complex(zeta)
    rz = zeta.real
    s_min = np.log(r * r / 4.0) - np.log(745.0) - 2.0
    s_max = np.log(745.0 / rz) + 2.0
    if s_max <= s_min:
        mid = 0.5 * (s_min + s_max)
        s_min, s_max = mid - 2.0, mid + 2.0
    power = gamma / 2.0 - d / 2.0 - extra_inv_t
    pref = (4.0 * np.pi) ** (-d / 2.0)

    def rule(n):
        s = np.linspace(s_min, s_max, n)
        t = np.exp(s)
        expo = -zeta * t - (r * r / 4.0) / t + power * s
        vals = np.exp(expo)
        return pref * np.trapezoid(vals, s)

    n = 257
    prev = rule(n)
    for _ in range(14):
        n = 2 * n - 1
        cur = rule(n)
        err = abs(cur - prev)
        if err <= 1e-10 * max(abs(cur), UNDERFLOW_FLOOR):
            return cur, err
        prev = cur
    if abs(prev) < UNDERFLOW_FLOOR:
        return 0.0, 0.0
    raise QuadratureError(
        f"kernel quadrature did not converge (r={r}, zeta={zeta}, gamma={gamma})"
    )


def kernel_value(probe):
    """Kernel of (zeta - Lap)^(-gamma/2) at (x, y); complex for complex zeta."""
    val, _ = _log_integral(probe.d, probe.distance, probe.zeta, probe.gamma)
    return val / _gamma(probe.gamma / 2.0)


def grad_kernel_value(probe):
    """Gradient (in x) of the kernel: the vector -(x-y)/2 times a scalar integral."""
    r = probe.distance
    scalar, _ = _log_integral(probe.d, r, probe.zeta, probe.gamma, extra_inv_t=1)
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


def yukawa_gradient_magnitude(r, zeta):
    """|d/dr| of the d=3 closed form: e^(-sqrt(zeta) r) (sqrt(zeta) r + 1)/(4 pi r^2)."""
    s = np.sqrt(complex(zeta))
    return abs(np.exp(-s * r) * (s * r + 1.0)) / (4.0 * np.pi * r * r)


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

    evaluated as kernels at (x, y); two-level quadrature on the right.
    Both levels live on log grids; one shared inner grid serves every
    outer node (the inner integrand decays double-exponentially at both
    ends uniformly over the outer range), so the double integral is a
    single vectorized tensor sum on 2049^2 nodes, refined once to 4097^2
    for an error check that must settle to 1e-7.
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
    # inner u = e^w: Gaussian cut from r on the left, decay from Re(zeta)+t on the right
    sw_min = np.log(r * r / 4.0) - np.log(745.0) - 2.0
    sw_max = np.log(745.0 / zeta.real) + 2.0
    pref = (4.0 * np.pi) ** (-d / 2.0) / _gamma(0.5)

    def double_rule(n_outer, n_inner):
        s = np.linspace(so_min, so_max, n_outer)
        t = np.exp(s)
        w = np.linspace(sw_min, sw_max, n_inner)
        u = np.exp(w)
        inner_vals = np.empty(n_outer, dtype=np.complex128)
        base = -(r * r / 4.0) / u + (0.5 - d / 2.0) * w - zeta * u
        for i in range(n_outer):
            inner_vals[i] = np.trapezoid(np.exp(base - t[i] * u), w)
        outer_integrand = np.exp(s * 0.5 / q) * inner_vals
        return pref * np.trapezoid(outer_integrand, s)

    prev = double_rule(2049, 2049)
    cur = double_rule(4097, 4097)
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
    grad = [ifftn(ik * sym * fhat) for ik in grid.ik_components]
    out = []
    for lev in levels:
        dv = b.values - truncate(b, lev).values
        acc = sum(dv[j] * grad[j] for j in range(grid.d))
        out.append(lp_norm(GridFunction(grid, acc), 1))
    return np.array(out)
