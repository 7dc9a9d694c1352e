"""The subordination integral of ``sdlab.kernels`` as it was before its closed form.

A frozen copy of the adaptive trapezoid rule that evaluated

    integral_0^inf e^(-zeta t - r^2/4t) t^(gamma/2 - 1 - extra_inv_t) (4 pi t)^(-d/2) dt

in s = log t, kept as an independent reference for the Bessel closed form
that replaced it: both endpoint behaviours decay double-exponentially in
s, so the rule converges geometrically under node doubling, and complex
zeta keeps the real-t contour.
"""

import numpy as np

from sdlab.errors import QuadratureError
from sdlab.kernels import UNDERFLOW_FLOOR


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
