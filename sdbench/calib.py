"""Reference kernels that scale measured times to a steady machine speed.

The benchmark's host is a shared 2-vCPU machine whose speed drifts by up
to 2x over seconds to minutes, while CPU time tracks wall time (no steal
is reported), so other tenants slow the cores rather than deschedule them.
Around every operation the
benchmark runs short reference kernels of the same kind, for a tenth of
the operation's time split before and after it; an operation's time, scaled by the ratio of the
kernel's reference duration to its duration in that round, is what the
end-to-end metrics report.  The kernels use numpy and scipy only, never
sdlab, so a change to sdlab moves the scaled time as it moves the raw
one.  Raw times are kept in the result file.

Kinds: ``fft64``/``fft32`` (a spectral multiply and a p-norm on complex
data, like a Neumann term), ``fft16`` (a chain of real spectral
multiplies, like a class-estimator matvec), ``em`` (one Euler-Maruyama
step of 8192 paths with a trilinear drift gather, like the numpy lane).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

# reference durations in seconds, measured on the development machine
# when it ran undisturbed; they fix the scale only
REFERENCE = {"fft64": 2.2e-2, "fft32": 2.2e-3, "fft16": 1.1e-3, "em": 3.0e-3}
SHARE = 0.1  # kernel time per unit of operation time
MIN_TICKS = 2


class _Spectral:
    """A Neumann-loop-like term (``real=False``) or a chain of real matvecs."""

    def __init__(self, n, workers, real, chain):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((n,) * 3) + (0 if real else 1j * rng.standard_normal((n,) * 3))
        self.sym = 1.0 / (1.0 + rng.random((3,) + (n,) * 3))
        self.weight = rng.random((3,) + (n,) * 3)
        self.workers = workers
        self.real = real
        self.chain = chain

    def __call__(self):
        fft, ifft, w = scipy.fft.fftn, scipy.fft.ifftn, self.workers
        v = self.x
        for _ in range(self.chain):
            if self.real:
                v = ifft(self.sym[0] * fft(self.weight[0] * v, workers=w), workers=w).real
            else:
                vhat = fft(self.weight[0] * v, workers=w)
                v = sum(self.weight[j] * ifft(self.sym[j] * vhat, workers=w) for j in range(3))
        return float(np.sum(np.abs(v) ** 2.5))


class _EulerStep:
    """One Euler-Maruyama step of 8192 paths on a 32^3 torus of side 16."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.field = rng.standard_normal((3, 32, 32, 32))
        self.pos = rng.uniform(6.0, 10.0, size=(8192, 3))
        self.noise = rng.standard_normal((8192, 64, 3))
        self.censored = np.zeros(8192, dtype=bool)
        self.step = 0

    def __call__(self):
        s = self.step % self.noise.shape[1]
        self.step += 1
        active = ~self.censored
        pts = self.pos[active]
        u = (pts % 16.0) / 0.5
        i0 = np.floor(u).astype(np.int64)
        f = u - i0
        i0 %= 32
        i1 = (i0 + 1) % 32
        b = np.zeros((3, len(pts)))
        for c0, w0 in ((i0[:, 0], 1 - f[:, 0]), (i1[:, 0], f[:, 0])):
            for c1, w1 in ((i0[:, 1], 1 - f[:, 1]), (i1[:, 1], f[:, 1])):
                for c2, w2 in ((i0[:, 2], 1 - f[:, 2]), (i1[:, 2], f[:, 2])):
                    b += self.field[:, c0, c1, c2] * (w0 * w1 * w2)
        pts = pts - 1e-3 * b.T + 0.0447 * self.noise[active, s, :]
        self.pos[active] = 8.0 + (pts - 8.0) % 2.0
        return bool(np.any((pts < 0.5) | (pts > 15.5)))


class Ticks:
    """Runs reference kernels after operations and keeps their times per kind."""

    def __init__(self, workers):
        self.kernels = {
            "fft64": _Spectral(64, workers, real=False, chain=1),
            "fft32": _Spectral(32, workers, real=False, chain=1),
            "fft16": _Spectral(16, workers, real=True, chain=4),
            "em": _EulerStep(),
        }
        self.last = {}
        self.reset()

    def reset(self):
        self.op_s = dict.fromkeys(self.kernels, 0.0)
        self.tick_s = dict.fromkeys(self.kernels, 0.0)
        self.ticks = dict.fromkeys(self.kernels, 0)

    def tick(self, kind, seconds):
        """Run ``kind``'s kernel for ``seconds`` (at least MIN_TICKS times)."""
        kernel = self.kernels[kind]
        n, t0 = 0, time.perf_counter()
        while n < MIN_TICKS or time.perf_counter() - t0 < seconds:
            kernel()
            n += 1
        self.tick_s[kind] += time.perf_counter() - t0
        self.ticks[kind] += n

    def before(self, kind):
        """Ticks ahead of an operation, half its share, sized by the last one."""
        self.tick(kind, 0.5 * SHARE * self.last.get(kind, 0.0))

    def after(self, kind, op_seconds):
        """Account an operation of ``op_seconds`` and run the other half of its ticks."""
        self.op_s[kind] += op_seconds
        self.last[kind] = op_seconds
        self.tick(kind, 0.5 * SHARE * op_seconds)

    def scaled(self):
        """Operation time accounted since ``reset``, at the reference speed."""
        return sum(
            self.op_s[k] * REFERENCE[k] * self.ticks[k] / self.tick_s[k]
            for k in self.kernels if self.ticks[k]
        )
