"""Reference computations made apart from sdlab, with ``numpy.fft`` only.

Every check in the benchmark compares sdlab's output with one of these
or with a property the method must have; none reads a stored copy of
an earlier run.  Only raw node arrays cross over from sdlab (the
sampled drift components), so a fault in ``sdlab.grid``'s symbols or
FFT plumbing cannot cancel out of a comparison.
"""

from __future__ import annotations

import math

import numpy as np


def wavenumbers(n, length, d=3):
    """Angular wavenumber components k_j, broadcastable over an n^d grid."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    comps = []
    for j in range(d):
        shape = [1] * d
        shape[j] = n
        comps.append(k1.reshape(shape))
    return comps


def k_squared(n, length, d=3):
    return sum(k * k for k in wavenumbers(n, length, d))


def lp_norm(values, p, h, d=3):
    return float((h ** d * np.sum(np.abs(values) ** p)) ** (1.0 / p))


def generator_residual(b, u, f, zeta, length, p):
    """|(zeta - Lap + b.grad) u - f|_p / |f|_p with spectral derivatives."""
    n = u.shape[0]
    h = length / n
    ks = wavenumbers(n, length)
    uhat = np.fft.fftn(u)
    out = zeta * u + np.fft.ifftn(sum(k * k for k in ks) * uhat)
    for j, k in enumerate(ks):
        out += b[j] * np.fft.ifftn(1j * k * uhat)
    return lp_norm(out - f, p, h) / lp_norm(f, p, h)


def free_heat_steps(f, mu, steps, length):
    """(mu/(mu+|k|^2))^steps applied to f: backward Euler with b = 0."""
    n = f.shape[0]
    sym = (mu / (mu + k_squared(n, length))) ** steps
    return np.fft.ifftn(sym * np.fft.fftn(f))


def kato_kernel_l1(n, length, lam):
    """h^3 sum |kappa_lam| for the discrete kernel of (lam - Lap)^(-1/2).

    kappa_lam is the response to a unit-mass delta, h^-3 times the
    inverse DFT of the symbol, so the weighted l1 sum is the plain sum
    of the inverse DFT's magnitudes.
    """
    sym = (lam + k_squared(n, length)) ** -0.5
    return float(np.sum(np.abs(np.fft.ifftn(sym))))


def constant_loop_norm(c, zeta, n, length):
    """Exact L^2 norm of the loop factor of a constant drift c.

    The loop factor is then the Fourier multiplier i c.k / (zeta+|k|^2).
    """
    ks = wavenumbers(n, length)
    ck = sum(cj * k for cj, k in zip(c, ks))
    return float(np.max(np.abs(ck) / np.abs(zeta + sum(k * k for k in ks))))


def trig_interp(values, points, length):
    """Real part of the trigonometric interpolant of node values at points."""
    n = values.shape[0]
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    coef = np.fft.fftn(values) / values.size
    out = []
    for x in np.atleast_2d(points):
        e = [np.exp(1j * k1 * xj) for xj in x]
        out.append(np.einsum("ijk,i,j,k->", coef, e[0], e[1], e[2]).real)
    return np.array(out)


def gaussian_bump_mean(x0, center, width2, t):
    """E f(x0 + sqrt(2t) Z) for f(x) = exp(-|x-center|^2/width2) in 3-d."""
    s2 = width2 / 2.0
    v = s2 + 2.0 * t
    r2 = float(np.sum((np.asarray(x0) - np.asarray(center)) ** 2))
    return (s2 / v) ** 1.5 * math.exp(-r2 / (2.0 * v))


def _multiplier_matrix(sym):
    """Dense matrix of the real Fourier multiplier ``sym`` on n^3 nodes."""
    shape = sym.shape
    m = sym.size
    eye = np.eye(m).reshape((m,) + shape)
    cols = np.fft.ifftn(sym * np.fft.fftn(eye, axes=(1, 2, 3)), axes=(1, 2, 3))
    return cols.reshape(m, m).T


def dense_class_delta(mag, length, lam, alpha, power):
    """Top eigenvalue of S |b|^power S, S = (lam - Lap)^(-alpha), dense.

    ``alpha, power`` = (1/4, 1) is F_half and (1/2, 2) is F.  The
    symbol is even in k, so S maps real vectors to real vectors and the
    matrix is real symmetric.
    """
    n = mag.shape[0]
    S = _multiplier_matrix((lam + k_squared(n, length)) ** -alpha).real
    M = S @ (mag.ravel()[:, None] ** power * S)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


def dense_loop_norm(b, zeta, length, p=2.0):
    """Top singular value of the loop factor of b at p = 2, dense.

    Built from the definition w_vec . grad (zeta - Lap)^(-1) w_out with
    w_vec = |b|^(1/p-1) b and w_out = |b|^(1/p').
    """
    n = b.shape[1]
    ks = wavenumbers(n, length)
    mag = np.sqrt(np.sum(np.abs(b) ** 2, axis=0))
    safe = np.where(mag > 0, mag, 1.0)
    w_vec = np.where(mag > 0, safe ** (1.0 / p - 1.0), 0.0) * b
    w_out = mag ** (1.0 - 1.0 / p)
    res = 1.0 / (zeta + sum(k * k for k in ks))
    m = mag.size
    L = np.zeros((m, m), dtype=np.complex128)
    for j, k in enumerate(ks):
        G = _multiplier_matrix(1j * k * res)
        L += w_vec[j].ravel()[:, None] * G
    L = L * w_out.ravel()[None, :]
    return float(np.linalg.svd(L, compute_uv=False)[0])
