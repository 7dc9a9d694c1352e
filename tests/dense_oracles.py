"""Dense-matrix oracles built from explicit DFT matrices, closed forms, and a reader.

These deliberately avoid the package's FFT pipeline: multipliers become
diagonal matrices conjugated by an explicitly constructed DFT matrix,
weights become diagonal matrices, and compositions are plain matrix
products.  Small grids only (8^3 is the working size).
``load_grid_function`` reads back what ``gridio.save_grid_function`` wrote.
"""

import json
from pathlib import Path

import numpy as np

from sdlab.grid import Grid, GridFunction


def dft_matrix(grid):
    """Matrix F with F @ f.ravel() == fftn(f).ravel()."""
    ks = np.stack([kc.ravel() for kc in np.meshgrid(*([grid.k_axis] * grid.d), indexing="ij")], axis=1)
    xs = np.stack([c.ravel() for c in grid.coordinates()], axis=1)
    return np.exp(-1j * ks @ xs.T)


def dense_multiplier(grid, symbol_values):
    F = dft_matrix(grid)
    Finv = np.conj(F).T / grid.node_count()
    return Finv @ (symbol_values.ravel()[:, None] * F)


def dense_weight(values):
    return np.diag(np.asarray(values, dtype=np.complex128).ravel())


def dense_generator_parts(grid):
    """(-Laplacian, [d/dx_j]) as dense matrices: the drift-free parts of ``dense_generator``."""
    lap = dense_multiplier(grid, -grid.k_squared.astype(np.complex128))
    return -lap, [dense_multiplier(grid, 1j * grid.k_components[j] + 0j * grid.k_squared) for j in range(grid.d)]


def dense_generator(grid, b, parts=None):
    """-Laplacian + b.grad as a dense matrix, from ``parts`` (``dense_generator_parts(grid)``) if given.

    Each b_j d/dx_j scales the rows of d/dx_j by b_j, as diag(b_j) @ d/dx_j does.
    """
    out, derivatives = dense_generator_parts(grid) if parts is None else parts
    for bj, dj in zip(b.values, derivatives):
        out = out + bj.ravel()[:, None] * dj
    return out


def _resolvent_symbol(grid, zeta):
    """1/(zeta + |k|^2), built here from the grid frequencies."""
    return 1.0 / (zeta + grid.k_squared)


def dense_input_factor(grid, assembly):
    """b^(1/p) . grad (zeta - Lap)^(-1) as a dense matrix."""
    sym = _resolvent_symbol(grid, assembly.params.zeta)
    out = np.zeros((grid.node_count(),) * 2, dtype=np.complex128)
    for j in range(grid.d):
        mult = dense_multiplier(grid, 1j * grid.k_components[j] * sym)
        out += dense_weight(assembly.weight_vec[j]) @ mult
    return out


def dense_output_factor(grid, assembly):
    mult = dense_multiplier(grid, _resolvent_symbol(grid, assembly.params.zeta))
    return mult @ dense_weight(assembly.weight_out)


def dense_weighted_resolvent(grid, assembly):
    mult = dense_multiplier(grid, _resolvent_symbol(grid, assembly.params.zeta))
    return dense_weight(assembly.weight_in_mag) @ mult


def dense_loop_factor(grid, assembly):
    return dense_input_factor(grid, assembly) @ dense_weight(assembly.weight_out)


def apply_dense(M, f_values):
    return (M @ f_values.ravel()).reshape(f_values.shape)


def kato_column_norm(grid, mag, lam, index):
    """L1 norm of column ``index`` of |b| (lam - Lap)^(-1/2), read off the dense matrix.

    The column is |b| times the kernel applied to a unit-mass delta
    (node value h^-d), integrated with cell weight h^d: the two cancel.
    """
    mult = dense_multiplier(grid, np.power(lam + grid.k_squared, -0.5).astype(np.complex128))
    col = mult[:, np.ravel_multi_index(index, grid.shape)]
    return float(np.sum(mag.ravel() * np.abs(col)))


def dense_class_delta(grid, mag, lam, alpha, power):
    """Top eigenvalue of (lam - Lap)^(-alpha) |b|^power (lam - Lap)^(-alpha) by eigvalsh."""
    mult = dense_multiplier(grid, np.power(lam + grid.k_squared, -alpha).astype(np.complex128))
    M = mult @ dense_weight(mag ** power) @ mult
    return float(np.linalg.eigvalsh(0.5 * (M + np.conj(M).T))[-1])


def yukawa_gradient_magnitude(r, zeta):
    """|d/dr| of the d=3 closed form: e^(-sqrt(zeta) r) (sqrt(zeta) r + 1)/(4 pi r^2)."""
    s = np.sqrt(complex(zeta))
    return abs(np.exp(-s * r) * (s * r + 1.0)) / (4.0 * np.pi * r * r)


def load_grid_function(basepath):
    """The grid function that ``gridio.save_grid_function`` wrote under ``basepath``."""
    basepath = Path(basepath)
    with open(basepath.with_suffix(".json")) as fh:
        header = json.load(fh)
    grid = Grid(header["d"], header["n_per_axis"], header["box_length"])
    flat = np.fromfile(basepath.with_suffix(".bin"), dtype=np.complex128)
    return GridFunction(grid, flat.reshape(grid.shape))
