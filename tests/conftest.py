import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from sdlab.fields import DriftSpec
from sdlab.grid import Grid, GridFunction, GridVectorField, fft_workers, set_fft_workers

# property tests draw the same examples on every run, keep no example
# database, and stay a few seconds long
settings.register_profile("sdlab", derandomize=True, database=None, deadline=None, max_examples=25)
settings.load_profile("sdlab")


@pytest.fixture(scope="session")
def grid8():
    return Grid(3, 8, 2 * np.pi)


@pytest.fixture(scope="session")
def grid16():
    return Grid(3, 16, 16.0)


@pytest.fixture(scope="session")
def grid32():
    return Grid(3, 32, 16.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_f8(grid8, rng):
    return GridFunction(grid8, rng.standard_normal(grid8.shape) + 1j * rng.standard_normal(grid8.shape))


@pytest.fixture(scope="session")
def bounded_field8(grid8):
    """Smooth bounded drift on the 8^3 grid for dense-oracle comparisons."""
    return DriftSpec("smooth-random", amp=0.15, kmax=1, seed=5).on_grid(grid8)


@pytest.fixture(scope="session")
def hardy16(grid16):
    return DriftSpec("hardy", c=0.2).on_grid(grid16)


@pytest.fixture(scope="session")
def zero_field16(grid16):
    return GridVectorField.zeros(grid16)


@pytest.fixture
def restore_fft_workers():
    saved = fft_workers()
    yield
    set_fft_workers(saved)


@pytest.fixture
def count_transforms(monkeypatch):
    """Call to start counting the FFTs that sdlab.resolvent and sdlab.semigroup make.

    ``calls`` counts scipy calls and ``transforms`` d-dimensional
    transforms: a call over the last d axes of a ``(d,) + shape`` stack
    makes d of them.  Both count the real lane's ``irfftn`` calls with the
    ``fftn``/``ifftn`` ones.
    """
    from sdlab import resolvent, semigroup

    counts = {"calls": 0, "transforms": 0}

    def counted(transform):
        def wrapped(values, *args, axes=None, **kwargs):
            counts["calls"] += 1
            counts["transforms"] += 1 if axes is None else values.size // np.prod([values.shape[a] for a in axes])
            return transform(values, *args, axes=axes, **kwargs)

        return wrapped

    def start():
        for module in (resolvent, semigroup):
            for name in ("fftn", "ifftn", "irfftn"):
                if hasattr(module, name):  # semigroup imports no ifftn
                    monkeypatch.setattr(module, name, counted(getattr(module, name)))
        return counts

    return start
