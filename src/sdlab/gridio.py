"""Serialization of grid functions and deterministic CSV reports.

A grid function is stored as a JSON header {d, n_per_axis, box_length}
next to a flat binary of complex128 samples.  CSV report bodies are
byte-stable for a fixed config and seed; timestamps live only in the
run manifest.
"""

from __future__ import annotations

import csv
import json
import resource
import time
from pathlib import Path

import numpy as np

from .grid import fft_workers

__all__ = [
    "save_grid_function",
    "write_csv",
    "write_manifest",
]


def save_grid_function(f, basepath):
    """Write values plus JSON header; returns the data path."""
    basepath = Path(basepath)
    header = {
        "d": f.grid.d,
        "n_per_axis": f.grid.n,
        "box_length": f.grid.length,
        "format": "bin",
    }
    basepath.parent.mkdir(parents=True, exist_ok=True)
    with open(basepath.with_suffix(".json"), "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
    data_path = basepath.with_suffix(".bin")
    f.values.astype(np.complex128).ravel().tofile(data_path)
    return data_path


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, complex):
        v = complex(v)
        return f"{v.real!r}{v.imag:+}j"
    return str(v)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    return path


def write_manifest(out_dir, config, seed, seconds):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from . import __version__
    from ._accel import active_lane

    manifest = {
        "config": config,
        "seed": seed,
        "wall_seconds": seconds,
        "version": __version__,
        "lane": active_lane(),
        "fft_workers": fft_workers(),
        # the process's peak resident memory so far, in MB as sdbench reports it
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path
