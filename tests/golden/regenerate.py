"""Rewrite the golden records: ``acceptance.txt``, ``acceptance_values.txt`` and ``cli.txt``.

Run from the repository root after a change that moves a printed number:

    PYTHONPATH=src python tests/golden/regenerate.py

then list the diff of the records with the change.  Each header
records the Python, numpy and scipy versions the record was computed
with.  ``acceptance.txt`` holds the summary line of every acceptance
criterion, and ``acceptance_values.txt`` the ``repr`` of each criterion's
measured values, which sees a move below the summary's rounding;
``tests/test_acceptance.py`` compares both.  ``cli.txt``
holds the exit code of every experiment run on its config in ``cli/``
and the sha256 of every file those runs and a final ``report`` write
(the manifest aside, which holds timestamps); ``tests/test_golden_cli.py``
compares it.
"""

import hashlib
import pathlib
import platform
import tempfile

import numpy as np
import scipy

from sdlab import acceptance
from sdlab.cli import main as sdlab_main

GOLDEN = pathlib.Path(__file__).with_name("acceptance.txt")
VALUES = pathlib.Path(__file__).with_name("acceptance_values.txt")
CLI_GOLDEN = pathlib.Path(__file__).with_name("cli.txt")
CLI_CONFIGS = pathlib.Path(__file__).with_name("cli")


def versions():
    return f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}"


def value_line(result):
    """A criterion's measured values, bit for bit."""
    return f"criterion {result.index:2d} {result.measured!r}"


def cli_record(out):
    """Record lines of every CLI config run into the one directory ``out``, at seed 0."""
    lines = []
    for cfg in sorted(CLI_CONFIGS.glob("*.json")):
        status = sdlab_main([cfg.stem, "--config", str(cfg), "--out", str(out), "--seed", "0"])
        lines.append(f"exit {cfg.stem} {status}")
    lines.append(f"exit report {sdlab_main(['report', '--out', str(out)])}")
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            lines.append(f"sha256 {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return lines


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cli_lines = cli_record(pathlib.Path(tmp))
    CLI_GOLDEN.write_text(f"# {versions()}\n" + "".join(line + "\n" for line in cli_lines))
    print(f"wrote {len(cli_lines)} lines to {CLI_GOLDEN}")
    results = acceptance.run_all()
    for path, lines in ((GOLDEN, [r.line() for r in results]), (VALUES, [value_line(r) for r in results])):
        path.write_text(f"# {versions()}\n" + "".join(line + "\n" for line in lines))
        print(f"wrote {len(lines)} lines to {path}")


if __name__ == "__main__":
    main()
