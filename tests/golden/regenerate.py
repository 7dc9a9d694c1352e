"""Rewrite ``acceptance.txt``: the summary line of every acceptance criterion.

Run from the repository root after a change that moves a printed number:

    PYTHONPATH=src python tests/golden/regenerate.py

then list the diff of ``acceptance.txt`` with the change.  The header
records the Python, numpy and scipy versions the lines were computed
with; ``tests/test_acceptance.py`` compares each criterion's line to
its record.
"""

import pathlib
import platform

import numpy as np
import scipy

from sdlab import acceptance

GOLDEN = pathlib.Path(__file__).with_name("acceptance.txt")


def versions():
    return f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}"


def main():
    lines = [r.line() for r in acceptance.run_all()]
    GOLDEN.write_text(f"# {versions()}\n" + "".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} lines to {GOLDEN}")


if __name__ == "__main__":
    main()
