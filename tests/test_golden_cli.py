"""Golden CLI record: every experiment's exit code and output bytes.

Each config in ``golden/cli/`` runs through ``sdlab`` into one directory,
followed by ``report``; the exit codes and the sha256 of every file
written (the manifest aside) must equal ``golden/cli.txt``.  A change
that moves a printed number rewrites the record with
``golden/regenerate.py`` and lists the diff.
"""

from golden.regenerate import CLI_CONFIGS, CLI_GOLDEN, cli_record, versions
from sdlab.cli import EXPERIMENTS


def test_golden_configs_cover_every_experiment_but_acceptance():
    ran = {path.stem for path in CLI_CONFIGS.glob("*.json")} | {"report"}
    assert ran == set(EXPERIMENTS) - {"acceptance"}


def test_cli_outputs_match_the_golden_record(tmp_path, capsys):
    header, *recorded = CLI_GOLDEN.read_text().splitlines()
    lines = cli_record(tmp_path)
    capsys.readouterr()
    moved = sorted(set(lines) ^ set(recorded))
    assert not moved, (
        f"these lines differ from {CLI_GOLDEN.name}, made with {header[2:]}; this run has {versions()}: {moved}")
