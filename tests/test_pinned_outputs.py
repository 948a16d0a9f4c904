"""Outputs pinned byte for byte: seq in every format, the ordered report
list of the full verify sweep, and the README's command line examples.

The data files under tests/data were recorded with cli.main and
run_suite before the sequence families moved into one registry; a
refactor must leave every one of them unchanged.
"""
import json
import shlex
from pathlib import Path

import pytest

from surdseq.cli import main
from surdseq.verify import run_suite

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
SEQ_SNAPSHOTS = json.loads((DATA / "seq_snapshots.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("snapshot", SEQ_SNAPSHOTS,
                         ids=[" ".join(s["argv"][1:]) for s in SEQ_SNAPSHOTS])
def test_seq_output_is_pinned(capsys, snapshot):
    assert main(snapshot["argv"]) == 0
    assert capsys.readouterr().out == snapshot["stdout"]


def test_seq_snapshots_cover_every_family():
    families = {s["argv"][s["argv"].index("--family") + 1] for s in SEQ_SNAPSHOTS}
    assert families == {"ab", "tilde", "uv", "cd", "w", "u2", "newton", "product"}


def test_full_sweep_report_list_is_pinned():
    got = "".join(f"{r.identity} {r.k} {r.n_max} {r.passes} {r.passed}\n"
                  for r in run_suite("all", 2, 12, 30))
    assert got == (DATA / "run_suite_all_2_12_30.txt").read_text()


def readme_commands():
    """The `surdseq ...` lines of README's Command line block, as argv lists."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("surdseq ")]


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
