"""The mutation table of tools/mutants.py against the modules it edits.

The tool refuses to run while a row's text does not occur exactly once
in its module (it prints the row as STALE).  The same rule runs here, so
an edit that orphans a row fails with the tests, on every interpreter,
and not only in the mutation run.  This file is not among the tool's
TESTS: a mutant removes its own row's text, which would fail it.
"""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_row_occurs_once_in_its_module():
    mutants = load_tool()
    assert mutants.MUTANTS
    found = {(row.module, row.text): mutants.occurrences(row) for row in mutants.MUTANTS}
    assert {row: count for row, count in found.items() if count != 1} == {}
