"""The mutation register (tools/mutants.py) still applies to this tree.

The full run, which edits a copy per mutant and runs its tests, is
`python3 tools/mutants.py`; here only its preconditions are checked.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.REGISTER]
    assert len(set(names)) == len(names)


def test_register_covers_every_cross_checked_module():
    modules = {Path(m.file).stem for m in mutants.REGISTER}
    assert len(mutants.REGISTER) >= 20
    assert {
        "model", "enumerator", "recurrences", "series", "asymptotics", "oeis", "cli"
    } <= modules


@pytest.mark.parametrize("mutant", mutants.REGISTER, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("mutant", mutants.REGISTER, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, *names = test_id.split("::")
        assert (ROOT / path).is_file(), test_id
        body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for name in names:
            name = re.sub(r"\[.*\]$", "", name)
            found = [
                node
                for node in body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
            ]
            assert found, test_id
            body = found[0].body
