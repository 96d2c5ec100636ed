"""README examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from dominotowers import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # a public name the README promises cannot go without this failing
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under ## Library"
    exec(compile(block.group(1), "README.md#library", "exec"), {})


def command_lines():
    """The `dominotowers` lines of the sh block under ## Command line, as argv
    lists with comments dropped; the oeis-check line names a placeholder file."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block, "README has no sh block under ## Command line"
    lines = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
    return [
        argv[1:] for argv in lines if argv[:1] == ["dominotowers"] and argv[1] != "oeis-check"
    ]


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_command_line_example_runs(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out
    if argv == ["count", "c", "--b", "4", "--n", "10"]:
        assert out == "531\n"  # as its comment promises


def test_command_line_block_is_read():
    # the parametrized test above would be skipped, not failed, on no lines
    assert ["count", "c", "--b", "4", "--n", "10"] in command_lines()
