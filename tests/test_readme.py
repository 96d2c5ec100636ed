"""README examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # a public name the README promises cannot go without this failing
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under ## Library"
    exec(compile(block.group(1), "README.md#library", "exec"), {})
