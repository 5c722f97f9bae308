"""Every Python block of README.md runs, so its examples cannot rot."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out  # each block prints what it shows
