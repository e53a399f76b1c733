"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert _BLOCKS


@pytest.mark.parametrize("block", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    # each block on its own, in an empty working directory
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
