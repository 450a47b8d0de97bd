"""The README's Python examples and the demo scripts run as written."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 3
    assert DEMOS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index, capsys):
    exec(compile(README_BLOCKS[index], f"README.md block {index + 1}", "exec"), {})


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
