"""The README's Python examples and the demo scripts run as written, and its
"Testing" shell block lists commands that CI runs."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def readme_testing_commands(text):
    """The command lines of the shell block under "## Testing", comments dropped."""
    block = re.search(r"^## Testing\n.*?```sh\n(.*?)```", text, re.S | re.M).group(1)
    commands = (re.split(r"\s+# ", line)[0].strip() for line in block.splitlines())
    return [c for c in commands if c and not c.startswith("#")]


def workflow_commands(text):
    """The shell lines of the workflow's `run:` steps, plain or block scalars."""
    commands, block_indent = [], None
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip())
        if block_indent is not None and (not line.strip() or indent > block_indent):
            commands.append(line.strip())
            continue
        block_indent = None
        key, _, value = line.strip().removeprefix("- ").partition("run:")
        if not key and value.strip() == "|":
            block_indent = indent
        elif not key and value.strip():
            commands.append(value.strip())
    return commands


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


def test_readme_testing_block_is_what_ci_runs():
    commands = readme_testing_commands((ROOT / "README.md").read_text())
    assert len(commands) >= 8
    missing = set(commands) - set(workflow_commands(WORKFLOW.read_text()))
    assert not missing, f"README Testing commands that CI does not run: {sorted(missing)}"
