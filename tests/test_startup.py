"""tropdiff.cli starts without the standard library's heavy modules.

A user runs the CLI once per process, so every module that importing
tropdiff.cli loads is paid on every call.  dataclasses pulls in inspect, ast,
dis and tokenize, and typing is large on its own; the package needs none of
them.  Each child is a fresh `python -I -S`, so neither the environment nor
site loads anything first.  The test counts modules and does not time them.

The baseline child imports only the standard-library modules that tropdiff
imports.  A heavy module that those load themselves (on 3.14 argparse's
_colorize may load dataclasses) is in the baseline and is not blamed on
tropdiff.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import tropdiff

SRC = Path(tropdiff.__file__).resolve().parents[1]
HEAVY = frozenset({"ast", "dataclasses", "dis", "inspect", "tokenize", "typing"})
STDLIB_NEEDED = "argparse, collections.abc, enum, fractions, functools, itertools, json, math, operator"


def loaded(statement: str) -> set[str]:
    """Names in sys.modules after statement runs in a fresh interpreter that sees SRC first."""
    script = f"import sys; sys.path.insert(0, sys.argv[1]); {statement}; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.fixture(scope="module")
def baseline() -> set[str]:
    return loaded(f"import {STDLIB_NEEDED}")


def test_the_cli_loads_no_heavy_module(baseline):
    cli = loaded("import tropdiff.cli")
    assert "tropdiff.cli" in cli
    assert sorted(HEAVY & (cli - baseline)) == []


def test_the_check_sees_each_heavy_module(baseline):
    heavy = loaded(f"import tropdiff.cli, {', '.join(sorted(HEAVY))}")
    assert HEAVY & (heavy - baseline) == HEAVY - baseline
