"""Pins on the package source as text and as syntax."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clustertube"


def test_lines_fit_in_99_characters():
    """A shorter ``src/`` cannot come from joining lines."""
    long = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 99
    ]
    assert PACKAGE.is_dir() and not long


def test_only_the_cli_imports_inside_functions():
    """Library modules import at module level only; ``cli`` alone imports
    per command, so that a cold query compiles just its layers.  A lazy
    import inside a library call would move compile time into a timed
    ``exchange`` or ``polygon`` unit, and would hide from the ``verify``
    module the attributes that the doctoring tests patch."""
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested and all(where.startswith("cli.py:") for where in nested), nested


def test_no_module_imports_dataclasses():
    """The records are plain ``__slots__`` classes: ``dataclasses`` and
    the ``inspect`` it loads cost a cold process more than most suites."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "dataclasses"]
    assert PACKAGE.is_dir() and not found, found


def test_verify_process_loads_neither_dataclasses_nor_json():
    """``json`` is imported only by the commands that write it, so a cold
    ``verify``, ``bmatrix`` or ``mutate`` compiles neither module."""
    code = (
        "import sys\n"
        "import clustertube.cli, clustertube.verify\n"
        "print(' '.join(m for m in ('dataclasses', 'json') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"
