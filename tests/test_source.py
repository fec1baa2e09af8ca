"""Pins on the package source as text and as syntax."""

import ast
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
