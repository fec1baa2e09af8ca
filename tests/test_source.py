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
    per command, so that a cold query compiles just its layers.  The two
    resolvers that load a module on first use, ``clustertube.__getattr__``
    for an export and ``verify._suite`` for a suite, call
    ``importlib.import_module``, which is no import statement.  A lazy
    import inside a library call would move compile time into a timed
    ``exchange`` or ``polygon`` unit, and would hide from the suite
    modules the attributes that the doctoring tests patch."""
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


# the model layer: what a point query (polygon, bmatrix, mutate) compiles
MODEL = ("rigid_model", "polygon_model")


def package_imports(tree):
    """The package modules that a syntax tree imports, by any statement."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("clustertube"):
            found.add(node.module.removeprefix("clustertube").lstrip(".") or "clustertube")
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "clustertube"]
            found |= {name.removeprefix("clustertube.") for name in names}
        elif isinstance(node, ast.Name) and node.id in ("import_module", "__import__"):
            found.add(f"<{node.id}>")
    return found


def test_the_model_layer_imports_no_graph():
    """The model modules import from the package only ``errors``, ``tube``
    and each other: never the search or graphs of ``rigid``, ``polygon``
    or ``mutation``, a suite or ``cli``, so that the cold path of a point
    query cannot grow back into them unnoticed."""
    allowed = {"errors", "tube", *MODEL}
    imports = {
        name: package_imports(ast.parse((PACKAGE / f"{name}.py").read_text())) for name in MODEL
    }
    assert all({"errors", "tube"} <= found <= allowed for found in imports.values()), imports


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


def test_cold_process_loads_no_typing():
    """Annotations name ``collections.abc`` types, which ``from __future__
    import annotations`` leaves unevaluated, so no layer loads ``typing``."""
    code = (
        "import sys\n"
        "import clustertube.cli, clustertube.verify, clustertube.polygon\n"
        "print('typing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


ROOT = PACKAGE.parent.parent
# named by tests alone: the reference route by which the tests of cluster
# Hom and Ext compose tau, as the definitions of both do
UNCALLED = {"tube.py:tau"}


def named(tree, skip=None, attributes=False):
    """The names a syntax tree uses outside the subtree ``skip``: its
    variables, attributes and imports, and its strings that are one
    identifier, as ``bench/tracing.py`` names what it wraps; or, with
    ``attributes``, only the names it reads as attributes."""
    out, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif attributes:
            pass
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return out


def definitions(tree):
    """Each top-level function and class, and each method of a top-level
    class, with its node; not the dunders, which Python itself calls."""
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else ()
        for item, prefix in [(node, "")] + [(item, f"{node.name}.") for item in methods]:
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not item.name.endswith("__"):
                yield prefix + item.name, item


def test_every_definition_is_named_by_the_program():
    """What only tests call is a second path that no command, suite,
    demo or benchmark runs.  ``_EXPORTS``, the lazy export table, names
    everything it exports, so it does not count as a use."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    init = trees["__init__.py"]
    init.body = [
        node
        for node in init.body
        if not (isinstance(node, ast.Assign) and "_EXPORTS" in named(node.targets[0]))
    ]
    # a method is named only where it is read as an attribute, so that a
    # variable of the same name does not count
    outside = {False: set(), True: set()}
    for path in sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py")):
        for attributes in outside:
            outside[attributes] |= named(ast.parse(path.read_text()), attributes=attributes)
    unnamed = []
    for module, tree in trees.items():
        for qualified, node in definitions(tree):
            method = "." in qualified
            others = set(outside[method])
            for other, other_tree in trees.items():
                if other != module:
                    others |= named(other_tree, attributes=method)
            if node.name not in others | named(tree, skip=node, attributes=method):
                unnamed.append(f"{module}:{qualified}")
    assert set(unnamed) == UNCALLED, unnamed


def defined_names(item):
    """The names a class body statement defines: a method's, or an
    assignment's plain targets."""
    if isinstance(item, ast.FunctionDef):
        return [item.name]
    targets = item.targets if isinstance(item, ast.Assign) else []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_only_the_record_bases_define_equality_and_hash():
    """A record's identity is its ``_fields``: ``tube.Record.__eq__``
    compares them and ``tube.FrozenRecord.__hash__`` hashes them, so no
    other class keeps a second copy of either."""
    found = sorted(
        (name, f"{path.stem}.{node.name}")
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        for name in defined_names(item)
        if name in ("__eq__", "__hash__")
    )
    assert found == [("__eq__", "tube.Record"), ("__hash__", "tube.FrozenRecord")], found
