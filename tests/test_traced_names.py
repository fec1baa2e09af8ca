"""The traced benchmark run resolves the names it wraps with a bare
``getattr``, so deleting one of them breaks ``bench/run.py --trace 1``.
This pins every such name to the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
FUNCTIONS = [
    (mod, name)
    for table in (tracing.SPANS, tracing.COUNTED)
    for mod, names in table.items()
    for name in names
]


@pytest.mark.parametrize("mod,name", FUNCTIONS)
def test_traced_function_resolves(mod, name):
    module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
    assert callable(getattr(module, name))


@pytest.mark.parametrize("mod,name", tracing.COUNTED_CLASSES)
def test_counted_class_resolves(mod, name):
    module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
    assert hasattr(getattr(module, name), "__post_init__")
