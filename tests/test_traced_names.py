"""The traced benchmark run resolves the names it wraps with a bare
``getattr``, so deleting one of them breaks ``bench/run.py --trace 1``.
This pins every such name to the package, and the check names the
``certify`` workload expects to the ``verify`` suites."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from clustertube.verify import run_suite

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
WORKLOADS = TRACING.parent / "workloads.py"


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


def test_build_rep_cache_is_cleared_between_units():
    """Every in-process unit starts from ``clear_caches()``, so the
    oracle's representation cache must be among the caches it finds."""
    reps = importlib.import_module(f"{tracing.PACKAGE}.reps")
    reps.build_rep(reps.TubeObject(1, 2, 3))
    assert tracing.package_caches()["reps.build_rep"] is reps.build_rep
    tracing.clear_caches()
    assert reps.build_rep.cache_info().currsize == 0


def workload_constants(*names):
    """The literal values bound to ``names`` in ``bench/workloads.py``,
    read off its source without importing it."""
    found = {}
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    return [found[name] for name in names]


EXPECTED_CHECKS, CERTIFY = workload_constants("EXPECTED_CHECKS", "CERTIFY")


@pytest.mark.parametrize("suite,rank", CERTIFY)
def test_certify_suite_reports_the_expected_checks(suite, rank):
    """A check added to or dropped from a suite fails every ``certify``
    operation until the workload's list is changed with it."""
    report = run_suite(suite, rank)
    assert tuple(c.name for c in report.checks) == EXPECTED_CHECKS[suite]
    assert all(c.ok for c in report.checks)
