"""Executable verification suites behind the ``verify`` CLI command.

Each suite runs a batch of exact checks at one rank and reports the
first counterexample on failure.  The same suites back the acceptance
tests.  Every claim is tau-equivariant and tau acts freely on the maximal
rigid objects, so every suite checks one representative per tau-orbit,
and reads no expanded node, edge or matrix.

This module holds the reports and :func:`run_suite`, and imports only
``tube``.  Each suite lives in a module named after the top layer it
checks (``_SUITE_MODULES``), which imports only the layers that suite
runs and is imported on the suite's first use: a cold ``verify --suite
s`` compiles only the layers of ``s``, and only ``--suite all`` compiles
every one.
"""

from __future__ import annotations

from importlib import import_module
from operator import ne

from .tube import Record, TubeObject, check_int


# Every suite checks the tau-quotient; a fresh ``--suite all`` at rank 13
# takes 15.7-19.4 s and 192 MB peak RSS on 2 vCPU (Python 3.11.7), and at
# rank 14 63-77 s and 694 MB, over a 60 s budget.
_MAX_RANK = 13

# Mutation-finite type B entries never leave this band; anything outside
# means the propagation went off the rails.
_ENTRY_BOUND = 2


class CheckResult(Record):
    __slots__ = _fields = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = "") -> None:
        self.name, self.ok, self.detail = name, ok, detail


class VerifyReport(Record):
    __slots__ = _fields = ("suite", "rank", "checks")

    def __init__(self, suite: str, rank: int, checks: list[CheckResult] | None = None) -> None:
        self.suite, self.rank = suite, rank
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            suffix = f": {c.detail}" if c.detail else ""
            out.append(f"{status} {self.suite}/{c.name}{suffix}")
        out.append(
            f"{'PASS' if self.passed else 'FAIL'} suite={self.suite} rank={self.rank}"
        )
        return out


def _counterexample(name: str, bad, prefix: str = "at") -> CheckResult:
    """Passes when no counterexample ``bad`` was found, else names it."""
    return CheckResult(name, bad is None, "" if bad is None else f"{prefix} {bad}")


def _first_pair(objs: list[TubeObject], rows, others, differ=ne) -> tuple | None:
    """The first pair ``(x, y)`` of ``objs``, in row-major order, whose
    entries ``u`` in table ``rows`` and ``v`` in ``others`` ``differ``."""
    return next(
        (
            (x, y)
            for x, row, other in zip(objs, rows, others)
            for y, u, v in zip(objs, row, other)
            if differ(u, v)
        ),
        None,
    )


# each suite's module, named after the top layer it checks
_SUITE_MODULES = {
    "hom": "verify_reps",
    "counts": "verify_rigid",
    "mutation": "verify_mutation",
    "polygon": "verify_polygon",
    "no-ct": "verify_rigid",
}
SUITES = tuple(_SUITE_MODULES)  # the suite names, in the order ``all`` runs them


def _suite(name: str):
    """The function of suite ``name``, from its module, which is imported
    on first use as :func:`clustertube.__getattr__` imports an export's."""
    module = import_module(f".{_SUITE_MODULES[name]}", __package__)
    return getattr(module, "suite_" + name.replace("-", "_"))


def __getattr__(name: str):
    # verify.suite_hom ... verify.suite_no_ct, each from its own module
    suite = {f"suite_{s.replace('-', '_')}": s for s in SUITES}.get(name)
    if suite is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _suite(suite)


def run_suite(suite: str, rank: int) -> VerifyReport:
    """Run one named suite (or ``all``) at the given rank.

    Raises ValueError for an unknown suite name, a rank that is not an
    int, or one outside 2..``_MAX_RANK``, the range of every suite.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    check_int(rank, "rank")
    if not 2 <= rank <= _MAX_RANK:
        raise ValueError(f"rank {rank} outside the supported range 2..{_MAX_RANK}")
    report = VerifyReport(suite, rank)
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        for check in _suite(name)(rank):
            if suite == "all":
                check.name = f"{name}/{check.name}"
            report.checks.append(check)
    return report
