"""Checks of the benchmark itself:  python3 bench/selftest.py

The correctness gate must pass on a correct program and must fail once an
expected answer is deliberately wrong; traced counts must repeat exactly;
and the host-speed correction must pass a known extra cost through intact.
Runs in about half a minute at small ranks.
"""

from __future__ import annotations

import random
import statistics
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from clustertube import enumerate_maximal_rigid  # noqa: E402


def _small_queries(seed: int) -> list:
    """One query of each kind at ranks that keep the test quick."""
    rng = random.Random(seed)
    obj4 = workloads.random_maximal_rigid(rng, 4)
    obj5 = workloads.random_maximal_rigid(rng, 5)
    at = obj5[0]
    return [
        ("hom", 4, ["hom", "--rank", "4", "--from", "2,3", "--to", "3,6"], ((2, 3), (3, 6))),
        ("polygon", 4, ["polygon", "--rank", "4", "--object", workloads._fmt(obj4)], (obj4, None)),
        ("bmatrix", 5, ["bmatrix", "--rank", "5", "--object", workloads._fmt(obj5)], (obj5, None)),
        (
            "mutate",
            5,
            ["mutate", "--rank", "5", "--object", workloads._fmt(obj5), "--at", workloads._fmt([at])],
            (obj5, at),
        ),
    ]


def _error_rate(ops) -> float:
    return sum(not op.ok for op in ops) / len(ops)


class WingGenerator(unittest.TestCase):
    def test_reaches_exactly_the_maximal_rigid_objects(self):
        for n in range(2, 7):
            want = {
                tuple(sorted((x.a, x.b) for x in t.summands))
                for t in enumerate_maximal_rigid(n)
            }
            rng = random.Random(n)
            got = {
                tuple(sorted(workloads.random_maximal_rigid(rng, n)))
                for _ in range(40 * len(want))
            }
            self.assertEqual(got, want)


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.queries = workloads.Queries(7)
        self.queries.setup()

    def _run_queries(self):
        return [self.queries._query(q, False)[0] for q in _small_queries(7)]

    def test_queries_pass_on_the_program(self):
        self.assertEqual(_error_rate(self._run_queries()), 0.0)

    def test_wrong_polygon_expectation_is_counted(self):
        right = workloads.expected_polygon

        def shifted(obj, n):
            return right([(a % n + 1, b) for a, b in obj], n)

        with mock.patch.object(workloads, "expected_polygon", shifted):
            ops = self._run_queries()
        self.assertGreater(_error_rate(ops), 0.0)
        self.assertEqual([op.kind for op in ops if not op.ok], ["polygon"])

    def test_wrong_hom_expectation_is_counted(self):
        right = workloads.expected_hom

        def off_by_one(x, y, n):
            return dict(right(x, y, n), ext=right(x, y, n)["ext"] + 1)

        with mock.patch.object(workloads, "expected_hom", off_by_one):
            ops = self._run_queries()
        self.assertEqual([op.kind for op in ops if not op.ok], ["hom"])

    def test_matrix_invariants_reject_a_bad_matrix(self):
        order = [(1, 2), (1, 1)]
        good = ["order: 1,2;1,1", "0 -2", "1 0"]
        self.assertEqual(workloads.check_matrix(good, order, 2), "")
        self.assertIn("sign-skew", workloads.check_matrix(["order: 1,2;1,1", "0 -2", "-1 0"], order, 2))
        self.assertIn("range", workloads.check_matrix(["order: 1,2;1,1", "0 -3", "1 0"], order, 2))
        self.assertIn("canonical", workloads.check_matrix(["order: 1,1;1,2", "0 -2", "1 0"], order, 2))

    def test_dropped_verify_check_is_counted(self):
        certify = workloads.Certify(0)
        certify.order = [("no-ct", 3), ("counts", 3)]
        self.assertEqual(_error_rate(certify.unit(0).ops), 0.0)
        wrong = dict(workloads.EXPECTED_CHECKS, **{"no-ct": ("witnesses", "extra-check")})
        with mock.patch.object(workloads, "EXPECTED_CHECKS", wrong):
            ops = certify.unit(0).ops
        self.assertEqual(_error_rate(ops), 0.5)

    def test_wrong_seed_count_is_counted(self):
        exchange = workloads.Exchange(0)
        exchange.setup()
        exchange.RANK = 5
        self.assertEqual(_error_rate(exchange.unit(0).ops), 0.0)
        with mock.patch.object(workloads, "comb", lambda a, b: 71):
            ops = exchange.unit(0).ops
        self.assertEqual(_error_rate(ops), 1.0)


class SpeedCorrection(unittest.TestCase):
    """A known extra cost must come through the division by the slowdown."""

    BOUND = 0.2  # the time bounds in BENCHMARK.json
    PAIRS = 5

    @staticmethod
    def _library(times: int) -> None:
        for _ in range(times):
            workloads._cold()
            enumerate_maximal_rigid(6)

    @staticmethod
    def _allocate() -> None:
        rng = random.Random(0)
        sorted((rng.random(), i) for i in range(150_000))

    def _ratios(self, extra) -> tuple:
        """Medians over alternating pairs of (base + extra) / base, as
        (normalised, raw wall)."""
        norm, wall = [], []
        for _ in range(self.PAIRS):
            _, base = workloads._timed("base", lambda: self._library(16), lambda r: "")
            _, more = workloads._timed(
                "more", lambda: (self._library(16), extra()), lambda r: ""
            )
            norm.append(more.seconds / base.seconds)
            wall.append(more.wall / base.wall)
        return statistics.median(norm), statistics.median(wall)

    def test_a_quarter_more_work_reads_a_quarter_more(self):
        norm, _ = self._ratios(lambda: self._library(4))
        self.assertLess(abs(norm - 1.25), self.BOUND * 0.25, norm)

    def test_another_memory_footprint_matches_wall_time(self):
        norm, wall = self._ratios(self._allocate)
        self.assertGreater(wall, 1.1)
        self.assertLess(abs(norm - wall), self.BOUND * (wall - 1), (norm, wall))


class TracedRun(unittest.TestCase):
    def test_counts_repeat_and_wrappers_are_removed(self):
        import clustertube.mutation as mutation
        import clustertube.rigid as rigid

        before = (rigid.complements, mutation.exchange, mutation.complements)
        exchange = workloads.Exchange(0)
        exchange.setup()
        exchange.RANK = 5
        first = exchange.trace_unit(True).layers
        second = exchange.trace_unit(True).layers
        counts = [k for k in first if k.endswith(("_calls", "revisits"))]
        self.assertEqual({k: first[k] for k in counts}, {k: second[k] for k in counts})
        # 70 seeds at rank 5, 4 exchanges each
        self.assertEqual(first["mutation.fz_mutate_calls"], 280)
        self.assertEqual(first["rigid.complements_calls"], 280)
        self.assertEqual(first["mutation.revisits"], 280 - 70 + 1)
        self.assertEqual(before, (rigid.complements, mutation.exchange, mutation.complements))

    def test_self_time_excludes_children(self):
        rec = tracing.Recorder()
        rec.names = ["outer", "inner", "inner"]
        rec.starts = [0.0, 1.0, 3.0]
        rec.ends = [10.0, 2.0, 5.0]
        rec.parents = [-1, 0, 0]
        spans = rec.summary()["spans"]
        self.assertEqual(spans["outer"], [1, 10.0, 7.0])
        self.assertEqual(spans["inner"], [2, 3.0, 3.0])

    def test_importtime_parse(self):
        text = "\n".join(
            [
                "import time: self [us] | cumulative | imported package",
                "import time:       100 |        300 |     numpy",
                "import time:        50 |        900 | clustertube",
                "BENCHTRACE {}",
            ]
        )
        self.assertEqual(
            tracing.parse_importtime(text),
            {"clustertube": 900, "numpy": 300, "networkx": 0},
        )


if __name__ == "__main__":
    unittest.main()
