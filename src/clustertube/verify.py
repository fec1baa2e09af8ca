"""Executable verification suites behind the ``verify`` CLI command.

Each suite runs a batch of exact checks at one rank and reports the
first counterexample on failure.  The same suites back the acceptance
tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb

from .errors import TheoremViolationError
from .mutation import (
    build_exchange_graph,
    cartan_counterpart,
    initial_seed,
    is_sign_skew_symmetric,
)
from .polygon import (
    all_cs_pairs,
    crossing_points,
    delta,
    delta_inv,
    delta_node_map,
    edges_match,
    flip_graph,
    polygon_table,
)
from .reps import hom_dim_oracle
from .rigid import (
    bit_indices,
    cluster_tilting_witness,
    enumerate_maximal_rigid,
    enumerate_rigid_indecs,
    from_tilting_datum,
    maximal_rigid_masks,
    rigid_table,
    to_tilting_datum,
)
from .tube import TubeObject, ext_dim_cluster, hom_dim_cluster, hom_dim_tube

SUITES = ("hom", "counts", "mutation", "polygon", "no-ct")

# Suites that sweep the oracle or the full polygon pairing are kept to
# desk scale; the rest run up to rank 8.
_EXHAUSTIVE_MAX = 6
_MAX_RANK = 8

# Mutation-finite type B entries never leave this band; anything outside
# means the propagation went off the rails.
_ENTRY_BOUND = 2


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerifyReport:
    suite: str
    rank: int
    checks: list[CheckResult] = field(default_factory=list)

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


def _catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _all_objects(n: int, max_ql: int) -> list[TubeObject]:
    return [
        TubeObject(a, b, n) for a in range(1, n + 1) for b in range(1, max_ql + 1)
    ]


def suite_hom(n: int) -> list[CheckResult]:
    checks = []
    objs = _all_objects(n, 2 * n)

    bad = next(
        (
            (x, y)
            for x in objs
            for y in objs
            if hom_dim_tube(x, y) != hom_dim_oracle(x, y)
        ),
        None,
    )
    checks.append(_counterexample("formula-vs-oracle", bad, "disagree on"))

    bad = next(
        ((x) for x in objs if (ext_dim_cluster(x, x) == 0) != (x.b <= n - 1)), None
    )
    checks.append(_counterexample("rigidity-boundary", bad))

    bad = next(
        (
            (x, y)
            for x in objs
            for y in objs
            if ext_dim_cluster(x, y) != ext_dim_cluster(y, x)
        ),
        None,
    )
    checks.append(_counterexample("ext-symmetry", bad))

    bad = next(
        (
            (x, y)
            for x in objs
            for y in objs
            if hom_dim_cluster(x, y) < hom_dim_tube(x, y)
        ),
        None,
    )
    checks.append(_counterexample("cluster-hom-contains-tube-hom", bad))

    bad = next(
        (
            (TubeObject(1, b, n), TubeObject(c, d, n))
            for b in range(1, n)
            for c in range(1, n + 1)
            for d in range(1, n)
            if ext_dim_cluster(TubeObject(1, b, n), TubeObject(c, d, n))
            != int(1 < c < b + 2 and c + d > b + 1)
            + int(1 < c + d + 1 - n < b + 2 and 1 < c < n + 1)
        ),
        None,
    )
    checks.append(_counterexample("hammock-consistency", bad))
    return checks


def suite_counts(n: int) -> list[CheckResult]:
    checks = []
    rigids = enumerate_rigid_indecs(n)
    checks.append(
        CheckResult(
            "rigid-count",
            len(rigids) == n * (n - 1),
            f"got {len(rigids)}, want {n * (n - 1)}",
        )
    )
    maximal = enumerate_maximal_rigid(n)
    want = comb(2 * n - 2, n - 1)
    checks.append(
        CheckResult(
            "maximal-rigid-count",
            len(maximal) == want,
            f"got {len(maximal)}, want {want}",
        )
    )

    per_top = dict(Counter(t.top.a for t in maximal))
    cat = _catalan(n - 1)
    checks.append(
        CheckResult(
            "per-top-catalan",
            sorted(per_top) == list(range(1, n + 1))
            and all(v == cat for v in per_top.values()),
            f"per-top counts {per_top}, want {cat} each",
        )
    )

    bad = next(
        (t for t in maximal if from_tilting_datum(to_tilting_datum(t)) != t), None
    )
    checks.append(_counterexample("tilting-roundtrip", bad))

    bad = next(
        (t for t in maximal if hom_dim_cluster(t.top, t.top) != 2), None
    )
    checks.append(_counterexample("top-loop-dimension", bad))
    return checks


def suite_mutation(n: int) -> list[CheckResult]:
    checks = []
    try:
        graph = build_exchange_graph(n)
    except TheoremViolationError as exc:
        return [CheckResult("path-independence", False, str(exc))]
    checks.append(CheckResult("path-independence", True))

    bad = next(
        (
            t
            for t, mat in graph.nodes.items()
            if not is_sign_skew_symmetric(mat)
            or any(abs(v) > _ENTRY_BOUND for row in mat.entries for v in row)
        ),
        None,
    )
    checks.append(_counterexample("matrix-invariants", bad))

    want_nodes = comb(2 * n - 2, n - 1)
    directed = {(i, j) for i, _, j in graph.edges}
    undirected = graph.undirected_edges()
    degree = Counter(i for e in undirected for i in e)
    shape_ok = (
        len(graph.nodes) == want_nodes
        and len(graph.edges) == want_nodes * (n - 1)
        and all((j, i) in directed for i, j in directed)
        and len(undirected) == want_nodes * (n - 1) // 2
        and all(degree[i] == n - 1 for i in range(len(graph.nodes)))
    )
    checks.append(
        CheckResult(
            "graph-shape",
            shape_ok,
            f"{len(graph.nodes)} nodes, {len(undirected)} edges",
        )
    )

    seed = initial_seed(n)
    stored = graph.b_matrix(seed.object)
    cartan_want = tuple(
        tuple(
            2 if i == j else (-2 if (i, j) == (0, 1) else -1 if abs(i - j) == 1 else 0)
            for j in range(n - 1)
        )
        for i in range(n - 1)
    )
    checks.append(
        CheckResult(
            "initial-seed",
            stored.entries == seed.matrix.entries
            and cartan_counterpart(stored) == cartan_want,
            f"stored {stored.entries}",
        )
    )

    # independent of the BFS's exchange step: count, for every almost
    # complete object, the enumerated clusters that contain it
    table = rigid_table(n)
    found = Counter(
        c & ~(1 << i) for c in maximal_rigid_masks(n) for i in bit_indices(c)
    )
    bad = next(
        (f"{table.objects_of(m)}: {k}" for m, k in found.items() if k != 2), None
    )
    checks.append(_counterexample("unique-exchange", bad, "completions of"))
    return checks


def suite_polygon(n: int) -> list[CheckResult]:
    checks = []
    rigids = enumerate_rigid_indecs(n)
    pair = {x: delta(x) for x in rigids}

    image = set(pair.values())
    pairs = set(all_cs_pairs(n))
    inv_ok = all(delta_inv(p) == x for x, p in pair.items())
    checks.append(
        CheckResult(
            "delta-bijection",
            len(image) == len(rigids) and image == pairs and inv_ok,
            f"{len(image)} images of {len(rigids)} objects, {len(pairs)} pairs",
        )
    )

    bad = next(
        (
            (x, y)
            for x in rigids
            for y in rigids
            if crossing_points(pair[x], pair[y]) != 2 * ext_dim_cluster(x, y)
        ),
        None,
    )
    checks.append(_counterexample("crossing-equals-twice-ext", bad))

    eg = build_exchange_graph(n)
    fg = flip_graph(n)
    node = delta_node_map(eg, fg)
    bijective = node is not None
    # a bijection has one image per object; only a failure counts them
    images = eg.nodes if bijective else {polygon_table(n).image_mask(m) for m in eg.masks}
    checks.append(
        CheckResult(
            "triangulation-bijection",
            bijective,
            f"{len(images)} triangulations of {len(eg.nodes)} objects",
        )
    )
    checks.append(CheckResult("flip-graph-isomorphism", edges_match(eg, fg, node)))
    return checks


def suite_no_ct(n: int) -> list[CheckResult]:
    checks = []
    bad = None
    for t in enumerate_maximal_rigid(n):
        for k in (2, 3):
            w = cluster_tilting_witness(t, k)
            if (
                any(ext_dim_cluster(s, w) != 0 for s in t.summands)
                or w in t.summands
                or ext_dim_cluster(w, w) == 0
            ):
                bad = (t, k, w)
                break
        if bad:
            break
    checks.append(_counterexample("witnesses", bad))
    return checks


_SUITE_FUNCS = {
    "hom": suite_hom,
    "counts": suite_counts,
    "mutation": suite_mutation,
    "polygon": suite_polygon,
    "no-ct": suite_no_ct,
}


def run_suite(suite: str, rank: int) -> VerifyReport:
    """Run one named suite (or ``all``) at the given rank.

    Raises ValueError for an unsupported rank or suite name; at ranks 7
    and 8 the oracle-exhaustive suites are skipped inside ``all`` but
    rejected when requested by name.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if not 2 <= rank <= _MAX_RANK:
        raise ValueError(f"rank {rank} outside the supported range 2..{_MAX_RANK}")
    exhaustive = {"hom", "polygon"}
    if suite in exhaustive and rank > _EXHAUSTIVE_MAX:
        raise ValueError(
            f"suite {suite!r} is exhaustive and only supports ranks 2..{_EXHAUSTIVE_MAX}"
        )
    report = VerifyReport(suite, rank)
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        if name in exhaustive and rank > _EXHAUSTIVE_MAX:
            report.checks.append(
                CheckResult(f"{name}-skipped", True, f"rank {rank} > {_EXHAUSTIVE_MAX}")
            )
            continue
        for check in _SUITE_FUNCS[name](rank):
            if suite == "all":
                check.name = f"{name}/{check.name}"
            report.checks.append(check)
    return report
