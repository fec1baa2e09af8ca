"""Executable verification suites behind the ``verify`` CLI command.

Each suite runs a batch of exact checks at one rank and reports the
first counterexample on failure.  The same suites back the acceptance
tests.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .errors import TheoremViolationError
from .mutation import (
    build_exchange_graph,
    cartan_counterpart,
    initial_seed,
)
from .polygon import (
    all_cs_pairs,
    crossing_points,
    delta,
    delta_inv,
    flip_graph,
    graphs_isomorphic_via_delta,
)
from .reps import hom_dim_oracle
from .rigid import (
    RigidTable,
    _checked,
    bit_indices,
    cluster_of_tilting_datum,
    enumerate_rigid_indecs,
    maximal_rigid_masks,
    rigid_table,
    tilting_datum_of,
    tilting_witness,
)
from .tube import Record, TubeObject, ext_dim_cluster, hom_dim_cluster, hom_dim_tube

# Suites that sweep the oracle or the full polygon pairing are kept to
# desk scale; the rest run up to rank 8.
_EXHAUSTIVE_MAX = 6
_MAX_RANK = 8

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


def _bad_node(name: str, table: RigidTable, mask: int | None) -> CheckResult:
    return _counterexample(name, None if mask is None else _checked(table, mask))


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
    """Counts and tilting data of the enumeration's masks; each node is
    validated once, by :meth:`RigidTable.defect` in ``tilting-roundtrip``."""
    checks = []
    rigids = enumerate_rigid_indecs(n)
    checks.append(
        CheckResult(
            "rigid-count",
            len(rigids) == n * (n - 1),
            f"got {len(rigids)}, want {n * (n - 1)}",
        )
    )
    table = rigid_table(n)
    maximal = maximal_rigid_masks(n)
    want = comb(2 * n - 2, n - 1)
    checks.append(
        CheckResult(
            "maximal-rigid-count",
            len(maximal) == want,
            f"got {len(maximal)}, want {want}",
        )
    )

    # per top, the nodes that contain it, in order of first appearance
    per_top: dict[int, int] = {}
    for tops, count in Counter(mask & table.tops for mask in maximal).items():
        for i in bit_indices(tops):
            a = table.objects[i].a
            per_top[a] = per_top.get(a, 0) + count
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
        (
            mask
            for mask in maximal
            if table.defect(mask)
            or cluster_of_tilting_datum(table, *tilting_datum_of(table, mask)) != mask
        ),
        None,
    )
    checks.append(_bad_node("tilting-roundtrip", table, bad))

    # keyed by the top's bit: a node without exactly one top has no loop
    loops = {
        1 << i: hom_dim_cluster(table.objects[i], table.objects[i])
        for i in bit_indices(table.tops)
    }
    bad = next((mask for mask in maximal if loops.get(mask & table.tops) != 2), None)
    checks.append(_bad_node("top-loop-dimension", table, bad))
    return checks


def suite_mutation(n: int) -> list[CheckResult]:
    checks = []
    try:
        graph = build_exchange_graph(n)
    except TheoremViolationError as exc:
        return [CheckResult("path-independence", False, str(exc))]
    checks.append(CheckResult("path-independence", True))

    # signs and the entry bound once per distinct row, sign-skew symmetry
    # once per distinct matrix on those signs: column j must be row j's
    # signs negated (so the diagonal is zero), and a row out of bound has
    # no negated signs to match.  A FAIL names the first node with a bad
    # matrix.
    matrices = set(graph.rows)
    signs, negated = {}, {}
    for row in {row for rows in matrices for row in rows}:
        signs[row] = tuple((v > 0) - (v < 0) for v in row)
        if max(map(abs, row)) <= _ENTRY_BOUND:
            negated[row] = tuple(-v for v in signs[row])
    broken = {
        rows
        for rows in matrices
        if list(zip(*map(signs.get, rows))) != list(map(negated.get, rows))
    }
    bad = None
    if broken:
        bad = next(mask for mask, rows in zip(graph.nodes, graph.rows) if rows in broken)
    table = rigid_table(n)
    checks.append(_bad_node("matrix-invariants", table, bad))

    nodes, edges, d = len(graph.nodes), graph.edges, n - 1
    blocks = [edges[i * d : i * d + d] for i in range(nodes)]
    shape_ok = (
        nodes == comb(2 * n - 2, n - 1)
        and len(edges) == nodes * d
        and 0 <= min(edges) and max(edges) < nodes
        and all(
            len(set(block)) == d and i not in block and all(i in blocks[j] for j in block)
            for i, block in enumerate(blocks)
        )
    )
    checks.append(CheckResult("graph-shape", shape_ok, f"{nodes} nodes, {len(edges) // 2} edges"))

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
    # cs pair i is delta of rigid indecomposable i, so a node's image is
    # its own mask, and each orbit's representative is its image's
    checks.append(
        CheckResult(
            "triangulation-bijection",
            eg.reps == fg.reps,
            f"{n * len(fg.reps)} triangulations of {n * len(eg.reps)} objects",
        )
    )
    checks.append(CheckResult("flip-graph-isomorphism", graphs_isomorphic_via_delta(eg, fg)))
    return checks


def suite_no_ct(n: int) -> list[CheckResult]:
    """Every node's two witnesses, on masks: the n tops share 2n
    witnesses, so each witness's Ext-orthogonal mask of rigid
    indecomposables is computed once and ANDed with every node."""
    table = rigid_table(n)
    witnesses = {}
    for i in bit_indices(table.tops):
        for k in (2, 3):
            w = tilting_witness(table, i, k)
            orthogonal = sum(
                1 << j for j, s in enumerate(table.objects) if ext_dim_cluster(s, w) == 0
            )
            summand = 1 << table.index[w] if w in table.index else 0
            witnesses[1 << i, k] = (w, orthogonal, summand, ext_dim_cluster(w, w) == 0)
    bad = None
    for mask in maximal_rigid_masks(n):
        top = mask & table.tops
        if (top, 2) not in witnesses:  # no unique top, so no witness
            bad = _checked(table, mask)
            break
        for k in (2, 3):
            w, orthogonal, summand, rigid = witnesses[top, k]
            if mask & ~orthogonal or mask & summand or rigid:
                bad = (_checked(table, mask), k, w)
                break
        if bad:
            break
    return [_counterexample("witnesses", bad)]


_SUITE_FUNCS = {
    "hom": suite_hom,
    "counts": suite_counts,
    "mutation": suite_mutation,
    "polygon": suite_polygon,
    "no-ct": suite_no_ct,
}
SUITES = tuple(_SUITE_FUNCS)  # the suite names, in the order ``all`` runs them


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
