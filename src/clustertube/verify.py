"""Executable verification suites behind the ``verify`` CLI command.

Each suite runs a batch of exact checks at one rank and reports the
first counterexample on failure.  The same suites back the acceptance
tests.  Every claim is tau-equivariant and tau acts freely on the maximal
rigid objects, so all suites but ``polygon`` check one representative
per tau-orbit, and read no expanded node, edge or matrix.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from operator import lt, ne

from .errors import TheoremViolationError
from .mutation import build_exchange_graph, cartan_counterpart, initial_seed
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
    enumerate_rigid_indecs,
    maximal_rigid_reps,
    rigid_table,
    rotate,
    tilting_datum_of,
    tilting_witness,
)
from .tube import Record, TubeObject, ext_dim_cluster, hom_dim_cluster, hom_dim_tube

# Suites that sweep the oracle or the full polygon pairing are kept to
# desk scale; the rest check the tau-quotient, and a fresh ``--suite all``
# at rank 13 takes about 28 s and 385 MB peak RSS on 2 vCPU.
_EXHAUSTIVE_MAX = 6
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


def _bad_node(name: str, table: RigidTable, mask: int | None) -> CheckResult:
    return _counterexample(name, None if mask is None else _checked(table, mask))


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


def suite_hom(n: int) -> list[CheckResult]:
    """Every pair of quasi-length up to 2n, each formula once per ordered
    pair, into tables that the checks share.  Hom is tau-invariant, so the
    oracle runs once per tau-orbit of pairs, on ``x`` of socle 1."""
    checks = []
    m = 2 * n  # objects per socle: objs[i] has socle i // m + 1
    objs = [TubeObject(a, b, n) for a in range(1, n + 1) for b in range(1, m + 1)]
    tube = [[hom_dim_tube(x, y) for y in objs] for x in objs]
    ext = [[ext_dim_cluster(x, y) for y in objs] for x in objs]
    oracle = [[hom_dim_oracle(x, y) for y in objs] for x in objs[:m]]
    # (x, y) against the oracle with both shifted down by x.a - 1: x's
    # row of the oracle is its socle-1 row turned by x.a - 1 socles
    wants = [row[-s:] + row[:-s] for s in range(0, len(objs), m) for row in oracle]
    bad = _first_pair(objs, tube, wants)
    checks.append(_counterexample("formula-vs-oracle", bad, "disagree on"))

    bad = next((x for i, x in enumerate(objs) if (ext[i][i] == 0) != (x.b <= n - 1)), None)
    checks.append(_counterexample("rigidity-boundary", bad))

    checks.append(_counterexample("ext-symmetry", _first_pair(objs, ext, zip(*ext))))
    cluster = [[hom_dim_cluster(x, y) for y in objs] for x in objs]
    bad = _first_pair(objs, cluster, tube, lt)
    checks.append(_counterexample("cluster-hom-contains-tube-hom", bad))

    # row b - 1 of ext is (1, b)'s, and column (c - 1)m + d - 1 is (c, d)'s
    bad = next(
        (
            (objs[b - 1], objs[(c - 1) * m + d - 1])
            for b in range(1, n)
            for c in range(1, n + 1)
            for d in range(1, n)
            if ext[b - 1][(c - 1) * m + d - 1]
            != int(1 < c < b + 2 and c + d > b + 1)
            + int(1 < c + d + 1 - n < b + 2 and 1 < c < n + 1)
        ),
        None,
    )
    checks.append(_counterexample("hammock-consistency", bad))
    return checks


def suite_counts(n: int) -> list[CheckResult]:
    """Counts and tilting data on the tau-quotient: each representative is
    validated once, by :meth:`RigidTable.defect` in ``tilting-roundtrip``,
    and with its one top its orbit has n nodes, one through each top."""
    checks = []
    rigids = enumerate_rigid_indecs(n)
    checks.append(
        CheckResult(
            "rigid-count",
            len(rigids) == n * (n - 1),
            f"got {len(rigids)}, want {n * (n - 1)}",
        )
    )
    table, reps = rigid_table(n), maximal_rigid_reps(n)
    want = comb(2 * n - 2, n - 1)
    checks.append(
        CheckResult(
            "maximal-rigid-count",
            n * len(reps) == want,
            f"got {n * len(reps)}, want {want}",
        )
    )

    # an orbit meets each top once per top of its representative; the
    # tops are listed by the lowest index in their wing
    found = sum((mask & table.tops).bit_count() for mask in reps)
    tops = sorted(bit_indices(table.tops), key=lambda i: table.wings[i] & -table.wings[i])
    per_top = {table.objects[i].a: found for i in tops}
    checks.append(
        CheckResult(
            "per-top-catalan",
            found == want // n,  # Catalan(n-1)
            f"per-top counts {per_top}, want {want // n} each",
        )
    )

    # the datum's wing bits j, read as (objects[j].a - 1, objects[j].b), are
    # the node's other summands as socle distances from its top
    def wrong_datum(mask: int) -> bool:
        t, wing = tilting_datum_of(table, mask)
        top = mask & table.tops
        a = table.objects[top.bit_length() - 1].a
        return 1 << t != top or {(x.a - 1, x.b) for x in table.objects_of(wing)} != {
            ((x.a - a) % n, x.b) for x in table.objects_of(mask ^ top)
        }

    bad = next((mask for mask in reps if table.defect(mask) or wrong_datum(mask)), None)
    checks.append(_bad_node("tilting-roundtrip", table, bad))

    # keyed by the top's bit: a node without exactly one top has no loop;
    # Hom is tau-invariant, so the representatives' tops stand for all
    objs = table.objects
    loops = {1 << i: hom_dim_cluster(objs[i], objs[i]) for i in bit_indices(table.tops)}
    bad = next((mask for mask in reps if loops.get(mask & table.tops) != 2), None)
    checks.append(_bad_node("top-loop-dimension", table, bad))
    return checks


def suite_mutation(n: int) -> list[CheckResult]:
    checks = []
    try:
        graph = build_exchange_graph(n)
    except TheoremViolationError as exc:
        return [CheckResult("path-independence", False, str(exc))]
    checks.append(CheckResult("path-independence", True))
    table = rigid_table(n)

    # each orbit's stored matrix stands for its nodes', which are it turned,
    # a simultaneous permutation.  Signs and the entry bound once per
    # distinct row, sign-skew symmetry once per distinct matrix on those
    # signs: column j must be row j's signs negated (so the diagonal is
    # zero), and a row out of bound has no negated signs to match.
    stored = graph.rep_rows
    matrices = set(stored.values())
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
    bad = next((mask for mask, o in graph.reps.items() if stored[o] in broken), None)
    checks.append(_bad_node("matrix-invariants", table, bad))

    # entry o2*n + j of block o is the edge from orbit o's representative
    # to tau^j of orbit o2's, whose reverse is entry o*n + (-j mod n) of
    # block o2; a node's block is its representative's, turned
    orbits, blocks, d = len(graph.reps), graph.blocks, n - 1
    shape_ok = (
        n * orbits == comb(2 * n - 2, n - 1)
        and len(blocks) == orbits * d
        and 0 <= min(blocks) and max(blocks) < orbits * n
        and all(
            len(set(block)) == d
            and o * n not in block
            and all(o * n + -x % n in blocks[x // n * d : x // n * d + d] for x in block)
            for o, block in enumerate(blocks[o * d : o * d + d] for o in range(orbits))
        )
    )
    checks.append(
        CheckResult("graph-shape", shape_ok, f"{n * orbits} nodes, {len(blocks) * n // 2} edges")
    )

    seed = initial_seed(n)
    matrix = graph.b_matrix(seed.object)
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
            matrix.entries == seed.matrix.entries
            and cartan_counterpart(matrix) == cartan_want,
            f"stored {matrix.entries}",
        )
    )

    # independent of the BFS's exchange step: count the clusters through
    # each almost complete object, one orbit of them at a time.  The bits
    # of the representatives meet each orbit of (cluster, bit) pairs once,
    # so an orbit of s objects counted k times has k*n/s clusters through
    # each, which must be 2.  An orbit is named by its member whose one top
    # is the lowest (then s = n), or else by its least member.
    low, size = table.tops & -table.tops, len(table.objects)
    full = (1 << size) - 1

    def turns(mask: int) -> set[int]:  # rotate() inlined: its calls cost a fifth of the suite
        return {(mask >> s | mask << size - s) & full for s in range(0, size, d)}

    found = Counter(r ^ 1 << i for r in maximal_rigid_reps(n) for i in bit_indices(r))
    for mask in [m for m in found if m & table.tops != low]:  # onto one member
        top, turned = mask & table.tops, turns(mask)
        one = top and not top & top - 1
        k, mask = found.pop(mask), next(t for t in turned if t & low) if one else min(turned)
        found[mask] += k
    bad = None
    for mask, k in found.items():
        s = n if mask & table.tops == low else len(turns(mask))
        if k * n != 2 * s:
            bad = f"{table.objects_of(mask)}: {k * n // s}"
            break
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

    try:
        eg, fg = build_exchange_graph(n), flip_graph(n)
    except TheoremViolationError as exc:  # both graph checks fail, the above stand
        names = ("triangulation-bijection", "flip-graph-isomorphism")
        return checks + [CheckResult(name, False, str(exc)) for name in names]
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
    """Every node's two witnesses, on the tau-quotient: each witness of
    the lowest top, with its Ext-orthogonal mask computed once, against
    every representative; the other tops' witnesses must be its turns."""
    table, reps = rigid_table(n), maximal_rigid_reps(n)
    low, d = table.tops & -table.tops, n - 1
    witnesses = []
    for k in (2, 3):
        w = tilting_witness(table, low.bit_length() - 1, k)
        orthogonal = sum(
            1 << j for j, s in enumerate(table.objects) if ext_dim_cluster(s, w) == 0
        )
        summand = 1 << table.index[w] if w in table.index else 0
        witnesses.append((k, w, orthogonal, summand, ext_dim_cluster(w, w) == 0))

    def failures():
        for mask in reps:
            if mask & table.tops != low:  # not exactly the lowest top: no witness
                yield _checked(table, mask)
            for k, w, orthogonal, summand, rigid in witnesses:
                if mask & ~orthogonal or mask & summand or rigid:
                    yield _checked(table, mask), k, w
        # turning by i bits adds i/(n-1) to every socle
        for rep in reps[:1]:
            for i in bit_indices(table.tops & ~low):
                for k, w, *_ in witnesses:
                    other = tilting_witness(table, i, k)
                    if other != TubeObject((w.a + i // d - 1) % n + 1, w.b, n):
                        yield _checked(table, rotate(rep, i, len(table.objects))), k, other

    return [_counterexample("witnesses", next(failures(), None))]


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

    Raises ValueError for an unsupported rank or suite name; above
    ``_EXHAUSTIVE_MAX`` the exhaustive suites are skipped inside ``all``
    but rejected when requested by name.
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
