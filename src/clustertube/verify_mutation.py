"""The ``mutation`` suite: the exchange graph of :mod:`.mutation` and its
stored B-matrices, on the tau-quotient.  Its process compiles ``rigid``,
``rigid_model`` and ``mutation``, and ``polygon_model`` for the seed's
local matrix, and no other layer beyond the core :mod:`.verify`."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from math import comb

from .errors import TheoremViolationError
from .mutation import build_exchange_graph, initial_seed
from .polygon_model import local_matrix
from .rigid import maximal_rigid_reps
from .rigid_model import bit_indices, cartan_counterpart, rigid_table
from .verify import _ENTRY_BOUND, CheckResult, _bad_node, _counterexample


def suite_mutation(n: int) -> list[CheckResult]:
    checks = []
    try:
        graph = build_exchange_graph(n)
    except TheoremViolationError as exc:
        return [CheckResult("path-independence", False, str(exc))]
    checks.append(CheckResult("path-independence", True))
    table = rigid_table(n)

    # each orbit's stored matrix stands for its nodes', which are it turned,
    # a simultaneous permutation.  Signs and the entry bound once per row
    # id, sign-skew symmetry once per distinct tuple of ids on those signs:
    # column j must be row j's signs negated (so the diagonal is zero), and
    # a row out of bound has no negated signs to match.
    stored, signs, negated = graph.rep_ids, [], []
    for row in graph.row_table.rows:
        signs.append(tuple((v > 0) - (v < 0) for v in row))
        in_bound = max(map(abs, row)) <= _ENTRY_BOUND
        negated.append(tuple(-v for v in signs[-1]) if in_bound else None)
    broken = {
        ids
        for ids in set(stored)
        if list(zip(*map(signs.__getitem__, ids))) != list(map(negated.__getitem__, ids))
    }
    bad = next((mask for mask, o in graph.reps.items() if stored[o] in broken), None)
    checks.append(_bad_node("matrix-invariants", table, bad))

    orbits, blocks, d = len(graph.reps), graph.blocks, n - 1
    shape_ok = (
        n * orbits == comb(2 * n - 2, n - 1)
        and len(blocks) == orbits * d
        and 0 <= min(blocks) and max(blocks) < orbits * n
        and _symmetric(blocks, n)
    )
    checks.append(
        CheckResult("graph-shape", shape_ok, f"{n * orbits} nodes, {len(blocks) * n // 2} edges")
    )

    seed, rows = initial_seed(n)
    matrix = graph.b_matrix(seed)
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
            matrix == rows == local_matrix(seed)
            and cartan_counterpart(matrix) == cartan_want,
            f"stored {matrix}",
        )
    )

    # independent of the BFS's exchange step: count the clusters through
    # each almost complete object, one orbit of them at a time.  The bits
    # of the representatives meet each orbit of (cluster, bit) pairs once,
    # so an orbit of s objects counted k times has k*n/s clusters through
    # each, which must be 2.  Each representative's one top is the lowest:
    # an object that keeps it is its orbit's one member through it (s = n),
    # and one without a top is named by its least turn.
    low, size = table.tops & -table.tops, len(table.objects)
    full = (1 << size) - 1

    def turns(mask: int) -> set[int]:  # rotate() inlined: its calls cost a fifth of the suite
        return {(mask >> s | mask << size - s) & full for s in range(0, size, d)}

    reps = maximal_rigid_reps(n)
    with_top = Counter(r ^ 1 << i for r in reps for i in bit_indices(r ^ low))
    no_top = Counter(min(turns(r ^ low)) for r in reps)
    bad = next((f"{table.objects_of(m)}: {k}" for m, k in with_top.items() if k != 2), None)
    for mask, k in no_top.items() if bad is None else ():
        s = len(turns(mask))
        if k * n != 2 * s:
            bad = f"{table.objects_of(mask)}: {k * n // s}"
            break
    checks.append(_counterexample("unique-exchange", bad, "completions of"))
    return checks


def _symmetric(blocks: Sequence[int], n: int) -> bool:
    """Does every edge of the tau-quotient ``blocks`` have its reverse,
    with no edge twice and no edge from a node to itself?

    Entry x = o2*n + j of block o is the edge (o, o2, j), from orbit o's
    representative to tau^-j of orbit o2's, and its reverse (o2, o, -j mod
    n) is entry o*n + (-j mod n) of block o2; a node's block is its
    representative's, turned.  One pass looks up the reverse of each edge
    into orbit o or a later one, and counts the edges into earlier orbits
    against those into later ones: reversal maps the latter one to one
    into the former, so equal counts make it onto.
    """
    d, earlier, later = n - 1, 0, 0
    for o, at in enumerate(range(0, len(blocks), d)):
        block, on = sorted(blocks[at : at + d]), o * n
        low = bisect_left(block, on)  # block[low:]: the edges into o and later orbits
        if (
            len(set(block)) != d
            or block[low : low + 1] == [on]
            or not all(on + -x % n in blocks[x // n * d : x // n * d + d] for x in block[low:])
        ):
            return False
        earlier += low
        later += d - bisect_left(block, on + n)
    return earlier == later
