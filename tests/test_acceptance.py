"""Acceptance gate: one test per criterion, exact (zero tolerance).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

from math import comb

import pytest

from clustertube import (
    TubeObject,
    build_exchange_graph,
    cartan_counterpart,
    complements,
    crossing_points,
    delta,
    enumerate_maximal_rigid,
    enumerate_rigid_indecs,
    ext_dim_cluster,
    flip_graph,
    graphs_isomorphic_via_delta,
    hom_dim_cluster,
    hom_dim_tube,
    hom_dim_oracle,
    initial_seed,
    wing_contains,
)
from clustertube.rigid import maximal_rigid_masks, rigid_table, tilting_witness
from reference import is_sign_skew_symmetric


def top_of(t):
    """The one top of ``t``, read off its mask."""
    table = rigid_table(t.n)
    return table.objects[(t.mask & table.tops).bit_length() - 1]


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def all_objects(n, max_ql):
    return [TubeObject(a, b, n) for a in range(1, n + 1) for b in range(1, max_ql + 1)]


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_hom_oracle_agreement():
    for n in range(2, 7):
        objs = all_objects(n, 2 * n)
        for x in objs:
            for y in objs:
                assert hom_dim_tube(x, y) == hom_dim_oracle(x, y), (x, y)
    report(1, "hom formula equals the intertwiner oracle for n in 2..6, ql <= 2n")


def test_criterion_02_rigidity_boundary():
    for n in range(2, 7):
        for x in all_objects(n, 2 * n):
            assert (ext_dim_cluster(x, x) == 0) == (x.b <= n - 1), x
    report(2, "self-Ext vanishes exactly for quasi-length <= n-1, n in 2..6")


def test_criterion_03_counts():
    for n in range(2, 9):
        assert len(enumerate_rigid_indecs(n)) == n * (n - 1)
        maximal = enumerate_maximal_rigid(n)
        assert len(maximal) == comb(2 * n - 2, n - 1)
        per_top = {}
        for t in maximal:
            a = top_of(t).a
            per_top[a] = per_top.get(a, 0) + 1
        assert sorted(per_top) == list(range(1, n + 1))
        assert set(per_top.values()) == {catalan(n - 1)}
    report(3, "n(n-1) rigid indecomposables, C(2n-2,n-1) maximal rigid, "
              "Catalan(n-1) per top, n in 2..8")


def test_criterion_04_structure():
    for n in range(2, 9):
        for t in enumerate_maximal_rigid(n):
            assert len(t.summands) == n - 1
            tops = [x for x in t.summands if x.b == n - 1]
            assert len(tops) == 1
            assert all(wing_contains(tops[0], x) for x in t.summands)
    report(4, "every maximal rigid object: n-1 summands, unique top, "
              "wing containment, n in 2..8")


def test_criterion_05_unique_exchange():
    for n in range(2, 9):
        for t in enumerate_maximal_rigid(n):
            for k in range(n - 1):
                tbar = t.summands[:k] + t.summands[k + 1 :]
                pair = complements(tbar, n)
                assert len(set(pair)) == 2
                assert t.summands[k] in pair
    report(5, "every almost complete object has exactly two completions, "
              "one the removed summand, n in 2..8")


def test_criterion_06_initial_seed():
    for n in range(2, 9):
        size = n - 1
        want = [[0] * size for _ in range(size)]
        if size >= 2:
            want[0][1], want[1][0] = -2, 1
        for j in range(1, size - 1):
            want[j][j + 1] = (-1) ** (j + 1)
            want[j + 1][j] = (-1) ** j
        seed = initial_seed(n)
        assert seed.matrix.entries == tuple(tuple(r) for r in want)
        cartan_want = tuple(
            tuple(
                2 if i == j else (-2 if (i, j) == (0, 1) else -1 if abs(i - j) == 1 else 0)
                for j in range(size)
            )
            for i in range(size)
        )
        assert cartan_counterpart(seed.matrix) == cartan_want
        # the stored graph matrix agrees with the explicit one
        assert build_exchange_graph(n).b_matrix(seed.object).entries == seed.matrix.entries
    report(6, "zig-zag seed matrix and type B Cartan counterpart exact, n in 2..8")


def test_criterion_07_path_independence():
    for n in range(2, 9):
        graph = build_exchange_graph(n)  # raises on any revisit mismatch
        for rows in graph.rows:
            assert is_sign_skew_symmetric(rows)
            assert all(rows[i][i] == 0 for i in range(n - 1))
            assert all(abs(v) <= 2 for row in rows for v in row)
    report(7, "B-matrix propagation path independent; all matrices "
              "sign-skew-symmetric, zero diagonal, entries in -2..2, n in 2..8")


def test_criterion_08_graph_shape():
    for n in range(2, 9):
        graph = build_exchange_graph(n)
        nodes = comb(2 * n - 2, n - 1)
        d = n - 1
        assert len(graph.nodes) == nodes
        assert len(graph.edges) == nodes * d
        und = {
            (i, j) if i < j else (j, i)
            for i in range(nodes)
            for j in graph.edges[i * d : i * d + d]
        }
        assert len(und) == nodes * d // 2
        degrees = {i: 0 for i in range(len(graph.nodes))}
        for e in und:
            for i in e:
                degrees[i] += 1
        assert set(degrees.values()) == {n - 1}
        # BFS construction reached every node, so the graph is connected
        assert graph.nodes == maximal_rigid_masks(n)
    report(8, "exchange graph connected, (n-1)-regular, with C(2n-2,n-1) nodes, n in 2..8")


def test_criterion_09_crossing_proposition():
    for n in range(2, 7):
        rigids = enumerate_rigid_indecs(n)
        for x in rigids:
            for y in rigids:
                assert crossing_points(delta(x), delta(y)) == 2 * ext_dim_cluster(x, y)
    report(9, "crossing points = 2 dim Ext^1 for all rigid pairs, n in 2..6")


def test_criterion_10_flip_graph_isomorphism():
    for n in range(2, 7):
        assert graphs_isomorphic_via_delta(build_exchange_graph(n), flip_graph(n))
    report(10, "triangulation map is a flip-by-flip graph isomorphism, n in 2..6")


def test_criterion_11_no_cluster_tilting():
    for n in range(3, 7):
        table = rigid_table(n)
        for t in enumerate_maximal_rigid(n):
            for k in (2, 3):
                w = tilting_witness(table, table.index[top_of(t)], k)
                assert w == TubeObject(top_of(t).a, k * n - 1, n)
                assert all(ext_dim_cluster(s, w) == 0 for s in t.summands)
                assert w not in t.summands
                assert ext_dim_cluster(w, w) > 0
    report(11, "witnesses (s, kn-1) are Ext-orthogonal non-summands with "
               "self-extensions, n in 3..6, k in 2..3")


def test_criterion_12_loop_dimension():
    for n in range(2, 7):
        for t in enumerate_maximal_rigid(n):
            top = top_of(t)
            assert hom_dim_cluster(top, top) == 2
    report(12, "cluster Hom of the top summand with itself is 2-dimensional, n in 2..6")
