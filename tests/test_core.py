"""Cross-checks of the integer-indexed core against independent references.

The references here are deliberately naive: a full pairwise Ext sweep, a
brute-force clique search, a constructive enumeration by wings, and a
complement search through ``is_rigid_set`` and ``wing_contains``.
"""

import hashlib
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from clustertube import (
    StructuralError,
    TheoremViolationError,
    TubeObject,
    all_cs_pairs,
    complements,
    enumerate_maximal_rigid,
    enumerate_rigid_indecs,
    ext_dim_cluster,
    is_rigid_set,
    triangulation_of,
    wing_contains,
)
from clustertube.polygon import _all_triangulations, _pair_key, polygon_table
from clustertube.rigid import (
    bit_indices,
    completions,
    exchanges,
    maximal_cliques,
    maximal_rigid_masks,
    orbit_nodes,
    rigid_table,
)
from reference import clusters, rep_by_picks, swap


def wing_tilting_sets(a, m, n):
    """Tilting sets of the wing with apex (a, m): the apex together with
    tilting sets of the two sub-wings left of and right of a split point
    (the Catalan recursion)."""
    if m == 0:
        return [frozenset()]
    apex = TubeObject((a - 1) % n + 1, m, n)
    return [
        left | right | {apex}
        for j in range(m)
        for left in wing_tilting_sets(a, j, n)
        for right in wing_tilting_sets(a + j + 1, m - 1 - j, n)
    ]


def brute_complements(tbar, n):
    """Every rigid x outside tbar that completes it to a rigid set with one
    top of quasi-length n-1 whose wing holds every summand."""
    found = []
    for x in enumerate_rigid_indecs(n):
        t = tbar + (x,)
        if x in tbar or not is_rigid_set(t):
            continue
        tops = [y for y in t if y.b == n - 1]
        if len(tops) == 1 and all(wing_contains(tops[0], y) for y in t):
            found.append(x)
    return found


@st.composite
def almost_complete(draw, max_rank=10):
    """A maximal rigid object built from a random top and random split
    points of its wing, minus one random summand."""
    n = draw(st.integers(2, max_rank))

    def wing(a, m):
        if m == 0:
            return []
        j = draw(st.integers(0, m - 1))
        apex = TubeObject((a - 1) % n + 1, m, n)
        return [apex] + wing(a, j) + wing(a + j + 1, m - 1 - j)

    summands = wing(draw(st.integers(1, n)), n - 1)
    k = draw(st.integers(0, n - 2))
    return n, tuple(summands[:k] + summands[k + 1 :])


class TestTable:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_compat_masks_equal_full_ext_sweep(self, n):
        table = rigid_table(n)
        objs = enumerate_rigid_indecs(n)
        assert table.objects == objs
        for i, x in enumerate(objs):
            want = sum(
                1 << j
                for j, y in enumerate(objs)
                if j != i and ext_dim_cluster(x, y) == 0
            )
            assert table.compat[i] == want, x

    def test_tops_and_wings(self):
        n = 5
        table = rigid_table(n)
        objs = table.objects
        assert table.objects_of(table.tops) == tuple(x for x in objs if x.b == n - 1)
        for i, wing in table.wings.items():
            assert table.objects_of(wing) == tuple(
                y for y in objs if wing_contains(objs[i], y)
            )


@st.composite
def graphs(draw, max_vertices=8):
    """Neighbour masks of a random simple graph."""
    adj = [0] * draw(st.integers(0, max_vertices))
    for i, j in combinations(range(len(adj)), 2):
        if draw(st.booleans()):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


class TestMaximalCliques:
    @given(graphs())
    def test_matches_brute_force(self, adj):
        v = len(adj)

        def is_clique(s):
            return all(adj[i] >> j & 1 for i, j in combinations(s, 2))

        cliques = [
            s for r in range(1, v + 1) for s in combinations(range(v), r)
            if is_clique(s)
        ]
        maximal = {
            sum(1 << i for i in s)
            for s in cliques
            if not any(set(s) < set(c) for c in cliques)
        }
        found = maximal_cliques(adj)
        assert len(found) == len(set(found))
        assert set(found) == maximal


def graph_of(v, edges):
    """Neighbour masks of the graph on ``0..v-1`` with the given edges."""
    adj = [0] * v
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


class TestClusterStructure:
    def test_completions_of_a_clique_are_two(self):
        # the path 0 - 1 - 2: vertex 1 alone is completed by 0 and by 2
        assert completions(graph_of(3, [(0, 1), (1, 2)]), 0b010) == 0b101

    def test_one_completion_is_a_theorem_violation(self):
        edge = graph_of(2, [(0, 1)])
        with pytest.raises(TheoremViolationError, match=r"has 1 completions: \[0\]"):
            completions(edge, 0b10)

    def test_three_completions_are_a_theorem_violation(self):
        # the star with centre 0 and leaves 1, 2, 3
        star = graph_of(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(TheoremViolationError, match=r"3 completions: \[1, 2, 3\]"):
            completions(star, 0b0001)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exchanges_equal_swap(self, n):
        for adj in (rigid_table(n).compat, polygon_table(n).noncross):
            for mask in clusters(adj, n):
                assert exchanges(adj, mask) == [swap(adj, mask, v) for v in bit_indices(mask)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(10, 13), st.lists(st.integers(0, 2**16), min_size=12, max_size=12))
    def test_exchanges_equal_swap_above_the_exhaustive_ranks(self, n, picks):
        table = rigid_table(n)
        r = rep_by_picks(table, picks)
        assert exchanges(table.compat, r) == [swap(table.compat, r, v) for v in bit_indices(r)]

    @pytest.mark.parametrize(
        "adj, mask, text",
        [
            # the edge 0 - 1: the rest {1} is completed by 0 alone
            (graph_of(2, [(0, 1)]), 0b11, r"^\[1\] has 1 completions: \[0\]$"),
            # the star with centre 1: the rest {1} has three completions
            (
                graph_of(4, [(1, 0), (1, 2), (1, 3)]),
                0b0011,
                r"^\[1\] has 3 completions: \[0, 2, 3\]$",
            ),
            # the path 0 - 1 - 2 with vertex 1 its own neighbour, which no
            # table that rigid_table or polygon_table builds has: the rest
            # {1} keeps 1 among its completions, since no row excludes it
            (
                [0b010, 0b111, 0b010],
                0b011,
                r"^\[1\] has 3 completions: \[0, 1, 2\]$",
            ),
        ],
    )
    def test_exchanges_fail_as_completions(self, adj, mask, text):
        with pytest.raises(TheoremViolationError, match=text) as single:
            for removed in bit_indices(mask):
                completions(adj, mask & ~(1 << removed))
        with pytest.raises(TheoremViolationError, match=text) as at_once:
            exchanges(adj, mask)
        assert str(at_once.value) == str(single.value)

    def test_clusters_sorted_by_indices(self):
        # two triangles sharing the edge 1 - 2, at rank 4
        adj = graph_of(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert clusters(adj, 4) == [0b0111, 0b1110]

    def test_clique_of_the_wrong_size_is_a_theorem_violation(self):
        # a triangle and a pendant edge: maximal cliques of sizes 3 and 2
        adj = graph_of(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        with pytest.raises(TheoremViolationError, match=r"size 2 at rank 4: \[2, 3\]"):
            clusters(adj, 4)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_maximal_rigid_completion_is_maximal_rigid(self, n):
        # the fact that lets complements skip the maximal-rigid filter
        table = rigid_table(n)
        for mask in clusters(table.compat, n):
            for removed in bit_indices(mask):
                tbar = mask & ~(1 << removed)
                pair = bit_indices(completions(table.compat, tbar))
                assert len(pair) == 2 and removed in pair
                assert all(table.defect(tbar | 1 << i) == "" for i in pair)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_constructive_wing_enumeration(self, n):
        constructed = [
            s for a in range(1, n + 1) for s in wing_tilting_sets(a, n - 1, n)
        ]
        enumerated = {frozenset(t.summands) for t in enumerate_maximal_rigid(n)}
        assert len(constructed) == len(set(constructed)) == comb(2 * n - 2, n - 1)
        assert set(constructed) == enumerated


class TestComplements:
    @settings(max_examples=150, deadline=None)
    @given(almost_complete())
    def test_equal_brute_force(self, case):
        n, tbar = case
        assert list(complements(tbar, n)) == brute_complements(tbar, n)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 10).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from(enumerate_rigid_indecs(n)),
                 min_size=n - 2, max_size=n - 2, unique=True),
    )))
    def test_rejects_exactly_the_non_rigid(self, case):
        n, tbar = case
        if is_rigid_set(tbar):
            assert list(complements(tbar, n)) == brute_complements(tuple(tbar), n)
        else:
            with pytest.raises(StructuralError):
                complements(tbar, n)


# sha256 of the repr of each triangulation's sorted pair keys, sorted, as
# the clique search through networkx produced them while pairs were
# numbered by those keys
TRIANGULATION_ORDER = {
    2: "4fed272280c33b6ef86192252ae9f59c0ce2f12a7873dbf3f69c06002c32edfa",
    3: "ee25240d9ce7de9d8c51c02a3d51e39c092c36b9bcf9fa541c3c15018e12e489",
    4: "5795c93fac163f82b078660f53f816de1be304b5387417c3a66e0c01fd2b3d70",
    5: "5870329317f749ea9565b3c63808322f9525ef322f5d7fee6dca70163dde0d87",
    6: "67308b0bea3e223a464d3f813b838a3f0dc52e637327b5e802ab08fe6070e1d3",
    7: "7421a070b987957d991103361056fa75bc569771006f5c51e8b13ba5b5f847fc",
}


class TestTriangulations:
    @pytest.mark.parametrize("n", sorted(TRIANGULATION_ORDER))
    def test_count_and_order_unchanged(self, n):
        nodes = orbit_nodes(_all_triangulations(n), n)
        tris = [polygon_table(n).triangulation(m) for m in nodes]
        keys = sorted([_pair_key(p) for p in t.sorted_pairs()] for t in tris)
        assert len(tris) == comb(2 * n - 2, n - 1)
        assert nodes == maximal_rigid_masks(n)
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == TRIANGULATION_ORDER[n]
        assert set(tris) == {triangulation_of(t) for t in enumerate_maximal_rigid(n)}
        assert {p for t in tris for p in t.pairs} == set(all_cs_pairs(n))
