import copy
import dataclasses
import hashlib
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from clustertube import (
    CsTriangulation,
    Diagonal,
    MaximalRigid,
    StructuralError,
    TheoremViolationError,
    TubeObject,
    all_cs_pairs,
    build_exchange_graph,
    crossing_points,
    delta,
    delta_inv,
    diagonals_cross,
    enumerate_rigid_indecs,
    exchange,
    ext_dim_cluster,
    flip,
    flip_graph,
    graphs_isomorphic_via_delta,
    initial_seed,
    triangulation_of,
)
from clustertube import polygon, rigid, verify
from clustertube.cli import main
from clustertube.polygon import CsPair, delta_node_map, polygon_table
from clustertube.rigid import bit_indices, rigid_table, swap


def obj(a, b, n):
    return TubeObject(a, b, n)


def rigid_pairs(n):
    """Two rigid indecomposables of rank ``n``."""
    x = st.builds(obj, st.integers(1, n), st.integers(1, n - 1), st.just(n))
    return st.tuples(x, x)


def mr(n, *pairs):
    return MaximalRigid(n, tuple(obj(a, b, n) for a, b in pairs))


def pair(p, q, n):
    return CsPair.of(Diagonal(p, q, n))


class TestDiagonals:
    def test_normalization(self):
        assert Diagonal(7, 9, 3) == Diagonal(1, 3, 3)
        d = Diagonal(4, 1, 3)
        assert (d.p, d.q) == (1, 4)

    def test_rejects_edges(self):
        with pytest.raises(StructuralError):
            Diagonal(1, 2, 3)
        with pytest.raises(StructuralError):
            Diagonal(1, 6, 3)

    @pytest.mark.parametrize(
        "corners",
        [(1, 3, 0), (1, 3, 1), (1.0, 3, 4), (1, 3.0, 4), (True, 3, 4), (1, 3, 4.0)],
    )
    def test_rejects_bad_input_like_tube_objects(self, corners):
        with pytest.raises(ValueError):
            Diagonal(*corners)

    def test_crossing(self):
        assert diagonals_cross(Diagonal(1, 3, 3), Diagonal(2, 4, 3))
        assert not diagonals_cross(Diagonal(1, 3, 3), Diagonal(3, 5, 3))
        assert diagonals_cross(Diagonal(1, 4, 3), Diagonal(2, 5, 3))


class TestCsPairs:
    def test_rejects_diagonals_of_another_rank(self):
        with pytest.raises(StructuralError, match=r"^\[1,3\] is not a diagonal of the 8-gon$"):
            CsPair(Diagonal(1, 3, 3), Diagonal(4, 6, 3), 4)
        assert CsPair(Diagonal(1, 3, 3), Diagonal(4, 6, 3), 3) == pair(1, 3, 3)


class TestDelta:
    def test_short_diagonal(self):
        p = delta(obj(1, 1, 4))
        assert {(d.p, d.q) for d in p.diagonals} == {(1, 3), (5, 7)}

    def test_diameter(self):
        p = delta(obj(1, 2, 3))
        assert p.degenerate
        assert (p.d1.p, p.d1.q) == (1, 4)

    def test_rejects_non_rigid(self):
        with pytest.raises(StructuralError):
            delta(obj(1, 3, 3))

    def test_inverse_examples(self):
        assert delta_inv(pair(1, 3, 4)) == obj(1, 1, 4)
        assert delta_inv(pair(2, 5, 3)) == obj(2, 2, 3)
        assert delta_inv(pair(1, 4, 3)) == obj(1, 2, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bijection(self, n):
        rigids = enumerate_rigid_indecs(n)
        images = {delta(x) for x in rigids}
        assert len(images) == len(rigids)
        assert images == set(all_cs_pairs(n))
        for x in rigids:
            assert delta_inv(delta(x)) == x


class TestCrossingPoints:
    def test_two_crossings(self):
        p1, p2 = delta(obj(1, 1, 3)), delta(obj(2, 1, 3))
        assert crossing_points(p1, p2) == 2
        assert ext_dim_cluster(obj(1, 1, 3), obj(2, 1, 3)) == 1

    def test_two_diameters_give_four(self):
        assert crossing_points(delta(obj(1, 2, 3)), delta(obj(2, 2, 3))) == 4

    def test_self_crossing_is_zero(self):
        for p in all_cs_pairs(4):
            assert crossing_points(p, p) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_twice_ext(self, n):
        rigids = enumerate_rigid_indecs(n)
        for x in rigids:
            for y in rigids:
                assert crossing_points(delta(x), delta(y)) == 2 * ext_dim_cluster(
                    x, y
                ), (x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 30).flatmap(rigid_pairs))
    def test_equals_twice_ext_beyond_the_exhaustive_ranks(self, pair):
        x, y = pair
        assert crossing_points(delta(x), delta(y)) == 2 * ext_dim_cluster(x, y)


class TestTriangulations:
    def test_rank_three_example(self):
        tri = triangulation_of(mr(3, (1, 2), (1, 1)))
        assert tri.pairs == {pair(1, 4, 3), pair(1, 3, 3)}

    def test_rank_two(self):
        tri = triangulation_of(mr(2, (1, 1)))
        (p,) = tri.pairs
        assert p.degenerate

    def test_exactly_one_diameter(self):
        from clustertube import enumerate_maximal_rigid

        for n in (3, 4):
            for t in enumerate_maximal_rigid(n):
                tri = triangulation_of(t)
                assert sum(1 for p in tri.pairs if p.degenerate) == 1

    def test_invalid_set_rejected(self):
        with pytest.raises(StructuralError):
            CsTriangulation(3, frozenset({pair(1, 4, 3), pair(2, 5, 3)}))

    def test_pairs_of_another_polygon_rejected(self):
        # a valid octagon triangulation, offered as one of the hexagon
        with pytest.raises(StructuralError):
            CsTriangulation(3, frozenset({pair(1, 5, 4), pair(2, 4, 4)}))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_accepts_exactly_the_cliques_with_one_diameter(self, n):
        table = polygon_table(n)
        for chosen in combinations(range(len(table.pairs)), n - 1):
            pairs = frozenset(table.pairs[i] for i in chosen)
            clique = all(table.noncross[i] >> j & 1 for i, j in combinations(chosen, 2))
            diameters = sum(p.degenerate for p in pairs)
            if clique and diameters == 1:
                assert CsTriangulation(n, pairs).pairs == pairs
            else:
                with pytest.raises(StructuralError):
                    CsTriangulation(n, pairs)


class TestFlips:
    def test_flip_diameter(self):
        tri = triangulation_of(mr(3, (1, 2), (1, 1)))
        flipped = flip(tri, pair(1, 4, 3))
        assert flipped.pairs == {pair(3, 6, 3), pair(1, 3, 3)}

    def test_flip_symmetric_pair(self):
        tri = triangulation_of(mr(3, (1, 2), (1, 1)))
        flipped = flip(tri, pair(1, 3, 3))
        assert flipped.pairs == {pair(1, 4, 3), pair(2, 4, 3)}

    def test_flip_involution(self):
        tri = triangulation_of(mr(4, (1, 3), (1, 2), (2, 1)))
        for p in tri.sorted_pairs():
            tri2 = flip(tri, p)
            (new,) = tri2.pairs - tri.pairs
            assert flip(tri2, new) == tri

    def test_flip_requires_membership(self):
        tri = triangulation_of(mr(3, (1, 2), (1, 1)))
        with pytest.raises(ValueError):
            flip(tri, pair(2, 5, 3))


class TestFlipGraph:
    @pytest.mark.parametrize("n,nodes,edges", [(2, 2, 1), (3, 6, 6), (4, 20, 30)])
    def test_shape(self, n, nodes, edges):
        g = flip_graph(n)
        assert len(g.nodes) == nodes
        assert len(g.undirected_edges()) == edges

    @pytest.mark.parametrize("n", range(2, 8))
    def test_isomorphic_to_exchange_graph(self, n):
        assert graphs_isomorphic_via_delta(build_exchange_graph(n), flip_graph(n))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_edge_is_a_flip(self, n):
        g, table = flip_graph(n), polygon_table(n)
        assert all(type(v) is int for e in g.edges for v in e)
        assert len(g.edges) == len(g.nodes) * (n - 1)
        tris = [table.triangulation(mask) for mask in g.nodes]
        for a, p, b in g.edges:
            assert flip(tris[a], table.pairs[p]) == tris[b], (a, p, b)
        assert all(a < b for a, b in g.undirected_edges())

    def test_one_exchanges_call_per_node(self, monkeypatch):
        calls = []

        def counted(adj, mask):
            calls.append(mask)
            return rigid.exchanges(adj, mask)

        monkeypatch.setattr(polygon, "exchanges", counted)
        g = polygon.FlipGraph(5)
        assert len(calls) == len(set(calls)) == len(g.nodes) == 70

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_node_is_a_valid_triangulation(self, n):
        # the reference for the node checks FlipGraph leaves to clusters
        # and to one AND with the diameter mask
        g, table = flip_graph(n), polygon_table(n)
        assert not hasattr(g, "masks")
        assert all(type(mask) is int for mask in g.nodes)
        for mask in g.nodes:
            assert table.mask_of(table.triangulation(mask)) == mask

    def test_node_without_a_diameter_is_a_theorem_violation(self, monkeypatch, capsys):
        real = polygon.polygon_table

        def doctored(n):
            table = real(n)
            low = table.diameters & -table.diameters
            return dataclasses.replace(table, diameters=table.diameters ^ low)

        monkeypatch.setattr(polygon, "polygon_table", doctored)
        polygon.flip_graph.cache_clear()
        try:
            with pytest.raises(TheoremViolationError, match="^0 diameters in "):
                flip_graph(4)
            assert main(["verify", "--rank", "4", "--suite", "polygon"]) == 1
        finally:
            polygon.flip_graph.cache_clear()
        assert capsys.readouterr().err.startswith("verification failure: 0 diameters in ")

    def test_polygon_reads_no_rigid_table(self):
        assert not hasattr(polygon, "rigid_table")

    @pytest.mark.parametrize("n", [1, 0])
    def test_rank_below_two(self, n):
        with pytest.raises(ValueError, match=f"^rank must be >= 2, got {n}$"):
            all_cs_pairs(n)
        with pytest.raises(ValueError, match=f"^rank must be >= 2, got {n}$"):
            flip_graph(n)


def reference_flip(tri, p):
    """The flip by search: every other cs pair, validated by
    CsTriangulation; exactly one must complete the rest."""
    rest = tri.pairs - {p}
    found = []
    for q in all_cs_pairs(tri.n):
        if q == p or q in rest:
            continue
        try:
            found.append(CsTriangulation(tri.n, rest | {q}))
        except StructuralError:
            continue
    assert len(found) == 1, (tri, p, found)
    return found[0]


def digests(g):
    table = polygon_table(g.n)
    nodes = "\n".join(repr(table.triangulation(m).sorted_pairs()) for m in g.nodes)
    edges = "\n".join(f"{a} {table.pairs[p]!r} {b}" for a, p, b in g.edges)
    return (
        hashlib.sha256(nodes.encode()).hexdigest(),
        hashlib.sha256(edges.encode()).hexdigest(),
    )


# sha256 of flip_graph(n) nodes and edges, taken while flips were still
# found by search over all cs pairs
FLIP_GRAPH_DIGESTS = {
    6: (
        "2d629c6f35b9fe5c0896e98672b12f9e5fa746c0d4238a5e9916ca40f527c33a",
        "064d886761deebdd30ad0317185ffa96d8f2b71a712823980dce079dacaaaa6d",
    ),
    7: (
        "2fdf01b0413ffcb844781e695f12c3c2fc6bcde359e550753a099402595ab6e0",
        "82e28af50dbec222f2f549c2c86b7174bc83936652f9eca8ba451ff845f97fd2",
    ),
}


def retarget(edges):
    a, p, b = edges[0]
    others = (c for c in range(len(flip_graph(4).nodes)) if c not in (a, b))
    edges[0] = (a, p, next(others))


def relabel(edges):
    a, p, b = edges[0]
    others = (q for q in bit_indices(flip_graph(4).nodes[a]) if q != p)
    edges[0] = (a, next(others), b)


def drop(edges):
    edges.pop()


def extra(edges):
    a, _, b = edges[0]
    mask = flip_graph(4).nodes[a]
    outside = (q for q in range(len(all_cs_pairs(4))) if not mask >> q & 1)
    edges.append((a, next(outside), b))


# edits of flip_graph(4).edges, each of which breaks the isomorphism
DOCTORINGS = (retarget, relabel, drop, extra)


class TestMaskFlips:
    @pytest.mark.parametrize("n", sorted(FLIP_GRAPH_DIGESTS))
    def test_flip_graph_matches_search_digests(self, n):
        assert digests(flip_graph(n)) == FLIP_GRAPH_DIGESTS[n]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_agrees_with_search_on_every_pair(self, n):
        for mask in flip_graph(n).nodes:
            tri = polygon_table(n).triangulation(mask)
            for p in tri.sorted_pairs():
                assert flip(tri, p) == reference_flip(tri, p), (tri, p)

    def test_isomorphism_mismatch_is_false(self):
        assert not graphs_isomorphic_via_delta(build_exchange_graph(3), flip_graph(4))

    @pytest.mark.parametrize("edit", DOCTORINGS, ids=lambda f: f.__name__)
    def test_isomorphism_sees_a_doctored_edge_list(self, edit):
        fake = copy.copy(flip_graph(4))
        fake.edges = list(fake.edges)
        edit(fake.edges)
        assert not graphs_isomorphic_via_delta(build_exchange_graph(4), fake)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 14), st.lists(st.integers(0, 12), min_size=1, max_size=10))
    def test_random_walk_flip_is_exchange(self, n, steps):
        t = initial_seed(n).object
        for step in steps:
            k = step % (n - 1)
            tri = triangulation_of(t)
            t2, k2 = exchange(t, k)
            tri2 = flip(tri, delta(t.summands[k]))
            assert tri2 == triangulation_of(t2)
            (new,) = tri2.pairs - tri.pairs
            assert flip(tri2, new) == tri
            assert exchange(t2, k2) == (t, k)
            table = rigid_table(n)
            mask = table.mask_of(t.summands)
            mask2 = swap(table.compat, mask, table.index[t.summands[k]])
            assert mask2 == table.mask_of(t2.summands)
            assert swap(table.compat, mask2, table.index[t2.summands[k2]]) == mask
            t = t2


def clear_package_caches():
    """A cold start: empty every ``lru_cache`` of the package."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "clustertube":
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


class TestDeltaImageMask:
    """Both node verdicts of the ``polygon`` suite read ``delta_node_map``,
    which maps ``PolygonTable.image_mask`` of the exchange graph's masks
    onto the flip graph's node masks; no triangulation object is built
    per node."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_mask_of_triangulation_of(self, n):
        table, eg = polygon_table(n), build_exchange_graph(n)
        for mask, t in zip(eg.masks, eg.nodes):
            assert table.image_mask(mask) == table.mask_of(triangulation_of(t)), t

    @pytest.mark.parametrize("n", range(2, 8))
    def test_node_map_numbers_the_triangulation_of_each_node(self, n):
        fg = flip_graph(n)
        node = delta_node_map(build_exchange_graph(n), fg)
        assert sorted(node) == list(range(len(fg.nodes)))
        for i, t in enumerate(build_exchange_graph(n).nodes):
            tri = polygon_table(n).triangulation(fg.nodes[node[i]])
            assert tri == triangulation_of(t), t

    def test_node_map_is_none_unless_a_bijection(self):
        eg, fg = build_exchange_graph(4), flip_graph(4)
        assert delta_node_map(build_exchange_graph(3), fg) is None
        doubled = copy.copy(fg)
        doubled.nodes = (fg.nodes[1],) + fg.nodes[1:]
        assert delta_node_map(eg, doubled) is None

    @pytest.mark.parametrize("n", range(4, 7))
    def test_cold_suite_builds_no_triangulation(self, n, monkeypatch):
        built = []
        validate = CsTriangulation.__post_init__

        def counted(tri):
            built.append(tri)
            validate(tri)

        clear_package_caches()
        monkeypatch.setattr(CsTriangulation, "__post_init__", counted)
        assert all(c.ok for c in verify.suite_polygon(n))
        assert built == []

    @pytest.mark.parametrize("n", range(2, 7))
    def test_suite_computes_the_node_map_once(self, n, monkeypatch):
        maps = []

        def counted(eg, fg):
            maps.append(n)
            return delta_node_map(eg, fg)

        monkeypatch.setattr(verify, "delta_node_map", counted)
        monkeypatch.setattr(polygon, "delta_node_map", counted)
        assert all(c.ok for c in verify.suite_polygon(n))
        assert maps == [n]

    def test_edges_match_needs_a_node_map(self):
        eg, fg = build_exchange_graph(4), flip_graph(4)
        assert polygon.edges_match(eg, fg, delta_node_map(eg, fg))
        assert not polygon.edges_match(eg, fg, None)

    def test_dropped_flip_graph_node_fails_the_bijection(self, monkeypatch, capsys):
        fake = copy.copy(flip_graph(4))
        fake.nodes = fake.nodes[1:]
        monkeypatch.setattr(verify, "flip_graph", lambda n: fake)
        report = verify.run_suite("polygon", 4)
        assert [c.name for c in report.checks if not c.ok] == [
            "triangulation-bijection",
            "flip-graph-isomorphism",
        ]
        assert main(["verify", "--rank", "4", "--suite", "polygon"]) == 1
        out = capsys.readouterr().out
        assert "FAIL polygon/triangulation-bijection: 20 triangulations" in out
