import ast
import copy
from array import array
import hashlib
from itertools import combinations
from pathlib import Path

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
from clustertube import mutation, polygon, rigid, verify
from clustertube.cli import main
from clustertube.polygon import CsPair, polygon_table
from clustertube.rigid import bit_indices, exchanges, maximal_rigid_masks, rigid_table, swap
from reference import clusters


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

    @pytest.mark.parametrize("q", [1, 7])
    def test_rejects_a_corner_twice(self, q):
        with pytest.raises(StructuralError, match=r"^degenerate diagonal \[1,1\]$"):
            Diagonal(1, q, 3)

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

    def test_crossing_across_two_polygons(self):
        with pytest.raises(StructuralError, match="^diagonals of different polygons$"):
            diagonals_cross(Diagonal(1, 3, 3), Diagonal(1, 3, 4))


class TestCsPairs:
    def test_rejects_diagonals_of_another_rank(self):
        with pytest.raises(StructuralError, match=r"^\[1,3\] is not a diagonal of the 8-gon$"):
            CsPair(Diagonal(1, 3, 3), Diagonal(4, 6, 3), 4)
        assert CsPair(Diagonal(1, 3, 3), Diagonal(4, 6, 3), 3) == pair(1, 3, 3)

    def test_rejects_a_pair_that_is_no_half_turn(self):
        with pytest.raises(StructuralError, match=r"^\[2,4\] is not the half-turn of \[1,3\]$"):
            CsPair(Diagonal(1, 3, 3), Diagonal(2, 4, 3), 3)


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

    def test_wrong_number_of_pairs_rejected(self):
        with pytest.raises(StructuralError, match="^expected 2 pairs, got 1$"):
            CsTriangulation(3, frozenset({pair(1, 4, 3)}))

    def test_two_diameters_rejected(self, monkeypatch):
        # two diameters always cross, so the diameter count is reached
        # only with crossings switched off
        monkeypatch.setattr(polygon, "crossing_points", lambda a, b: 0)
        with pytest.raises(StructuralError, match=r"^2 diameters in \[\[1,4\], \[2,5\]\]$"):
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
        assert len(g.edges) == 2 * edges
        assert len({(a, b) if a < b else (b, a) for a, _, b in flips(g)}) == edges

    @pytest.mark.parametrize("n", range(2, 8))
    def test_isomorphic_to_exchange_graph(self, n):
        assert graphs_isomorphic_via_delta(build_exchange_graph(n), flip_graph(n))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_edge_is_a_flip(self, n):
        g, table = flip_graph(n), polygon_table(n)
        assert all(type(v) is int for v in g.edges)
        assert len(g.edges) == len(g.nodes) * (n - 1)
        tris = [table.triangulation(mask) for mask in g.nodes]
        for a, p, b in flips(g):
            assert flip(tris[a], table.pairs[p]) == tris[b], (a, p, b)

    def test_one_exchanges_call_per_node(self, monkeypatch):
        # one call per turning orbit, on its triangulation through the
        # lowest diameter (pair 0)
        calls, real = [], rigid.exchanges

        def counted(adj, mask):
            calls.append(mask)
            return real(adj, mask)

        monkeypatch.setattr(rigid, "exchanges", counted)
        for n in range(2, 8):
            calls.clear()
            g = polygon.FlipGraph(n)
            assert len(calls) == len(set(calls)) == len(g.nodes) // n, n
            assert all(mask & 1 for mask in calls), n

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
            return polygon.PolygonTable(
                table.n, table.pairs, table.index, table.noncross, table.diameters ^ low
            )

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

    @pytest.mark.parametrize("drop", [0, -1])
    def test_node_missing_from_the_enumeration_is_a_theorem_violation(self, drop, monkeypatch):
        # node 0 is a representative, the last node a rotation of one
        real = polygon._all_triangulations

        def dropped(n):
            nodes = list(real(n))
            del nodes[drop]
            return tuple(nodes)

        monkeypatch.setattr(polygon, "_all_triangulations", dropped)
        with pytest.raises(
            TheoremViolationError,
            match="^flip graph at rank 5 reaches 70 objects, the enumeration has 69$",
        ):
            polygon.FlipGraph(5)

    def test_clique_of_the_wrong_size_is_a_theorem_violation(self, monkeypatch):
        # every pair made compatible with every other: the one maximal
        # clique holds all six pairs of the hexagon
        real = polygon.orbit_cliques

        def complete(adj, marked, n, defect):
            full = (1 << len(adj)) - 1
            return real([full ^ 1 << i for i in range(len(adj))], marked, n, defect)

        monkeypatch.setattr(polygon, "orbit_cliques", complete)
        with pytest.raises(
            TheoremViolationError,
            match=r"^maximal clique of size 6 at rank 3: \[0, 1, 2, 3, 4, 5\]$",
        ):
            polygon._all_triangulations(3)

    def test_graphs_keep_no_quotient_code(self):
        # both graphs take their orbits from rigid.orbit_graph alone
        for module in (polygon, mutation):
            names = names_in(module)
            assert "orbit_graph" in names
            assert not {"exchanges", "rotate", "expand_orbits", "to_representative"} & names

    def test_polygon_names_no_ext(self):
        # non-crossing comes from geometry alone, never from Hom or Ext
        names = set()
        for node in ast.walk(ast.parse(Path(polygon.__file__).read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert {"crossing_points", "noncross", "delta"} <= names
        assert not {"ext_dim_cluster", "compat"} & names
        assert not [name for name in names if name.startswith("hom_dim_")]

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


def flips(g):
    """The flip graph's flat ``edges`` as (a, p, b) in array order:
    flipping pair ``p``, the k-th lowest of node ``a``, gives node ``b``."""
    d = g.n - 1
    return [
        (e // d, bit_indices(g.nodes[e // d])[e % d], b) for e, b in enumerate(g.edges)
    ]


def digests(g):
    """Hashes of the nodes and flips, each re-sorted into the order the
    search produced, when pairs were numbered by ``_pair_key``: nodes by
    their sorted pairs' keys, each node's flips by the flipped pair's key."""
    table, key = polygon_table(g.n), polygon._pair_key
    tris = [table.triangulation(m).sorted_pairs() for m in g.nodes]
    order = sorted(range(len(tris)), key=lambda a: [key(p) for p in tris[a]])
    number = {a: pos for pos, a in enumerate(order)}
    out = {a: [] for a in order}
    for a, p, b in flips(g):
        out[a].append((table.pairs[p], number[b]))
    nodes = "\n".join(repr(tris[a]) for a in order)
    edges = "\n".join(
        f"{number[a]} {p!r} {b}"
        for a in order
        for p, b in sorted(out[a], key=lambda pb: key(pb[0]))
    )
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
    others = (c for c in range(len(flip_graph(4).nodes)) if c not in (0, edges[0]))
    edges[0] = next(others)


def relabel(edges):
    # node 0's first two flips swap pairs
    edges[0], edges[1] = edges[1], edges[0]


def drop(edges):
    edges.pop()


def extra(edges):
    edges.append(edges[0])


# edits of flip_graph(4).edges, each of which breaks the isomorphism
DOCTORINGS = (retarget, relabel, drop, extra)


class TestFlatEdges:
    """Both graphs store ``edges[i*(n-1)+k] = j``: node ``j`` is node
    ``i`` with its k-th lowest bit swapped out."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize(
        "graph,adj",
        [
            (build_exchange_graph, lambda n: rigid_table(n).compat),
            (flip_graph, lambda n: polygon_table(n).noncross),
        ],
        ids=["exchange", "flip"],
    )
    def test_every_entry_is_a_swap(self, graph, adj, n):
        g, rows, d = graph(n), adj(n), n - 1
        assert type(g.edges) is array
        assert len(g.edges) == len(g.nodes) * d
        for i, mask in enumerate(g.nodes):
            for k, v in enumerate(bit_indices(mask)):
                assert g.nodes[g.edges[i * d + k]] == swap(rows, mask, v), (i, k)


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
        fake.edges = copy.copy(fake.edges)
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


class TestDeltaImageMask:
    """Cs pair ``i`` is delta of rigid indecomposable ``i``, so delta's
    image of a rigid mask is the same int, the flip graph's nodes are the
    enumeration's masks, and the isomorphism is equality of both graphs."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_pair_i_is_delta_of_object_i(self, n):
        pairs = polygon_table(n).pairs
        assert pairs == tuple(delta(x) for x in rigid_table(n).objects)
        assert sorted(pairs, key=polygon._pair_key) == list(all_cs_pairs(n))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_mask_of_triangulation_of(self, n):
        table, eg = polygon_table(n), build_exchange_graph(n)
        for mask in eg.nodes:
            t = MaximalRigid(n, rigid_table(n).objects_of(mask))
            assert table.mask_of(triangulation_of(t)) == mask, t

    @pytest.mark.parametrize("n", range(2, 8))
    def test_node_map_numbers_the_triangulation_of_each_node(self, n):
        # the node map is the identity: flip-graph node i is the
        # triangulation of exchange-graph node i
        fg, eg, table = flip_graph(n), build_exchange_graph(n), polygon_table(n)
        assert len(fg.nodes) == len(eg.nodes)
        for i, mask in enumerate(eg.nodes):
            t = MaximalRigid(n, rigid_table(n).objects_of(mask))
            assert table.triangulation(fg.nodes[i]) == triangulation_of(t), t

    @pytest.mark.parametrize("n", range(2, 10))
    def test_flip_graph_nodes_are_the_rigid_masks(self, n):
        fg = flip_graph(n)
        assert fg.nodes == maximal_rigid_masks(n)
        assert graphs_isomorphic_via_delta(build_exchange_graph(n), fg)

    @pytest.mark.parametrize("n", range(4, 7))
    def test_cold_suite_builds_no_triangulation(
        self, n, monkeypatch, clear_package_caches
    ):
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
    def test_suite_runs_the_isomorphism_once(self, n, monkeypatch):
        # the public function, so that a span on it sees the suite's check
        calls = []

        def counted(eg, fg):
            calls.append(n)
            return graphs_isomorphic_via_delta(eg, fg)

        monkeypatch.setattr(verify, "graphs_isomorphic_via_delta", counted)
        assert all(c.ok for c in verify.suite_polygon(n))
        assert calls == [n]

    @staticmethod
    def doctor_delta(monkeypatch, images, socles=(1,)):
        """Make ``polygon`` number its pairs by a delta whose images of
        the rank-4 objects ``(a, 3)`` and ``(a, 2)``, canonical indices
        ``3a-3`` and ``3a-2``, are ``images(x, y)`` from their true images
        ``x`` and ``y``, for each socle ``a`` in ``socles``; caches are
        emptied."""

        def doctored(x):
            if x.a in socles and x.b in (3, 2):
                return images(delta(obj(x.a, 3, 4)), delta(obj(x.a, 2, 4)))[3 - x.b]
            return delta(x)

        monkeypatch.setattr(polygon, "delta", doctored)
        polygon.polygon_table.cache_clear()
        polygon.flip_graph.cache_clear()

    def test_dropped_image_is_a_theorem_violation(self, monkeypatch, capsys):
        self.doctor_delta(monkeypatch, lambda a, b: (a, a))
        try:
            missed = r"^delta misses the cs pairs \[\(\[1,4\],\[5,8\]\)\] of the 8-gon$"
            with pytest.raises(TheoremViolationError, match=missed):
                polygon_table(4)
            assert main(["verify", "--rank", "4", "--suite", "polygon"]) == 1
        finally:
            polygon.polygon_table.cache_clear()
            polygon.flip_graph.cache_clear()
        assert capsys.readouterr().err.startswith("verification failure: delta misses ")

    def test_swapped_images_at_one_socle_fail_the_turn(self, monkeypatch, capsys):
        # every pair is still an image, but pair 3, delta of (2, 3), is no
        # longer pair 0 turned by one corner
        self.doctor_delta(monkeypatch, lambda a, b: (b, a))
        try:
            with pytest.raises(
                TheoremViolationError,
                match=r"^delta does not commute with turning the 8-gon at \(\[1,4\],\[5,8\]\)$",
            ):
                polygon_table(4)
            assert main(["verify", "--rank", "4", "--suite", "polygon"]) == 1
        finally:
            polygon.polygon_table.cache_clear()
            polygon.flip_graph.cache_clear()
        assert capsys.readouterr().err.startswith("verification failure: delta does not commute")

    def test_swapped_images_fail_the_bijection(self, monkeypatch, capsys):
        # swapped at every socle, every pair is still an image and the
        # numbering still commutes with the turn, so the table stands, but
        # the numbering no longer matches the rigid one
        self.doctor_delta(monkeypatch, lambda a, b: (b, a), socles=(1, 2, 3, 4))
        try:
            assert polygon_table(4).pairs[:2] == (delta(obj(1, 2, 4)), delta(obj(1, 3, 4)))
            assert not graphs_isomorphic_via_delta(build_exchange_graph(4), flip_graph(4))
            report = verify.run_suite("polygon", 4)
            assert [c.name for c in report.checks if not c.ok] == [
                "triangulation-bijection",
                "flip-graph-isomorphism",
            ]
            assert main(["verify", "--rank", "4", "--suite", "polygon"]) == 1
        finally:
            polygon.polygon_table.cache_clear()
            polygon.flip_graph.cache_clear()
        out = capsys.readouterr().out
        assert "FAIL polygon/triangulation-bijection: 20 triangulations of 20 objects" in out
        assert "FAIL polygon/flip-graph-isomorphism" in out

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
        assert "FAIL polygon/triangulation-bijection: 19 triangulations of 20 objects" in out


def names_in(module):
    """Every name, attribute and imported name in ``module``'s source."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def turned(p):
    """The cs pair ``p`` turned by one corner of the 2n-gon."""
    return pair(p.d1.p + 1, p.d1.q + 1, p.n)


def full_flip_graph(n):
    """The flip graph by full search: every maximal clique of the
    non-crossing table, and every node's flips, each looked up by mask."""
    adj = polygon_table(n).noncross
    nodes = tuple(clusters(adj, n))
    number = {mask: a for a, mask in enumerate(nodes)}
    edges = [number[m ^ 1 << p | 1 << q] for m in nodes for p, q in exchanges(adj, m)]
    return nodes, array("l", edges)


class TestFlipQuotient:
    """The flip graph searches and flips only the triangulations through
    the lowest diameter, one per turning orbit, and expands the orbits;
    ``polygon_table`` sweeps crossings only for the pairs of socle 1."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_equals_the_full_search(self, n):
        g = flip_graph(n)
        assert (g.nodes, g.edges) == full_flip_graph(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_noncross_equals_the_full_sweep(self, n):
        pairs = polygon_table(n).pairs
        sweep = tuple(
            sum(1 << j for j, b in enumerate(pairs) if j != i and crossing_points(a, b) == 0)
            for i, a in enumerate(pairs)
        )
        assert polygon_table(n).noncross == sweep

    @pytest.mark.parametrize("n", range(2, 9))
    def test_crossings_are_invariant_under_the_turn(self, n):
        pairs = all_cs_pairs(n)
        for p in pairs:
            for q in pairs:
                assert crossing_points(turned(p), turned(q)) == crossing_points(p, q), (p, q)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sampled_rank_ten_flips_are_swaps(self, data):
        n, g, adj = 10, flip_graph(10), polygon_table(10).noncross
        i = data.draw(st.integers(0, len(g.nodes) - 1))
        k = data.draw(st.integers(0, n - 2))
        mask = g.nodes[i]
        assert swap(adj, mask, bit_indices(mask)[k]) == g.nodes[g.edges[i * (n - 1) + k]]

    def test_dropped_diameter_is_a_theorem_violation(self, monkeypatch, capsys):
        # the highest diameter left out: only the search with every
        # diameter excluded sees its triangulations
        real = polygon.polygon_table

        def doctored(n):
            table = real(n)
            high = 1 << table.diameters.bit_length() - 1
            return polygon.PolygonTable(
                table.n, table.pairs, table.index, table.noncross, table.diameters ^ high
            )

        monkeypatch.setattr(polygon, "polygon_table", doctored)
        polygon.flip_graph.cache_clear()
        try:
            with pytest.raises(TheoremViolationError, match="^0 diameters in "):
                flip_graph(5)
            assert main(["verify", "--rank", "5", "--suite", "polygon"]) == 1
        finally:
            polygon.flip_graph.cache_clear()
        assert capsys.readouterr().err.startswith("verification failure: 0 diameters in ")
