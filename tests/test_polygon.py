import ast
import copy
import re
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
from clustertube import (
    mutation,
    polygon,
    polygon_model,
    rigid,
    rigid_model,
    verify,
    verify_polygon,
)
from clustertube.cli import main
from clustertube.polygon import polygon_table
from clustertube.polygon_model import CsPair
from clustertube.rigid import maximal_rigid_masks
from clustertube.rigid_model import bit_indices, exchanges, rigid_table
from reference import (
    clusters,
    crosses_by_sets,
    crossings_by_sets,
    cs_pairs_by_records,
    diagonals,
    polygon_table_by_records,
    swap,
)


def obj(a, b, n):
    return TubeObject(a, b, n)


def rigid_pairs(n):
    """Two rigid indecomposables of rank ``n``."""
    x = st.builds(obj, st.integers(1, n), st.integers(1, n - 1), st.just(n))
    return st.tuples(x, x)


def mr(n, *pairs):
    return MaximalRigid(n, tuple(obj(a, b, n) for a, b in pairs))


def graph_failure(out):
    """The text of a polygon suite run whose graphs could not be built:
    both graph checks FAIL with the build's error, after the table checks."""
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL polygon/")]
    names = [line.partition(":")[0] for line in fails[-2:]]
    assert names == ["FAIL polygon/triangulation-bijection", "FAIL polygon/flip-graph-isomorphism"]
    texts = {line.partition(": ")[2] for line in fails[-2:]}
    assert len(texts) == 1 and lines[-1].startswith("FAIL suite=polygon")
    return texts.pop()


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
    HEXAGON = (Diagonal(1, 3, 3), Diagonal(4, 6, 3))

    def test_rejects_diagonals_of_another_rank(self):
        with pytest.raises(StructuralError, match=r"^\[1,3\] is not a diagonal of the 8-gon$"):
            CsPair(Diagonal(1, 3, 3), Diagonal(4, 6, 3), 4)
        assert CsPair(Diagonal(1, 3, 3), Diagonal(4, 6, 3), 3) == pair(1, 3, 3)

    def test_rejects_a_pair_that_is_no_half_turn(self):
        with pytest.raises(StructuralError, match=r"^\[2,4\] is not the half-turn of \[1,3\]$"):
            CsPair(Diagonal(1, 3, 3), Diagonal(2, 4, 3), 3)

    @pytest.mark.parametrize(
        "members,n,error,text",
        [
            ((1, 2), 3, StructuralError, "1 is not a diagonal"),
            (
                (Diagonal(1, 3, 3), TubeObject(1, 2, 3)),
                3,
                StructuralError,
                "(1,2)@3 is not a diagonal",
            ),
            (HEXAGON, 3.0, ValueError, "rank must be an int, got 3.0"),
            (HEXAGON, "3", ValueError, "rank must be an int, got '3'"),
            # an int rank below 2 keeps its text
            (HEXAGON, 1, StructuralError, "[1,3] is not a diagonal of the 2-gon"),
        ],
        ids=["int-member", "object-member", "float-rank", "str-rank", "rank-1"],
    )
    def test_rejects_bad_arguments(self, members, n, error, text):
        # never a TypeError or an AttributeError
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            CsPair(*members, n)


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
        monkeypatch.setattr(polygon_model, "crossing_points", lambda a, b: 0)
        with pytest.raises(StructuralError, match=r"^2 diameters in \[\[1,4\], \[2,5\]\]$"):
            CsTriangulation(3, frozenset({pair(1, 4, 3), pair(2, 5, 3)}))

    def test_pairs_of_another_polygon_rejected(self):
        # a valid octagon triangulation, offered as one of the hexagon
        with pytest.raises(StructuralError):
            CsTriangulation(3, frozenset({pair(1, 5, 4), pair(2, 4, 4)}))

    @pytest.mark.parametrize(
        "member,text",
        [(Diagonal(1, 4, 3), r"\[1,4\]"), (TubeObject(1, 2, 3), r"\(1,2\)@3"), (7, "7")],
        ids=["Diagonal", "TubeObject", "int"],
    )
    def test_member_that_is_not_a_pair_rejected(self, member, text):
        with pytest.raises(StructuralError, match=rf"^{text} is not a cs pair$"):
            CsTriangulation(3, frozenset({pair(1, 3, 3), member}))

    @pytest.mark.parametrize(
        "n,text",
        [
            (0, "rank must be >= 2, got 0"),
            (1, "rank must be >= 2, got 1"),
            (3.0, "rank must be an int, got 3.0"),
            ("3", "rank must be an int, got '3'"),
        ],
    )
    def test_rank_is_checked(self, n, text):
        # rank 0 read "expected -1 pairs", and a float rank passed
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            CsTriangulation(n, frozenset())

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

    def test_builds_with_no_exchanges_and_no_search_for_its_nodes(self, monkeypatch):
        # the triangulations and flips come from corners alone; the one
        # clique search checks that none avoids every diameter
        exchanged, searched = [], []
        real_exchanges, real_search = rigid_model.exchanges, rigid.maximal_cliques

        def counted_exchanges(adj, mask):
            exchanged.append(mask)
            return real_exchanges(adj, mask)

        def counted_search(adj, seed=0, excluded=0):
            searched.append((adj, seed, excluded))
            return real_search(adj, seed, excluded)

        monkeypatch.setattr(rigid_model, "exchanges", counted_exchanges)
        monkeypatch.setattr(mutation, "exchanges", counted_exchanges)
        monkeypatch.setattr(rigid, "maximal_cliques", counted_search)
        monkeypatch.setattr(polygon, "maximal_cliques", counted_search)
        for n in range(2, 8):
            searched.clear()
            table = polygon_table(n)
            g = polygon.FlipGraph(n)
            assert len(g.reps) == len(g.nodes) // n
            assert searched == [(table.noncross, 0, table.diameters)], n
        assert exchanged == []

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
            keys, noncross = table.keys, table.noncross
            return polygon.PolygonTable(table.n, keys, noncross, table.diameters ^ low)

        monkeypatch.setattr(polygon, "polygon_table", doctored)
        polygon.flip_graph.cache_clear()
        try:
            with pytest.raises(TheoremViolationError, match="^0 diameters in "):
                flip_graph(4)
            assert main(["verify", "--rank", "4", "--suite", "polygon"]) == 1
        finally:
            polygon.flip_graph.cache_clear()
        assert graph_failure(capsys.readouterr().out).startswith("0 diameters in ")

    def test_polygon_reads_no_rigid_table(self):
        assert not hasattr(polygon, "rigid_table")

    @pytest.mark.parametrize("drop", [0, -1])
    def test_node_missing_from_the_enumeration_is_a_theorem_violation(self, drop, monkeypatch):
        # the first and the last representative: a flip of another one
        # reaches the first itself, and a rotation of the last
        bits = {0: "0, 1, 2, 3", -1: "1, 6, 11, 16"}[drop]
        real = polygon._all_triangulations

        def dropped(n):
            reps = list(real(n))
            del reps[drop]
            return tuple(reps)

        monkeypatch.setattr(polygon, "_all_triangulations", dropped)
        with pytest.raises(
            TheoremViolationError,
            match=rf"^flip graph at rank 5 reaches \[{bits}\], outside the enumeration of 65$",
        ):
            polygon.FlipGraph(5)

    def test_clique_of_the_wrong_size_is_a_theorem_violation(self, monkeypatch):
        # a non-crossing table whose maximal sets can avoid every diameter:
        # the three non-diameters of the hexagon made compatible with each
        # other, the three diameters with nothing, so the non-diameters are
        # one maximal set
        real = polygon.polygon_table

        def doctored(n):
            table = real(n)
            rest = (1 << len(table.keys)) - 1 ^ table.diameters
            noncross = tuple(
                0 if table.diameters >> i & 1 else rest ^ 1 << i for i in range(len(table.keys))
            )
            return polygon.PolygonTable(n, table.keys, noncross, table.diameters)

        monkeypatch.setattr(polygon, "polygon_table", doctored)
        with pytest.raises(
            TheoremViolationError,
            match=r"^maximal clique of size 3 at rank 3: \[1, 3, 5\]$",
        ):
            polygon._all_triangulations(3)

    def test_graphs_keep_no_quotient_code(self):
        # both graphs take their orbits from rigid.orbit_graph alone; the
        # exchange graph hands it exchanges, and its one step, exchange,
        # in the model layer, takes one of them: nothing else uses the kernel
        for module in (polygon, mutation):
            names = names_in(module)
            assert "orbit_graph" in names
            assert not {"expand_orbits", "to_representative"} & names
        assert "rotate" not in names_in(mutation)
        # polygon's one rotate turns a triangulation for PolygonTable.flip
        polygon_tree = ast.parse(Path(polygon.__file__).read_text())
        rotating = {
            f.name
            for f in ast.walk(polygon_tree)
            if isinstance(f, ast.FunctionDef)
            and any(getattr(node, "id", "") == "rotate" for node in ast.walk(f))
        }
        assert rotating == {"flip"}
        assert "exchanges" not in names_in(polygon) | names_in(polygon_model)
        tree = ast.parse(Path(mutation.__file__).read_text())
        (call,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "orbit_graph"
        ]
        model = ast.parse(Path(rigid_model.__file__).read_text())
        (step,) = [
            node
            for node in ast.walk(model)
            if isinstance(node, ast.FunctionDef) and node.name == "exchange"
        ]

        def uses(root):
            return [node for node in ast.walk(root) if getattr(node, "id", "") == "exchanges"]

        assert len(uses(tree)) == len(uses(call)) == len(uses(step)) == 1

    def test_polygon_imports_no_exchange_kernel(self):
        # the flip graph, flip and the local matrix are a second route:
        # none of the exchange graph's search, exchange or completion kernels
        forbidden = {
            "swap", "exchange", "exchanges", "completions", "orbit_cliques", "maximal_rigid_reps",
        }
        for module in (polygon, polygon_model):
            imported = {
                alias.name
                for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            assert not forbidden & imported, module

    def test_polygon_names_no_ext(self):
        # non-crossing comes from geometry alone, never from Hom or Ext:
        # the table by the corner predicate, the records by their crossings
        assert {"noncross", "_cross"} <= names_in(polygon)
        assert {"_cross", "crossing_points", "delta"} <= names_in(polygon_model)
        for module in (polygon, polygon_model):
            names = names_in(module)
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
    table, key = polygon_table(g.n), polygon_model._pair_key
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


def retarget(blocks):
    # entries o*n + j, like node numbers, run below the node count
    others = (c for c in range(len(flip_graph(4).nodes)) if c not in (0, blocks[0]))
    blocks[0] = next(others)


def relabel(blocks):
    # orbit 0's first two flips swap pairs
    blocks[0], blocks[1] = blocks[1], blocks[0]


def drop(blocks):
    blocks.pop()


def extra(blocks):
    blocks.append(blocks[0])


# edits of flip_graph(4).blocks, the quotient the edges are expanded from,
# each of which breaks the isomorphism
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
        fake.blocks = copy.copy(fake.blocks)
        edit(fake.blocks)
        assert not graphs_isomorphic_via_delta(build_exchange_graph(4), fake)

    def test_isomorphism_sees_doctored_tops(self):
        # the marked vertices pick each orbit's representative, which the
        # expansion rotates from
        fake = copy.copy(flip_graph(4))
        fake.marked = fake.marked ^ 1 << fake.marked.bit_length() - 1
        assert not graphs_isomorphic_via_delta(build_exchange_graph(4), fake)

    def test_isomorphism_sees_a_dropped_node(self):
        fake = copy.copy(flip_graph(4))
        fake.reps = dict(list(fake.reps.items())[:-1])
        assert not graphs_isomorphic_via_delta(build_exchange_graph(4), fake)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 14), st.lists(st.integers(0, 12), min_size=1, max_size=10))
    def test_random_walk_flip_is_exchange(self, n, steps):
        t, _ = initial_seed(n)
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
        assert sorted(pairs, key=polygon_model._pair_key) == list(all_cs_pairs(n))

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

        monkeypatch.setattr(verify_polygon, "graphs_isomorphic_via_delta", counted)
        assert all(c.ok for c in verify.suite_polygon(n))
        assert calls == [n]

    @staticmethod
    def doctor_delta(monkeypatch, images, socles=(1,)):
        """Make ``polygon_table`` number its pairs by a delta on corners
        whose images of the rank-4 objects ``(a, 3)`` and ``(a, 2)``,
        canonical indices ``3a-3`` and ``3a-2``, are ``images(x, y)`` from
        their true images ``x`` and ``y``, for each socle ``a`` in
        ``socles``; caches are emptied."""
        real = polygon._image

        def doctored(a, b, n):
            if a in socles and b in (3, 2):
                return images(real(a, 3, n), real(a, 2, n))[3 - b]
            return real(a, b, n)

        monkeypatch.setattr(polygon, "_image", doctored)
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
        assert graph_failure(capsys.readouterr().out).startswith("delta misses ")

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
        assert graph_failure(capsys.readouterr().out).startswith("delta does not commute")

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
        fake.reps = dict(list(fake.reps.items())[1:])
        monkeypatch.setattr(verify_polygon, "flip_graph", lambda n: fake)
        report = verify.run_suite("polygon", 4)
        assert [c.name for c in report.checks if not c.ok] == [
            "triangulation-bijection",
            "flip-graph-isomorphism",
        ]
        assert main(["verify", "--rank", "4", "--suite", "polygon"]) == 1
        out = capsys.readouterr().out
        assert "FAIL polygon/triangulation-bijection: 16 triangulations of 20 objects" in out


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
    edges = [number[m2] for m in nodes for m2 in exchanges(adj, m)]
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
            keys, noncross = table.keys, table.noncross
            return polygon.PolygonTable(table.n, keys, noncross, table.diameters ^ high)

        monkeypatch.setattr(polygon, "polygon_table", doctored)
        polygon.flip_graph.cache_clear()
        try:
            with pytest.raises(TheoremViolationError, match="^0 diameters in "):
                flip_graph(5)
            assert main(["verify", "--rank", "5", "--suite", "polygon"]) == 1
        finally:
            polygon.flip_graph.cache_clear()
        assert graph_failure(capsys.readouterr().out).startswith("0 diameters in ")


def off_by_one_apart(a, b, n):
    """A doctored apex rule: a flip that is no diameter ends one corner late."""
    return (a, b + 1) if a < b else (a, a + n)


def off_by_one_diameter(a, b, n):
    """A doctored apex rule: a diameter's flip turned by one corner."""
    return (a, b) if a < b else polygon._turned(a, a + n, n, 1)


class TestSecondRoute:
    """The flip graph is built from corners, the exchange graph from Ext,
    so the two graph checks compare two routes: a fault on either side
    fails them."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_enumeration_is_sorted_and_equals_the_search(self, n):
        reps = polygon._all_triangulations(n)
        assert list(reps) == sorted(reps, key=bit_indices)
        assert reps == rigid.maximal_rigid_reps(n)

    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("rule", [off_by_one_apart, off_by_one_diameter])
    def test_apex_rule_off_by_one_corner_fails(self, n, rule, monkeypatch):
        # the flip kernel is built once per table
        monkeypatch.setattr(polygon, "_flipped", rule)
        polygon.polygon_table.cache_clear()
        polygon.flip_graph.cache_clear()
        try:
            report = verify.run_suite("polygon", n)
        finally:
            polygon.polygon_table.cache_clear()
            polygon.flip_graph.cache_clear()
        failed = [c.name for c in report.checks if not c.ok]
        assert "flip-graph-isomorphism" in failed
        assert failed[0] in ("triangulation-bijection", "flip-graph-isomorphism")

    def test_cleared_compat_bit_fails(self, monkeypatch, capsys, clear_package_caches):
        # Ext-compatibility of the rank-5 top (1, 4), object 0, and another
        # summand of a cluster through it, not both in the initial seed, cut
        # both ways: the exchange graph changes, the flip graph does not
        clear_package_caches()
        table, seed = rigid_table(5), initial_seed(5)[0].mask
        reps = rigid.maximal_rigid_reps(5)
        j = next(j for r in reps for j in bit_indices(r)[1:] if seed & 1 << j == 0)
        assert table.compat[0] >> j & 1 and table.compat[j] & 1
        compat = list(table.compat)
        compat[0] ^= 1 << j
        compat[j] ^= 1
        cut = rigid.RigidTable(
            5, table.objects, table.index, tuple(compat), table.tops, table.wings
        )
        monkeypatch.setattr(rigid, "rigid_table", lambda n: cut if n == 5 else table)
        monkeypatch.setattr(mutation, "rigid_table", rigid.rigid_table)
        clear_package_caches()
        try:
            report = verify.run_suite("polygon", 5)
            assert main(["verify", "--rank", "5", "--suite", "polygon"]) == 1
        finally:
            clear_package_caches()
        failed = [c.name for c in report.checks if not c.ok]
        assert failed == ["triangulation-bijection", "flip-graph-isomorphism"]
        assert "FAIL polygon/flip-graph-isomorphism" in capsys.readouterr().out


def off_the_polygon(a, b, n):
    """A doctored apex rule: every flip the diameter one corner past the
    first apex, which for the apex n ends past corner 2n."""
    return (a + 1, a + n + 1)


def beyond_the_corners(a, b, n):
    """A doctored apex rule: a second corner past 2n."""
    return (a, a + 2 * n + 1)


def flip_or_none(tri, p):
    """``flip(tri, p)``, or None where its mask is no triangulation."""
    try:
        return flip(tri, p)
    except StructuralError:
        return None


class TestOneFlipRule:
    """``flip`` is the flip graph's corner kernel, turned onto the lowest
    diameter; ``swap`` on ``noncross`` is kept here as a reference route."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_flip_equals_swap_on_noncross(self, n):
        # every node, through every diameter, and every pair of it
        table = polygon_table(n)
        for mask in maximal_rigid_masks(n):
            for i in bit_indices(mask):
                assert table.flip(mask, i) == swap(table.noncross, mask, i), (mask, i)

    def test_flip_reads_no_noncross(self, monkeypatch):
        real = polygon_table(6)
        want = {
            (mask, i): flip(real.triangulation(mask), real.pairs[i])
            for mask in maximal_rigid_masks(6)
            for i in bit_indices(mask)
        }
        zeroed = polygon.PolygonTable(6, real.keys, (0,) * len(real.keys), real.diameters)
        monkeypatch.setattr(polygon, "polygon_table", lambda n: zeroed)
        for (mask, i), tri in want.items():
            assert flip(real.triangulation(mask), real.pairs[i]) == tri, (mask, i)

    @pytest.mark.parametrize("rule", [off_by_one_apart, off_by_one_diameter])
    def test_apex_rule_off_by_one_corner_changes_flip(self, rule, monkeypatch):
        table, masks = polygon_table(6), maximal_rigid_masks(6)
        monkeypatch.setattr(polygon, "_flipped", rule)
        polygon.polygon_table.cache_clear()
        try:
            assert any(
                flip_or_none(tri, p) != reference_flip(tri, p)
                for tri in map(table.triangulation, masks)
                for p in tri.sorted_pairs()
            )
        finally:
            polygon.polygon_table.cache_clear()

    @pytest.mark.parametrize(
        "rule, corners",
        [
            (off_the_polygon, "apexes 6 and 6 at rank 6 joins corners 7 and 13"),
            (beyond_the_corners, "apexes 2 and 2 at rank 6 joins corners 2 and 15"),
        ],
        ids=["off_the_polygon", "beyond_the_corners"],
    )
    def test_flip_off_the_polygon_is_a_theorem_violation(
        self, rule, corners, monkeypatch, capsys
    ):
        text = f"the flip with {corners}, no diagonal of the 12-gon"
        monkeypatch.setattr(polygon, "_flipped", rule)
        polygon.polygon_table.cache_clear()
        polygon.flip_graph.cache_clear()
        try:
            with pytest.raises(TheoremViolationError, match=f"^{text}$"):
                polygon_table(6).flips
            assert main(["verify", "--rank", "6", "--suite", "polygon"]) == 1
        finally:
            polygon.polygon_table.cache_clear()
            polygon.flip_graph.cache_clear()
        out, err = capsys.readouterr()
        assert f"FAIL polygon/triangulation-bijection: {text}\n" in out
        assert f"FAIL polygon/flip-graph-isomorphism: {text}\n" in out
        assert err == ""


def touching(d, e):
    """A doctored crossing kernel: a shared corner counts as a crossing."""
    (p, q), (r, s) = d, e
    return d != e and (p <= r <= q <= s or r <= p <= s <= q)


@st.composite
def diagonal_pairs(draw):
    """Two diagonals of a 2n-gon, n up to 40, from random corners."""
    n = draw(st.integers(2, 40))
    corner = st.integers(1, 2 * n)
    out = []
    for _ in range(2):
        p = draw(corner)
        gap = draw(st.integers(2, 2 * n - 2))
        out.append(Diagonal(p, p + gap, n))
    return out


class TestCornerKernel:
    """The polygon model on corner ints: one crossing predicate, one list
    of cs pairs, and the table built from them, each against the
    record-built references in ``reference``."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_kernel_equals_the_set_predicate_on_every_pair(self, n):
        ds = diagonals(n)
        for d in ds:
            for e in ds:
                want = crosses_by_sets(d, e)
                assert polygon._cross((d.p, d.q), (e.p, e.q)) is want, (d, e)
                assert diagonals_cross(d, e) is want, (d, e)

    @settings(max_examples=300, deadline=None)
    @given(diagonal_pairs())
    def test_kernel_equals_the_set_predicate_up_to_rank_forty(self, pair):
        d, e = pair
        assert diagonals_cross(d, e) is crosses_by_sets(d, e)
        p1, p2 = CsPair.of(d), CsPair.of(e)
        assert crossing_points(p1, p2) == crossings_by_sets(p1, p2)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_table_equals_the_record_built_reference(self, n):
        table, want = polygon_table(n), polygon_table_by_records(n)
        assert all_cs_pairs(n) == cs_pairs_by_records(n)
        assert table.pairs == want.pairs
        assert table.index == want.index
        assert table.noncross == want.noncross
        assert table.diameters == want.diameters

    @pytest.mark.parametrize("n", range(2, 31))
    def test_table_equals_the_rigid_table(self, n):
        # crossing = 2 Ext, on the two tables: pair i is delta of object i
        table, rigid_ = polygon_table(n), rigid_table(n)
        assert table.noncross == rigid_.compat
        assert table.diameters == rigid_.tops

    @pytest.mark.parametrize("n", range(2, 10))
    def test_cold_table_builds_two_diagonals_per_pair(self, n, monkeypatch):
        # none for the table and the flip graph, which read corner ints;
        # delta's image and its half-turn, and no other record, once the
        # pairs are read
        built, validate = [], Diagonal.__post_init__

        def counted(d):
            built.append(d)
            validate(d)

        monkeypatch.setattr(Diagonal, "__post_init__", counted)
        polygon.polygon_table.cache_clear()
        polygon.FlipGraph(n)
        assert built == []
        pairs = polygon_table(n).pairs
        assert polygon_table(n).pairs is pairs
        assert len(built) == 2 * n * (n - 1)

    def test_cold_table_crosses_each_pair_twice(self, monkeypatch):
        # the half-turn gives the other two crossings of a pair of pairs
        n, calls, real = 7, [], polygon._cross

        def counted(d, e):
            calls.append((d, e))
            return real(d, e)

        monkeypatch.setattr(polygon, "_cross", counted)
        polygon.polygon_table.cache_clear()
        try:
            polygon_table(n)
        finally:
            polygon.polygon_table.cache_clear()
        assert len(calls) <= 2 * (n - 1) * (n * (n - 1) - 1)

    def test_image_of_another_polygon_is_missed(self, monkeypatch):
        # its corners are those of a diagonal of the decagon, beyond the
        # octagon's
        real = polygon._image

        def doctored(a, b, n):
            return (1, 9) if (a, b) == (1, 1) else real(a, b, n)

        monkeypatch.setattr(polygon, "_image", doctored)
        polygon.polygon_table.cache_clear()
        try:
            with pytest.raises(
                TheoremViolationError,
                match=r"^delta misses the cs pairs \[\(\[1,3\],\[5,7\]\)\] of the 8-gon$",
            ):
                polygon_table(4)
        finally:
            polygon.polygon_table.cache_clear()

    def test_kernel_counting_a_shared_corner_fails(self, monkeypatch, capsys):
        # with the graphs built by the true kernel, the crossing check
        # alone sees the doctored one.  The records cross by the model's
        # kernel, and the table by the same one, read on polygon
        flip_graph(4), build_exchange_graph(4)
        for module in (polygon_model, polygon):
            monkeypatch.setattr(module, "_cross", touching)
        report = verify.run_suite("polygon", 4)
        assert [c.name for c in report.checks if not c.ok] == ["crossing-equals-twice-ext"]
        # built by the doctored kernel, the table has no triangulation of
        # three pairs, since the sides of every triangle share corners: its
        # maximal sets include one pair that is no diameter, which the flip
        # graph's check finds, and both graph checks report it after the
        # crossing check
        polygon.polygon_table.cache_clear()
        polygon.flip_graph.cache_clear()
        try:
            with pytest.raises(
                TheoremViolationError, match=r"^maximal clique of size 1 at rank 4: \[1\]$"
            ):
                flip_graph(4)
            assert main(["verify", "--rank", "4", "--suite", "polygon"]) == 1
        finally:
            polygon.polygon_table.cache_clear()
            polygon.flip_graph.cache_clear()
        out, err = capsys.readouterr()
        assert "FAIL polygon/crossing-equals-twice-ext: at ((1,3)@4, (1,2)@4)\n" in out
        assert graph_failure(out) == "maximal clique of size 1 at rank 4: [1]"
        assert err == ""
