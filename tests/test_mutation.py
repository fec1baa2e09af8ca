import copy
import gc
import re
import tracemalloc
from array import array
from collections import deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from clustertube import (
    ExchangeMatrix,
    MaximalRigid,
    StructuralError,
    TheoremViolationError,
    TubeObject,
    build_exchange_graph,
    cartan_counterpart,
    enumerate_maximal_rigid,
    exchange,
    fz_mutate,
    initial_seed,
)
from clustertube import mutation, polygon, rigid, verify, verify_mutation
from clustertube.cli import main
from reference import cover_reach, is_sign_skew_symmetric, swap


def obj(a, b, n):
    return TubeObject(a, b, n)


def mr(n, *pairs):
    return MaximalRigid(n, tuple(obj(a, b, n) for a, b in pairs))


def node_objects(g):
    """The graph's nodes as objects, in node order."""
    table = rigid.rigid_table(g.n)
    return [MaximalRigid(g.n, table.objects_of(mask)) for mask in g.nodes]


def triples(g):
    """The graph's flat ``edges`` as (i, k, j) in array order: exchanging
    summand ``k`` of node ``i`` gives node ``j``."""
    d = g.n - 1
    return [(e // d, e % d, j) for e, j in enumerate(g.edges)]


def undirected(g):
    """The graph's edges as ordered node pairs, each once."""
    return {(i, j) if i < j else (j, i) for i, _, j in triples(g)}


def representative(table, mask):
    """The rotation of ``mask`` that puts its one top at bit 0."""
    t = (mask & table.tops).bit_length() - 1
    return rigid.rotate(mask, -t, len(table.objects))


def quotient_steps(g):
    """The mutation steps of the tau-quotient search, read off the full
    graph: one per undirected edge between two representatives' orbits,
    and one per directed edge from a representative into its own orbit."""
    table, d = rigid.rigid_table(g.n), g.n - 1
    loops = across = 0
    for i, mask in enumerate(g.nodes):
        if mask & 1:  # a representative: its top is the lowest one
            for j in g.edges[i * d : i * d + d]:
                if representative(table, g.nodes[j]) == mask:
                    loops += 1
                else:
                    across += 1
    return loops + across // 2


def doctored_row(table, i):
    """The id of row ``i`` of ``table`` with 7 added to its first entry."""
    row = table.rows[i]
    return table.intern((row[0] + 7,) + row[1:])


def full_bfs(n):
    """Reference: the BFS over every node, mutating one direction of each
    undirected edge and comparing on revisits.  Returns ``rows``,
    ``edges`` and ``order`` as :class:`ExchangeGraph` stores them."""
    table, seed = rigid.rigid_table(n), initial_seed(n)
    start = table.mask_of(seed.object.summands)
    number = {mask: i for i, mask in enumerate(rigid.maximal_rigid_masks(n))}
    rows, popped, order, found = {start: seed.matrix.entries}, set(), [], []
    queue = deque([start])
    while queue:
        mask = queue.popleft()
        popped.add(mask)
        order.append(number[mask])
        for k, mask2 in enumerate(rigid.exchanges(table.compat, mask)):
            found.append(number[mask2])
            if mask2 not in popped:
                p = (mask2 & (mask2 & ~mask) - 1).bit_count()  # the new summand's position
                b2 = mutation._mutate_rows(rows[mask], k, p)
                if mask2 not in rows:
                    rows[mask2] = b2
                    queue.append(mask2)
                assert rows[mask2] == b2, table.objects_of(mask2)
    d, edges = n - 1, [0] * len(found)
    for pos, i in enumerate(order):
        edges[i * d : i * d + d] = found[pos * d : pos * d + d]
    return tuple(rows[mask] for mask in number), edges, order


INITIAL_N4 = ((0, -2, 0), (1, 0, 1), (0, -1, 0))


class TestFzMutate:
    def test_mutate_middle(self):
        b = initial_seed(4).matrix
        assert fz_mutate(b, 1).entries == ((0, 2, 0), (-1, 0, -1), (0, 1, 0))

    def test_mutate_first(self):
        b = initial_seed(4).matrix
        assert fz_mutate(b, 0).entries == ((0, 2, 0), (-1, 0, 1), (0, -1, 0))

    def test_involution(self):
        b = initial_seed(5).matrix
        for k in range(4):
            assert fz_mutate(fz_mutate(b, k), k).entries == b.entries

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            fz_mutate(initial_seed(3).matrix, 2)


class TestInitialSeed:
    def test_rank_three(self):
        s = initial_seed(3)
        assert s.object == mr(3, (1, 2), (1, 1))
        assert s.matrix.entries == ((0, -2), (1, 0))

    def test_rank_four(self):
        s = initial_seed(4)
        assert s.object == mr(4, (1, 3), (1, 2), (2, 1))
        assert s.matrix.entries == INITIAL_N4

    def test_rank_two(self):
        s = initial_seed(2)
        assert s.object == mr(2, (1, 1))
        assert s.matrix.entries == ((0,),)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_rank_below_two(self, n):
        with pytest.raises(ValueError, match=f"^rank must be >= 2, got {n}$"):
            initial_seed(n)

    def test_quasi_lengths_decrease_along_order(self):
        for n in range(2, 9):
            qls = [x.b for x in initial_seed(n).object.summands]
            assert qls == list(range(n - 1, 0, -1))


class TestExchange:
    def test_swap_simple(self):
        t = mr(3, (1, 2), (1, 1))
        t2, k2 = exchange(t, t.summands.index(obj(1, 1, 3)))
        assert t2 == mr(3, (1, 2), (2, 1))
        assert t2.summands[k2] == obj(2, 1, 3)

    def test_swap_top(self):
        t = mr(3, (1, 2), (1, 1))
        t2, _ = exchange(t, t.summands.index(obj(1, 2, 3)))
        assert t2 == mr(3, (3, 2), (1, 1))

    def test_involution_on_objects(self):
        t = mr(4, (1, 3), (1, 2), (2, 1))
        for k in range(3):
            t2, k2 = exchange(t, k)
            back, _ = exchange(t2, k2)
            assert back == t

    @pytest.mark.parametrize("k", [-1, 3])
    def test_index_out_of_range(self, k):
        with pytest.raises(IndexError, match=f"^summand index {k} out of range$"):
            exchange(mr(4, (1, 3), (1, 2), (2, 1)), k)

    def test_falsified_exchange_is_a_theorem_violation(self, monkeypatch, capsys):
        # the exchanged mask is computed, not read: a non-rigid one
        # falsifies the computation, so the CLI exits 1, not 2.  The
        # graph steps by the same kernel, so the CLI fails in its build
        def doctored(adj, mask):
            return [mask & ~(1 << i) | 1 << 3 for i in rigid.bit_indices(mask)]

        monkeypatch.setattr(mutation, "exchanges", doctored)
        text = "((1,3)@4, (1,2)@4, (2,3)@4) is not rigid"
        with pytest.raises(TheoremViolationError, match=f"^{re.escape(text)}$"):
            exchange(mr(4, (1, 3), (1, 2), (1, 1)), 2)
        argv = ["mutate", "--rank", "4", "--object", "1,3;1,2;1,1", "--at", "1,1"]
        build_exchange_graph.cache_clear()
        try:
            assert main(argv) == 1
        finally:
            build_exchange_graph.cache_clear()
        text = "exchange graph at rank 4 reaches [1, 2, 3], outside the enumeration of 20"
        assert capsys.readouterr().err == f"verification failure: {text}\n"


class TestSeed:
    def test_seed_that_fails_its_check_is_a_theorem_violation(
        self, monkeypatch, capsys, clear_package_caches
    ):
        # the seed's mask is computed, not read: a defect falsifies the
        # table, so verify fails a check and exits 1, not 2 as for bad input
        seed = initial_seed(5).object.mask
        real = rigid.RigidTable.defect
        monkeypatch.setattr(
            rigid.RigidTable, "defect", lambda t, m: "is doctored" if m == seed else real(t, m)
        )
        clear_package_caches()
        try:
            assert main(["verify", "--rank", "5", "--suite", "mutation"]) == 1
        finally:
            clear_package_caches()
        text = "((1,4)@5, (1,3)@5, (2,2)@5, (2,1)@5) is doctored"
        assert f"FAIL mutation/path-independence: {text}\n" in capsys.readouterr().out
        with pytest.raises(TheoremViolationError, match=f"^{re.escape(text)}$"):
            initial_seed(5)

    def test_rank_that_is_not_an_int(self):
        with pytest.raises(ValueError, match=r"^rank must be an int, got 3\.0$"):
            initial_seed(3.0)

    def test_order_must_be_the_summand_list(self):
        s = initial_seed(3)
        swapped = ExchangeMatrix(s.matrix.order[::-1], s.matrix.entries)
        with pytest.raises(StructuralError, match="^matrix order differs from the summand list$"):
            mutation.Seed(s.object, swapped)


class TestExchangeMatrix:
    """The constructor is the one home of the shape and zero-diagonal
    checks; no graph node can carry a matrix that fails them."""

    ORDER = (obj(1, 2, 3), obj(1, 1, 3))

    def test_nonzero_diagonal(self):
        with pytest.raises(StructuralError, match="diagonal"):
            ExchangeMatrix(self.ORDER, ((1, 1), (-1, 0)))

    @pytest.mark.parametrize(
        "entries", [((0, 1),), ((0, 1), (-1, 0), (0, 0)), ((0, 1), (-1,))]
    )
    def test_mismatched_shape(self, entries):
        with pytest.raises(StructuralError, match="order"):
            ExchangeMatrix(self.ORDER, entries)


class TestExchangeGraph:
    @pytest.mark.parametrize("n,nodes,edges", [(2, 2, 1), (3, 6, 6), (4, 20, 30)])
    def test_shape(self, n, nodes, edges):
        g = build_exchange_graph(n)
        assert len(g.nodes) == nodes
        assert len(g.edges) == 2 * edges
        assert len(undirected(g)) == edges

    def test_rank_three_is_a_hexagon(self):
        g = build_exchange_graph(3)
        und = undirected(g)
        degrees = {i: sum(1 for e in und if i in e) for i in range(len(g.nodes))}
        assert all(d == 2 for d in degrees.values())
        # connected 2-regular with 6 nodes is a single 6-cycle
        assert len(und) == 6

    def test_one_mutation_step(self):
        g = build_exchange_graph(3)
        mat = g.b_matrix(mr(3, (1, 2), (2, 1)))
        assert mat.order == (obj(1, 2, 3), obj(2, 1, 3))
        assert mat.entries == ((0, 2), (-1, 0))

    def test_unknown_node(self):
        g = build_exchange_graph(3)
        with pytest.raises(StructuralError, match="^unknown node "):
            g.b_matrix(mr(4, (1, 3), (1, 2), (2, 1)))

    def test_matrix_entries_bounded(self):
        for n in (2, 3, 4, 5):
            g = build_exchange_graph(n)
            for rows in g.rows:
                assert all(len(row) == n - 1 for row in rows) and len(rows) == n - 1
                assert all(abs(v) <= 2 for row in rows for v in row)
                assert is_sign_skew_symmetric(rows)

    def test_nodes_must_equal_the_enumeration(self, monkeypatch):
        # the enumeration counts n nodes per representative: one listed
        # twice is five nodes more than the walk reaches
        real = mutation.maximal_rigid_reps
        monkeypatch.setattr(mutation, "maximal_rigid_reps", lambda n: real(n) + real(n)[-1:])
        with pytest.raises(TheoremViolationError, match="reaches 70 objects.* 75$"):
            mutation.ExchangeGraph(5)

    def test_seed_matrix_matches_involution(self):
        g = build_exchange_graph(4)
        t = initial_seed(4).object
        for k in range(3):
            t2, k2 = exchange(t, k)
            back, _ = exchange(t2, k2)
            assert back == t
            assert g.b_matrix(back).entries == g.b_matrix(t).entries

    @pytest.mark.parametrize("n", range(2, 8))
    def test_one_exchanges_call_per_node(self, n, monkeypatch):
        # only tau-orbit representatives are exchanged: one per orbit of
        # n nodes, each with its top at bit 0
        calls, real = [], rigid.exchanges

        def counted(adj, mask):
            calls.append(mask)
            return real(adj, mask)

        monkeypatch.setattr(mutation, "exchanges", counted)
        g = mutation.ExchangeGraph(n)
        assert len(calls) == len(set(calls)) == len(g.nodes) // n
        assert all(mask & 1 for mask in calls)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_every_mutation_step_is_checked(self, n, monkeypatch):
        # a wrong comparison step fails at once; a wrong discovery matrix
        # spreads, by bijections, over one side of a cut, and each node has
        # n-1 >= 2 edges, so some edge across the cut is compared
        real = mutation.RowTable.mutate
        for bad in range(quotient_steps(build_exchange_graph(n))):
            calls = []

            def tampered(table, ids, k, p, w):
                ids2 = real(table, ids, k, p, w)
                calls.append(None)
                if len(calls) - 1 != bad:
                    return ids2
                return ids2[:-1] + (doctored_row(table, ids2[-1]),)

            monkeypatch.setattr(mutation.RowTable, "mutate", tampered)
            with pytest.raises(TheoremViolationError, match="^path-independence failure at "):
                mutation.ExchangeGraph(n)
            assert bad < len(calls)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_memo_entry_is_checked(self, n, monkeypatch):
        # a memo entry is stored by the step that first needs it, which is
        # checked as every step is; later steps read the same wrong entry
        real, stored = mutation._RowMemo.__missing__, []

        def counted(memo, i):
            stored.append(None)
            return real(memo, i)

        monkeypatch.setattr(mutation._RowMemo, "__missing__", counted)
        mutation.ExchangeGraph(n)
        for bad in range(len(stored)):
            calls = []

            def tampered(memo, i):
                new = real(memo, i)
                calls.append(None)
                if len(calls) - 1 == bad:
                    new = memo[i] = doctored_row(memo.table, new)
                return new

            monkeypatch.setattr(mutation._RowMemo, "__missing__", tampered)
            with pytest.raises(TheoremViolationError, match="^path-independence failure at "):
                mutation.ExchangeGraph(n)
            assert bad < len(calls)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_one_mutation_per_undirected_edge(self, n, monkeypatch):
        calls = []
        real = mutation.RowTable.mutate

        def counted(table, ids, k, p, w):
            calls.append(None)
            return real(table, ids, k, p, w)

        monkeypatch.setattr(mutation.RowTable, "mutate", counted)
        g = mutation.ExchangeGraph(n)
        assert len(calls) == quotient_steps(g)
        assert len(undirected(g)) == len(g.nodes) * (n - 1) // 2
        if n == 8:
            assert (len(calls), len(undirected(g))) == (1504, 12012)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_directed_edge_mutates_to_its_target(self, n):
        # the BFS mutates one direction of each edge; the other holds too
        g = build_exchange_graph(n)
        nodes, rows = node_objects(g), g.rows
        for i, k, j in triples(g):
            t2, p = exchange(nodes[i], k)
            assert t2 == nodes[j]
            assert mutation._mutate_rows(rows[i], k, p) == rows[j], (i, k, j)

    def test_rank_eight_rows_are_shared(self):
        # each distinct row is one tuple, the seed's rows included
        rows = [r for b in build_exchange_graph(8).rows for r in b]
        assert len(rows) == 3432 * 7
        assert len({id(r) for r in rows}) == len(set(rows)) == 234
        # so is each distinct matrix
        matrices = build_exchange_graph(8).rows
        assert len({id(b) for b in matrices}) == len(set(matrices)) == 1716

    @pytest.mark.parametrize("n", range(2, 9))
    def test_nodes_in_enumeration_order(self, n):
        # the CLI numbers the nodes by this order
        g = build_exchange_graph(n)
        assert node_objects(g) == list(enumerate_maximal_rigid(n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_are_the_node_matrices_in_mask_order(self, n):
        g = build_exchange_graph(n)
        assert len(g.rows) == len(g.nodes)
        matrices = [g.b_matrix(t) for t in enumerate_maximal_rigid(n)]
        assert [mat.entries for mat in matrices] == list(g.rows)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_masks_are_the_enumeration_masks(self, n):
        g, table = build_exchange_graph(n), rigid.rigid_table(n)
        assert type(g.nodes) is tuple and all(type(m) is int for m in g.nodes)
        assert g.nodes == rigid.maximal_rigid_masks(n)
        masks = [table.mask_of(t.summands) for t in enumerate_maximal_rigid(n)]
        assert masks == list(g.nodes)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cold_graph_builds_only_the_seed(self, n, monkeypatch):
        # the object enumeration is not even imported; the seed's object
        # is checked once, from its mask
        assert not hasattr(mutation, "enumerate_maximal_rigid")
        built = []
        for cls in (rigid.MaximalRigid, ExchangeMatrix):

            def counted(self, real=cls.__post_init__):
                built.append(type(self).__name__)
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        real = rigid.RigidTable.defect
        monkeypatch.setattr(
            rigid.RigidTable, "defect", lambda t, m: built.append("defect") or real(t, m)
        )
        g = mutation.ExchangeGraph(n)
        assert built == ["defect", "ExchangeMatrix"]
        t = MaximalRigid(n, rigid.rigid_table(n).objects_of(g.nodes[-1]))
        built.clear()
        assert g.b_matrix(t).order == t.summands
        assert built == ["ExchangeMatrix"]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_mask_of_call_for_the_seed(self, n, monkeypatch):
        # the seed's own construction; the graph reads the mask it kept
        summands = mutation.initial_seed(n).object.summands
        enumerate_maximal_rigid(n)
        calls = []
        real = rigid.RigidTable.mask_of

        def counted(table, objs):
            calls.append(tuple(objs))
            return real(table, calls[-1])

        monkeypatch.setattr(rigid.RigidTable, "mask_of", counted)
        mutation.ExchangeGraph(n)
        assert calls == [summands]


class TestBMatrix:
    """``b_matrix`` is the one lookup from an object to its matrix; it
    reads one node's rows, found by the node's mask."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_round_trip(self, n):
        g, table = build_exchange_graph(n), rigid.rigid_table(n)
        for i, mask in enumerate(g.nodes):
            summands = table.objects_of(mask)
            mat = g.b_matrix(MaximalRigid(n, summands))
            assert mat.order == summands
            assert mat.entries == g.rows[i]

    def test_foreign_keys_are_unknown_nodes(self):
        g = build_exchange_graph(3)
        for key in (mr(4, (1, 3), (1, 2), (2, 1)), initial_seed(3).matrix, "x", None, []):
            with pytest.raises(StructuralError, match="^unknown node "):
                g.b_matrix(key)


class TestRowsOnDemand:
    """The graph stores each tau-orbit's rows once; a node's rows are
    turned from its representative's only when something reads them."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_b_matrix_reads_one_node(self, n):
        g = mutation.ExchangeGraph(n)
        objects = enumerate_maximal_rigid(n)
        entries = [g.b_matrix(t).entries for t in objects]
        assert "rows" not in vars(g)
        assert all(b is rows for b, rows in zip(entries, g.rows))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_polygon_suite_leaves_rows_unread(self, n):
        # it compares the two graphs' nodes and edges only
        build_exchange_graph.cache_clear()
        assert all(c.ok for c in verify.suite_polygon(n))
        assert "rows" not in vars(build_exchange_graph(n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_no_build_reads_an_expanded_array(self, n):
        # the graphs, the polygon suite and b_matrix read the quotient only
        views = {"nodes", "edges", "order", "rows"}
        g = mutation.ExchangeGraph(n)
        for t in enumerate_maximal_rigid(n):
            g.b_matrix(t)
        assert not views & vars(g).keys()
        assert not views & vars(polygon.FlipGraph(n)).keys()
        build_exchange_graph.cache_clear()
        polygon.flip_graph.cache_clear()
        assert all(c.ok for c in verify.suite_polygon(n))
        assert not views & vars(build_exchange_graph(n)).keys()
        assert not views & vars(polygon.flip_graph(n)).keys()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cold_graph_sorts_no_nodes(self, n, clear_package_caches):
        # bmatrix and mutate read the quotient only, so the sorted node
        # tuple is built on the first read of nodes, and is the rank's one
        clear_package_caches()
        g = build_exchange_graph(n)
        g.b_matrix(initial_seed(n).object)
        assert rigid.maximal_rigid_masks.cache_info().currsize == 0
        assert g.nodes is rigid.maximal_rigid_masks(n)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_first_read_of_the_flip_graph_nodes(self, n):
        polygon.flip_graph.cache_clear()
        g = polygon.flip_graph(n)
        assert "nodes" not in vars(g)
        assert g.nodes == rigid.maximal_rigid_masks(n)

    def test_holds_no_rows_per_node(self):
        # calibrated on the row ids kept per orbit, which leave 0.47 MiB
        # retained in a fresh process (CPython 3.11); a tuple of shared rows
        # per orbit retains 0.81 MiB, and a graph that keeps every node's
        # rows and a {mask: number} dict for b_matrix 2.56 MiB
        n = 9
        rigid.rigid_table(n), rigid.maximal_rigid_masks(n)
        gc.collect()
        tracemalloc.start()
        try:
            g = mutation.ExchangeGraph(n)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(g.nodes) == 12870
        assert retained < 1.25 * 0.47 * 2**20

    def test_walk_keeps_no_step_list(self):
        # calibrated on the walk over an array of step indices, with the
        # memos freed after it, which peaks at 6.5 MiB in a fresh process
        # (CPython 3.11); a list of (o, k, o2, j2) steps and a tuple of
        # shared rows per orbit peak at 13.9 MiB
        n = 11
        rigid.rigid_table(n), rigid.maximal_rigid_reps(n)
        gc.collect()
        tracemalloc.start()
        try:
            g = mutation.ExchangeGraph(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.rep_ids) * n == 184756
        assert peak < 9 * 2**20


class TestNumberedEdges:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_edge_is_an_exchange(self, n):
        g = build_exchange_graph(n)
        nodes = node_objects(g)
        assert all(type(v) is int for v in g.edges)
        assert len(g.edges) == len(nodes) * (n - 1)
        for i, k, j in triples(g):
            assert exchange(nodes[i], k)[0] == nodes[j], (i, k, j)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_order_is_the_pop_order(self, n):
        # a BFS from the seed: each node is popped once, and after the
        # first every node has a neighbour popped before it
        g = build_exchange_graph(n)
        seed = rigid.rigid_table(n).mask_of(initial_seed(n).object.summands)
        assert sorted(g.order) == list(range(len(g.nodes)))
        assert g.nodes[g.order[0]] == seed
        popped = {i: pos for pos, i in enumerate(g.order)}
        d = n - 1
        for pos, i in enumerate(g.order[1:], 1):
            assert min(popped[j] for j in g.edges[i * d : i * d + d]) < pos


def voltages_scaled(by):
    """The quotient with every voltage multiplied by ``by``: the same
    orbits, joined as before, but the voltages generate only the
    subgroup gcd(by, n)·Z_n."""

    def edit(n, blocks, start):
        return array("l", [x // n * n + x % n * by % n for x in blocks])

    return edit


def seed_orbit_closed(n, blocks, start):
    """The quotient with the seed's orbit joined only to itself, by
    voltages 1 and -1 in turn: the seed reaches its own orbit, all n
    nodes of it, and nothing else."""
    d, blocks = n - 1, array("l", blocks)
    loops = [start * n + (1, n - 1)[k % 2] for k in range(d)]
    blocks[start * d : start * d + d] = array("l", loops)
    return blocks


class TestConnectivity:
    """The walk certifies connectivity on the quotient: every orbit
    reached, and voltages that generate Z_n.  A BFS over the nodes of the
    doctored quotient's cover is the reference for the count."""

    @pytest.mark.parametrize(
        "n,edit,reached",
        [
            pytest.param(n, edit, reached, id=f"{n}-{reached}")
            for n, edit, reached in [
                (4, voltages_scaled(2), 10),
                (6, voltages_scaled(3), 84),
                (6, voltages_scaled(2), 126),
                (3, seed_orbit_closed, 3),
                (5, seed_orbit_closed, 5),
            ]
        ],
    )
    def test_unreached_node_is_a_theorem_violation(self, n, edit, reached, monkeypatch):
        real, doctored = mutation.orbit_graph, []

        def edited(*args):
            reps, blocks = real(*args)
            # the seed is its orbit's representative
            start = reps[rigid.rigid_table(n).mask_of(initial_seed(n).object.summands)]
            doctored.append((edit(n, blocks, start), start))
            return reps, doctored[-1][0]

        monkeypatch.setattr(mutation, "orbit_graph", edited)
        with pytest.raises(
            TheoremViolationError,
            match=f"^exchange graph at rank {n} reaches {reached} objects, "
            f"the enumeration has {len(rigid.maximal_rigid_masks(n))}$",
        ):
            mutation.ExchangeGraph(n)
        blocks, start = doctored[0]
        assert cover_reach(blocks, n, start) == reached


def cycle(n, length, step, loop=0, offset=0):
    """A synthetic quotient on orbits ``offset .. offset+length-1``, in a
    cycle: each orbit is joined to the next by voltage ``step`` and to the
    one before by ``-step``, and to itself by ``loop`` and ``-loop``, each
    edge with its reverse, and its other n-5 edges are loops of voltage 0."""
    out = []
    for o in range(offset, offset + length):
        after, before = offset + (o - offset + 1) % length, offset + (o - offset - 1) % length
        block = [after * n + step % n, before * n + -step % n, o * n + loop % n, o * n + -loop % n]
        out += block + [o * n] * (n - 1 - len(block))
    return array("l", out)


class TestVoltageCertificate:
    """``cover_walk`` on synthetic quotients at rank 6 (five edges per
    orbit): the nodes it says the seed reaches are the ones a BFS over the
    cover reaches."""

    @pytest.mark.parametrize(
        "blocks,reached",
        [
            (cycle(6, 4, 2), 12),  # the cycle's voltage sum 8 generates 2·Z_6
            (cycle(6, 3, 2), 3),  # the sum 6 generates only 0
            (cycle(6, 4, 2, loop=3), 24),  # 2 and 3 generate Z_6
            (cycle(6, 5, 1), 30),
            (cycle(6, 5, 1) + cycle(6, 3, 1, offset=5), 30),  # not connected
            (cycle(6, 4, 2) + cycle(6, 5, 1, offset=4), 12),  # neither
        ],
        ids=["subgroup", "trivial", "loops", "full", "disconnected", "both"],
    )
    def test_reach_equals_the_bfs_of_the_cover(self, blocks, reached):
        steps, count = rigid.cover_walk(blocks, 6, 0)
        assert count == cover_reach(blocks, 6, 0) == reached

    @pytest.mark.parametrize("n", range(2, 9))
    def test_steps_take_each_quotient_edge_once(self, n):
        # each edge between two orbits from the end the BFS pops first,
        # and every loop at both ends: the steps the graph mutates
        g = build_exchange_graph(n)
        ((start, _),) = g.locate([g.nodes[g.order[0]]])
        steps, reached = rigid.cover_walk(g.blocks, n, start)
        assert reached == len(g.nodes)
        assert type(steps) is array and len(set(steps)) == len(steps) == quotient_steps(g)
        # each step's target, exchanged from its representative, is
        # tau^-j2 of orbit o2's, as blocks[step] says
        table, reps, d = rigid.rigid_table(n), rigid.maximal_rigid_reps(n), n - 1
        size = len(table.objects)
        for step in steps:
            o, k = divmod(step, d)
            mask2 = swap(table.compat, reps[o], rigid.bit_indices(reps[o])[k])
            ((o2, _),) = g.locate([mask2])
            j2 = next(j for j in range(n) if rigid.rotate(reps[o2], j * d, size) == mask2)
            assert g.blocks[step] == o2 * n + j2, step


class TestTauQuotient:
    """The search mutates on tau-orbit representatives and expands the
    orbits by rotation; the full BFS is the reference."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_the_full_bfs(self, n):
        g = mutation.ExchangeGraph(n)
        rows, edges, order = full_bfs(n)
        assert g.rows == rows
        assert list(g.edges) == edges
        assert list(g.order) == order

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_are_tau_equivariant(self, n):
        # tau^j moves the summand at position p of a node to position
        # perm[p] of its image, so entry (p, q) moves to (perm[p], perm[q])
        g, table = build_exchange_graph(n), rigid.rigid_table(n)
        size, d = len(table.objects), n - 1
        number = {mask: i for i, mask in enumerate(g.nodes)}
        for i, mask in enumerate(g.nodes):
            bits = rigid.bit_indices(mask)
            for j in range(1, n):
                image = rigid.rotate(mask, j * d, size)
                at = {v: p for p, v in enumerate(rigid.bit_indices(image))}
                perm = [at[(v + j * d) % size] for v in bits]
                b, b2 = g.rows[i], g.rows[number[image]]
                assert all(
                    b2[perm[p]][perm[q]] == b[p][q] for p in range(d) for q in range(d)
                ), (mask, j)

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_loop_edges_are_compared(self, n, monkeypatch):
        # a step from a representative into its own orbit only compares,
        # and a wrong result at any one of them must fail at once; such
        # steps occur at even ranks only (1, 1, 2 and 5 of them at n = 2,
        # 4, 6, 8)
        count = {2: 1, 4: 1, 6: 2, 8: 5}[n]
        table = rigid.rigid_table(n)
        masks = [m for m in rigid.maximal_rigid_masks(n) if m & 1]  # by orbit
        real_walk, real = mutation.cover_walk, mutation.RowTable.mutate
        steps, calls, loops, bad = [], [], [], [None]

        def spied(*args):
            # the walk's steps, which the mutations follow one by one
            out = real_walk(*args)
            steps[:] = out[0]
            calls.clear()
            return out

        def tampered(rows, ids, k, p, w):
            ids2, r = real(rows, ids, k, p, w), masks[steps[len(calls)] // (n - 1)]
            calls.append(None)
            if representative(table, swap(table.compat, r, rigid.bit_indices(r)[k])) != r:
                return ids2
            loops.append(None)
            if len(loops) - 1 != bad[0]:
                return ids2
            return ids2[:-1] + (doctored_row(rows, ids2[-1]),)

        monkeypatch.setattr(mutation, "cover_walk", spied)
        monkeypatch.setattr(mutation.RowTable, "mutate", tampered)
        mutation.ExchangeGraph(n)
        assert len(loops) == count
        for step in range(count):
            loops.clear()
            bad[0] = step
            with pytest.raises(TheoremViolationError, match="^path-independence failure at "):
                mutation.ExchangeGraph(n)
            assert len(loops) == step + 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sampled_edges_mutate_to_their_targets_at_rank_ten(self, rank_ten, data):
        # a second route beyond the exhaustive ranks: a directed edge of
        # the expanded graph, mutated directly, gives its target's rows
        g, table = rank_ten
        i = data.draw(st.integers(0, len(g.nodes) - 1), label="node")
        k = data.draw(st.integers(0, 8), label="summand")
        j = g.edges[i * 9 + k]
        mask, mask2 = g.nodes[i], g.nodes[j]
        assert swap(table.compat, mask, rigid.bit_indices(mask)[k]) == mask2
        new = (mask2 & ~mask).bit_length() - 1
        p = (mask2 & ((1 << new) - 1)).bit_count()
        assert mutation._mutate_rows(g.rows[i], k, p) == g.rows[j]


@pytest.fixture(scope="module")
def rank_ten():
    # built outside the graph cache, so it is freed with this module
    return mutation.ExchangeGraph(10), rigid.rigid_table(10)


def mutate_then_move(b, k, p):
    """Reference for the folded step: mutate at ``k`` in place, then move
    row and column ``k`` to position ``p``."""
    bk = b[k]
    mutated = []
    for i, row in enumerate(b):
        c = row[k]
        if i == k:
            mutated.append(tuple(-v for v in row))
        else:
            changed = [v + (abs(c) * w + c * abs(w)) // 2 for v, w in zip(row, bk)]
            changed[k] = -c
            mutated.append(tuple(changed))

    def move(seq):
        rest = seq[:k] + seq[k + 1 :]
        return rest[:p] + seq[k : k + 1] + rest[p:]

    return move(tuple(move(row) for row in mutated))


@st.composite
def sign_skew_symmetric(draw):
    """Square matrices of size 1..12 with sign(b_ij) = -sign(b_ji), a
    zero diagonal and entries up to 4 in size."""
    size = draw(st.integers(1, 12))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            sign = draw(st.sampled_from([-1, 0, 0, 1]))
            if sign:
                rows[i][j] = sign * draw(st.integers(1, 4))
                rows[j][i] = -sign * draw(st.integers(1, 4))
    return tuple(tuple(r) for r in rows)


class TestFoldedMutation:
    @settings(max_examples=150, deadline=None)
    @given(sign_skew_symmetric())
    def test_involution(self, b):
        # the exchange-graph BFS mutates each undirected edge once on this
        for k in range(len(b)):
            for p in range(len(b)):
                assert mutation._mutate_rows(mutation._mutate_rows(b, k, p), p, k) == b

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_mutate_then_move(self, n):
        for b in build_exchange_graph(n).rows:
            for k in range(n - 1):
                for p in range(n - 1):
                    assert mutation._mutate_rows(b, k, p) == mutate_then_move(b, k, p)

    @settings(max_examples=150, deadline=None)
    @given(sign_skew_symmetric())
    def test_matches_mutate_then_move_on_random_matrices(self, b):
        assert is_sign_skew_symmetric(b)
        for k in range(len(b)):
            for p in range(len(b)):
                assert mutation._mutate_rows(b, k, p) == mutate_then_move(b, k, p)

    @settings(max_examples=100, deadline=None)
    @given(sign_skew_symmetric())
    def test_turn_is_folded_in(self, b):
        # the BFS turns each mutated matrix by its target's turn in the
        # same permutation
        for k in range(len(b)):
            for p in range(len(b)):
                for w in range(len(b)):
                    moved = mutation._turn(mutate_then_move(b, k, p), w)
                    assert mutation._mutate_rows(b, k, p, w) == moved

    def test_size_one(self):
        # rank 2: one summand, a 1x1 matrix
        assert mutation._mutate_rows(((0,),), 0, 0) == ((0,),)
        b = ((3,),)
        assert mutation._mutate_rows(b, 0, 0) == ((-3,),) == mutate_then_move(b, 0, 0)
        seed = initial_seed(2).matrix
        assert seed.entries == ((0,),)
        assert fz_mutate(seed, 0) == seed


@st.composite
def skew_symmetrizable(draw):
    """Square matrices of size 1..12 of the form S·D, S skew-symmetric
    with entries up to 3 in size and D a positive diagonal up to 3: D·B
    is skew-symmetric, so B is sign-skew-symmetric with a zero diagonal."""
    size = draw(st.integers(1, 12))
    d = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = draw(st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 3]))
            rows[i][j], rows[j][i] = v * d[j], -v * d[i]
    return tuple(tuple(r) for r in rows)


def memo_key(ids, k, p, w):
    """The key of the memo record ``RowTable.mutate(ids, k, p, w)`` reads:
    the id of row k, ``k``, ``p`` and ``w``, packed in base ``len(ids)``."""
    size = len(ids)
    return ((ids[k] * size + k) * size + p) * size + w


def memo_entries(table):
    """The row mutations ``table``'s memo records have stored: each
    record's first item reads its ``_RowMemo``."""
    return sum(len(record[0].__self__) for key, record in table.memos.items() if key >= 0)


def kernel_agrees(table, b):
    """``RowTable.mutate`` on ``b``'s row ids, decoded, against
    ``_mutate_rows`` at every k, p and w."""
    ids = tuple(map(table.intern, b))
    size = len(b)
    for k in range(size):
        for p in range(size):
            for w in range(size):
                got = table.decode(table.mutate(ids, k, p, w))
                assert got == mutation._mutate_rows(b, k, p, w), (k, p, w)


class TestRowKernel:
    """The exchange walk mutates matrices of row ids through memos; the
    reference is ``_mutate_rows`` on the rows themselves."""

    @settings(max_examples=60, deadline=None)
    @given(skew_symmetrizable())
    def test_equals_mutate_rows(self, b):
        assert is_sign_skew_symmetric(b)
        table = mutation.RowTable()
        kernel_agrees(table, b)  # cold: each (row k, k, p, w) is new
        misses = memo_entries(table)
        kernel_agrees(table, b)  # warm: every row is a hit
        assert memo_entries(table) == misses

    @settings(max_examples=60, deadline=None)
    @given(skew_symmetrizable(), st.data())
    def test_other_row_k_shares_the_step_getters(self, b, data):
        # the getters depend on (k, p, w) only: two matrices whose row k
        # differs get two memo records and one set of getters
        size = len(b)
        k, p, w = (data.draw(st.integers(0, size - 1)) for _ in range(3))
        assume(any(b[k]))
        b2 = mutation._mutate_rows(b, k, k)  # row k negated
        table = mutation.RowTable()
        records = []
        for m in (b, b2):
            ids = tuple(map(table.intern, m))
            assert table.decode(table.mutate(ids, k, p, w)) == mutation._mutate_rows(m, k, p, w)
            records.append(table.memos[memo_key(ids, k, p, w)])
        first, second = records
        assert first[0].__self__ is not second[0].__self__
        assert first[0].__self__.move is second[0].__self__.move and first[1] is second[1]
        assert [key for key in table.memos if key < 0] == [~((k * size + p) * size + w)]

    @settings(max_examples=60, deadline=None)
    @given(skew_symmetrizable())
    def test_a_warm_memo_serves_a_mutated_matrix(self, b):
        # the walk's memos fill from one matrix and serve its neighbours
        table = mutation.RowTable()
        kernel_agrees(table, b)
        kernel_agrees(table, mutation._mutate_rows(b, 0, len(b) - 1))

    @pytest.mark.parametrize("k", (0, 2))
    def test_a_row_equal_to_row_k(self, k):
        # rows 0 and 2 are one id; at k = 0 row 2 only moves, and row 0
        # takes row k's slot, and the other way round at k = 2
        b = ((0, 1, 0), (-1, 0, -1), (0, 1, 0))
        table = mutation.RowTable()
        assert len(set(map(table.intern, b))) == 2
        for _ in range(2):  # cold, then warm
            for p in range(3):
                for w in range(3):
                    got = table.decode(table.mutate(tuple(map(table.intern, b)), k, p, w))
                    assert got == mutation._mutate_rows(b, k, p, w), (p, w)
        assert mutation._mutate_rows(b, k, k)[2 - k] == b[2 - k]


class TestCartan:
    def test_rank_four(self):
        assert cartan_counterpart(initial_seed(4).matrix) == (
            (2, -2, 0),
            (-1, 2, -1),
            (0, -1, 2),
        )

    def test_rank_three(self):
        assert cartan_counterpart(initial_seed(3).matrix) == ((2, -2), (-1, 2))

    def test_one_by_one(self):
        assert cartan_counterpart(ExchangeMatrix((obj(1, 1, 2),), ((0,),))) == ((2,),)


class TestSignSkewSymmetry:
    def test_initial_matrices(self):
        for n in range(2, 9):
            assert is_sign_skew_symmetric(initial_seed(n).matrix)

    def test_counterexamples(self):
        assert not is_sign_skew_symmetric([[0, 1], [1, 0]])
        assert is_sign_skew_symmetric([[0, 0], [0, 0]])


class TestVerifyFailures:
    """The ``mutation`` suite is the one home of the matrix invariants, so
    its failure paths are exercised on a doctored copy of the graph."""

    @staticmethod
    def doctored(monkeypatch, entries):
        """Make the suite see the rank-5 graph with the stored matrix of
        one orbit, the first whose representative is not the seed,
        replaced by ``entries``, as row ids into a copy of the row table;
        the cached graph is left untouched.  ``matrix-invariants`` reads
        ``rep_ids`` and ``row_table`` and builds no matrix, so the rows may
        be ones ``ExchangeMatrix`` would reject.  Returns the orbit's
        representative, the first node with that matrix."""
        graph = build_exchange_graph(5)
        table = rigid.rigid_table(5)
        seed = table.mask_of(initial_seed(5).object.summands)
        mask, o = next((mask, o) for mask, o in graph.reps.items() if mask != seed)
        fake = copy.copy(graph)
        fake.row_table = mutation.RowTable()
        for row in graph.row_table.rows:
            fake.row_table.intern(row)
        fake.rep_ids = list(graph.rep_ids)
        fake.rep_ids[o] = tuple(map(fake.row_table.intern, entries))
        monkeypatch.setattr(verify_mutation, "build_exchange_graph", lambda n: fake)
        return MaximalRigid(5, table.objects_of(mask))

    def expect_failure(self, capsys, check, detail=""):
        report = verify.run_suite("mutation", 5)
        assert [c.name for c in report.checks if not c.ok] == [check]
        assert main(["verify", "--rank", "5", "--suite", "mutation"]) == 1
        assert f"FAIL mutation/{check}{detail}" in capsys.readouterr().out

    def test_entry_out_of_bound(self, monkeypatch, capsys):
        zero = (0, 0, 0, 0)
        t = self.doctored(monkeypatch, ((0, 3, 0, 0), (-1, 0, 0, 0), zero, zero))
        self.expect_failure(capsys, "matrix-invariants", f": at {t}\n")

    def test_sign_skew_broken(self, monkeypatch, capsys):
        zero = (0, 0, 0, 0)
        t = self.doctored(monkeypatch, ((0, 1, 0, 0), (1, 0, 0, 0), zero, zero))
        self.expect_failure(capsys, "matrix-invariants", f": at {t}\n")

    def test_nonzero_diagonal(self, monkeypatch, capsys):
        # no ExchangeMatrix rejects it any more: sign-skew symmetry does
        zero = (0, 0, 0, 0)
        t = self.doctored(monkeypatch, ((1, 0, 0, 0), zero, zero, zero))
        self.expect_failure(capsys, "matrix-invariants", f": at {t}\n")

    def test_build_failure_is_path_independence(self, monkeypatch, capsys):
        def broken(n):
            raise TheoremViolationError("path-independence failure at somewhere")

        monkeypatch.setattr(verify_mutation, "build_exchange_graph", broken)
        report = verify.run_suite("mutation", 5)
        assert [(c.name, c.ok, c.detail) for c in report.checks] == [
            ("path-independence", False, "path-independence failure at somewhere")
        ]
        assert main(["verify", "--rank", "5", "--suite", "mutation"]) == 1
        assert (
            "FAIL mutation/path-independence: path-independence failure at somewhere"
            in capsys.readouterr().out
        )

    # edits of the rank-5 blocks, 4 entries per orbit, entry o2*5 + j for
    # tau^j of orbit o2; orbit 0's first entry, in block o2, has its
    # reverse, entry -j mod 5, at position back(blocks)
    @staticmethod
    def back(blocks):
        o2, j = divmod(blocks[0], 5)
        return blocks[4 * o2 : 4 * o2 + 4].index(-j % 5)

    @staticmethod
    def retarget(blocks):
        # onto a node that is not a neighbour yet, so only the reverse fails
        blocks[0] = next(c for c in range(1, 70) if c not in blocks[:4])

    @staticmethod
    def drop(blocks):
        # both directions of one edge, so two blocks are truncated
        j = blocks[0] // 5
        del blocks[4 * j + TestVerifyFailures.back(blocks)]
        del blocks[0]

    @staticmethod
    def drop_one_direction(blocks):
        del blocks[0]

    @staticmethod
    def duplicate(blocks):
        # orbit 0 and its first neighbour's orbit drop their edge and each
        # list another neighbour twice, so every neighbour still lists its
        # node back
        j, back = blocks[0] // 5, TestVerifyFailures.back(blocks)
        blocks[4 * j + back] = blocks[4 * j + (back + 1) % 4]
        blocks[0] = blocks[1]

    @staticmethod
    def self_loop(blocks):
        # both ends of one edge loop onto themselves, so every neighbour
        # still lists its node back
        j = blocks[0] // 5
        blocks[4 * j + TestVerifyFailures.back(blocks)] = 5 * j
        blocks[0] = 0

    @staticmethod
    def out_of_range(blocks):
        blocks[0] = 70

    @staticmethod
    def voltage(blocks):
        # the same orbit, tau of the same node: its reverse is missing
        o2, j = divmod(blocks[0], 5)
        blocks[0] = 5 * o2 + (j + 1) % 5

    @pytest.mark.parametrize(
        "edit",
        [
            "retarget",
            "drop",
            "drop_one_direction",
            "duplicate",
            "self_loop",
            "out_of_range",
            "voltage",
        ],
    )
    def test_doctored_edges_fail_graph_shape(self, monkeypatch, capsys, edit):
        fake = copy.copy(build_exchange_graph(5))
        fake.blocks = copy.copy(fake.blocks)
        getattr(self, edit)(fake.blocks)
        monkeypatch.setattr(verify_mutation, "build_exchange_graph", lambda n: fake)
        self.expect_failure(capsys, "graph-shape")

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 55), st.integers(0, 69)), max_size=2),
        st.lists(st.permutations(range(4)), min_size=14, max_size=14),
    )
    def test_graph_shape_equals_the_node_by_node_check(self, edits, orders):
        # the quotient's one pass against every node's block in the
        # expanded graph, on the rank-5 blocks with each block reordered
        # and up to two entries rewritten
        graph = build_exchange_graph(5)
        fake = copy.copy(graph)
        fake.__dict__.pop("edges", None)
        fake.blocks = array(
            "l", [graph.blocks[4 * o + k] for o, order in enumerate(orders) for k in order]
        )
        for at, value in edits:
            fake.blocks[at] = value
        edges = fake.edges
        blocks = [edges[i * 4 : i * 4 + 4] for i in range(len(fake.nodes))]
        want = all(
            len(set(block)) == 4 and i not in block and all(i in blocks[j] for j in block)
            for i, block in enumerate(blocks)
        )
        assert verify_mutation._symmetric(fake.blocks, 5) is want

    def test_unique_exchange_counts_enumerated_clusters(self, monkeypatch, capsys):
        # a representative dropped: its orbit's almost complete objects
        # are left with one cluster each
        real = verify_mutation.maximal_rigid_reps
        monkeypatch.setattr(verify_mutation, "maximal_rigid_reps", lambda n: real(n)[1:])
        self.expect_failure(capsys, "unique-exchange")

    def test_unique_exchange_counts_a_duplicated_cluster(self, monkeypatch, capsys):
        # a representative listed twice: the almost complete objects that
        # keep its top are met in three clusters
        real = verify_mutation.maximal_rigid_reps
        monkeypatch.setattr(verify_mutation, "maximal_rigid_reps", lambda n: real(n)[:1] + real(n))
        self.expect_failure(capsys, "unique-exchange", ": completions of ")
        r = real(5)[0]
        text = f"{rigid.rigid_table(5).objects_of(r ^ 1 << rigid.bit_indices(r)[1])}: 3"
        report = verify.run_suite("mutation", 5)
        assert report.checks[-1].detail == f"completions of {text}"
