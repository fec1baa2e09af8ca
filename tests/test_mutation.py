import copy

import pytest
from hypothesis import given, settings, strategies as st

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
    is_sign_skew_symmetric,
)
from clustertube import mutation, rigid, verify
from clustertube.cli import main


def obj(a, b, n):
    return TubeObject(a, b, n)


def mr(n, *pairs):
    return MaximalRigid(n, tuple(obj(a, b, n) for a, b in pairs))


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
        assert len(g.undirected_edges()) == edges

    def test_rank_three_is_a_hexagon(self):
        g = build_exchange_graph(3)
        und = g.undirected_edges()
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
            for mat in g.nodes.values():
                assert all(abs(v) <= 2 for row in mat.entries for v in row)
                assert is_sign_skew_symmetric(mat)

    def test_nodes_must_equal_the_enumeration(self, monkeypatch):
        real = mutation.maximal_rigid_masks
        monkeypatch.setattr(mutation, "maximal_rigid_masks", lambda n: real(n)[1:])
        with pytest.raises(TheoremViolationError, match="reaches 70 objects.* 69"):
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
        calls = []

        def counted(adj, mask):
            calls.append(mask)
            return rigid.exchanges(adj, mask)

        monkeypatch.setattr(mutation, "exchanges", counted)
        g = mutation.ExchangeGraph(n)
        assert len(calls) == len(set(calls)) == len(g.nodes)

    @pytest.mark.parametrize("n", (3, 4))
    def test_every_edge_is_compared(self, n, monkeypatch):
        # each node has n-1 >= 2 incoming edges, so a wrong matrix on any
        # one edge, discovering or revisiting, meets a revisit
        real = mutation._mutate_rows
        for bad in range(len(build_exchange_graph(n).edges)):
            calls = []

            def tampered(b, k, p):
                b2 = real(b, k, p)
                calls.append(None)
                if len(calls) - 1 != bad:
                    return b2
                return b2[:-1] + ((b2[-1][0] + 7,) + b2[-1][1:],)

            monkeypatch.setattr(mutation, "_mutate_rows", tampered)
            with pytest.raises(TheoremViolationError, match="^path-independence failure at "):
                mutation.ExchangeGraph(n)

    def test_rank_eight_rows_are_shared(self):
        # each distinct row is one tuple, the seed's rows included
        rows = [r for m in build_exchange_graph(8).nodes.values() for r in m.entries]
        assert len(rows) == 3432 * 7
        assert len({id(r) for r in rows}) == len(set(rows)) == 234

    @pytest.mark.parametrize("n", range(2, 9))
    def test_nodes_in_enumeration_order(self, n):
        # the CLI numbers the nodes by this order
        assert list(build_exchange_graph(n).nodes) == list(enumerate_maximal_rigid(n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_masks_are_the_enumeration_masks(self, n):
        g, table = build_exchange_graph(n), rigid.rigid_table(n)
        assert g.masks == rigid.maximal_rigid_masks(n)
        assert [table.mask_of(t.summands) for t in g.nodes] == list(g.masks)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_mask_of_call_for_the_seed(self, n, monkeypatch):
        seed = mutation.initial_seed(n)
        enumerate_maximal_rigid(n)
        calls = []
        real = rigid.RigidTable.mask_of

        def counted(table, objs):
            calls.append(tuple(objs))
            return real(table, calls[-1])

        monkeypatch.setattr(mutation, "initial_seed", lambda n: seed)
        monkeypatch.setattr(rigid.RigidTable, "mask_of", counted)
        mutation.ExchangeGraph(n)
        assert calls == [seed.object.summands]


class TestNumberedEdges:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_edge_is_an_exchange(self, n):
        g = build_exchange_graph(n)
        nodes = tuple(g.nodes)
        assert all(type(v) is int for e in g.edges for v in e)
        assert len(g.edges) == len(nodes) * (n - 1)
        for i, k, j in g.edges:
            assert exchange(nodes[i], k)[0] == nodes[j], (i, k, j)

    def test_undirected_edges_are_ordered_pairs(self):
        g = build_exchange_graph(4)
        assert all(i < j for i, j in g.undirected_edges())


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
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_mutate_then_move(self, n):
        for mat in build_exchange_graph(n).nodes.values():
            b = mat.entries
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

    def test_size_one(self):
        # rank 2: one summand, a 1x1 matrix
        assert mutation._mutate_rows(((0,),), 0, 0) == ((0,),)
        b = ((3,),)
        assert mutation._mutate_rows(b, 0, 0) == ((-3,),) == mutate_then_move(b, 0, 0)
        seed = initial_seed(2).matrix
        assert seed.entries == ((0,),)
        assert fz_mutate(seed, 0) == seed


class TestMiddleTerms:
    def test_top_row(self):
        g = build_exchange_graph(4)
        t = initial_seed(4).object
        m = g.middle_terms(t, 0)
        assert m.u == (obj(1, 2, 4), obj(1, 2, 4))
        assert m.u_prime == ()

    def test_even_row(self):
        g = build_exchange_graph(4)
        t = initial_seed(4).object
        m = g.middle_terms(t, 1)
        assert m.u == ()
        assert m.u_prime == (obj(1, 3, 4), obj(2, 1, 4))

    def test_odd_row(self):
        g = build_exchange_graph(5)
        t = initial_seed(5).object
        m = g.middle_terms(t, 2)
        assert m.u == (obj(1, 3, 5), obj(2, 1, 5))
        assert m.u_prime == ()

    def test_disjoint_and_supported_on_summands(self):
        g = build_exchange_graph(4)
        for t in g.nodes:
            for i in range(3):
                m = g.middle_terms(t, i)
                assert not (set(m.u) & set(m.u_prime))
                others = set(t.summands) - {t.summands[i]}
                assert set(m.u) | set(m.u_prime) <= others

    @pytest.mark.parametrize("i", [-1, 3, 4])
    def test_index_out_of_range(self, i):
        g = build_exchange_graph(4)
        with pytest.raises(IndexError, match=f"^summand index {i} out of range$"):
            g.middle_terms(initial_seed(4).object, i)


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
        assert cartan_counterpart(((0,),)) == ((2,),)


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
        """Make the suite see the rank-5 graph with one node's matrix
        replaced by ``entries``; the cached graph is left untouched."""
        graph = build_exchange_graph(5)
        t = next(t for t in graph.nodes if t != initial_seed(5).object)
        fake = copy.copy(graph)
        fake.nodes = dict(graph.nodes)
        fake.nodes[t] = ExchangeMatrix(t.summands, entries)
        monkeypatch.setattr(verify, "build_exchange_graph", lambda n: fake)

    def expect_failure(self, capsys, check):
        report = verify.run_suite("mutation", 5)
        assert [c.name for c in report.checks if not c.ok] == [check]
        assert main(["verify", "--rank", "5", "--suite", "mutation"]) == 1
        assert f"FAIL mutation/{check}" in capsys.readouterr().out

    def test_entry_out_of_bound(self, monkeypatch, capsys):
        zero = (0, 0, 0, 0)
        self.doctored(monkeypatch, ((0, 3, 0, 0), (-1, 0, 0, 0), zero, zero))
        self.expect_failure(capsys, "matrix-invariants")

    def test_sign_skew_broken(self, monkeypatch, capsys):
        zero = (0, 0, 0, 0)
        self.doctored(monkeypatch, ((0, 1, 0, 0), (1, 0, 0, 0), zero, zero))
        self.expect_failure(capsys, "matrix-invariants")

    def test_build_failure_is_path_independence(self, monkeypatch, capsys):
        def broken(n):
            raise TheoremViolationError("path-independence failure at somewhere")

        monkeypatch.setattr(verify, "build_exchange_graph", broken)
        report = verify.run_suite("mutation", 5)
        assert [(c.name, c.ok, c.detail) for c in report.checks] == [
            ("path-independence", False, "path-independence failure at somewhere")
        ]
        assert main(["verify", "--rank", "5", "--suite", "mutation"]) == 1
        assert (
            "FAIL mutation/path-independence: path-independence failure at somewhere"
            in capsys.readouterr().out
        )

    @staticmethod
    def retarget(edges):
        i, k, j = edges[0]
        edges[0] = (i, k, next(c for c in range(70) if c not in (i, j)))

    @staticmethod
    def drop(edges):
        i, _, j = edges[0]
        edges[:] = [e for e in edges if {e[0], e[2]} != {i, j}]

    @staticmethod
    def drop_one_direction(edges):
        del edges[0]

    @staticmethod
    def duplicate(edges):
        # same count and undirected set, but edges[0] loses its reverse
        edges[0] = edges[1]

    @pytest.mark.parametrize(
        "edit", ["retarget", "drop", "drop_one_direction", "duplicate"]
    )
    def test_doctored_edges_fail_graph_shape(self, monkeypatch, capsys, edit):
        fake = copy.copy(build_exchange_graph(5))
        fake.edges = list(fake.edges)
        getattr(self, edit)(fake.edges)
        monkeypatch.setattr(verify, "build_exchange_graph", lambda n: fake)
        self.expect_failure(capsys, "graph-shape")

    def test_unique_exchange_counts_enumerated_clusters(self, monkeypatch, capsys):
        real = verify.maximal_rigid_masks
        monkeypatch.setattr(verify, "maximal_rigid_masks", lambda n: real(n)[1:])
        self.expect_failure(capsys, "unique-exchange")
