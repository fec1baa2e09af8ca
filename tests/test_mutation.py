import copy

import pytest

from clustertube import (
    ExchangeMatrix,
    MaximalRigid,
    StructuralError,
    TheoremViolationError,
    TubeObject,
    build_exchange_graph,
    cartan_counterpart,
    exchange,
    fz_mutate,
    initial_seed,
    is_sign_skew_symmetric,
)
from clustertube import mutation, verify
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
        degrees = {t: sum(1 for e in und if t in e) for t in g.nodes}
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
        with pytest.raises(StructuralError):
            g.b_matrix(mr(4, (1, 3), (1, 2), (2, 1)))

    def test_matrix_entries_bounded(self):
        for n in (2, 3, 4, 5):
            g = build_exchange_graph(n)
            for mat in g.nodes.values():
                assert all(abs(v) <= 2 for row in mat.entries for v in row)
                assert is_sign_skew_symmetric(mat)

    def test_nodes_must_equal_the_enumeration(self, monkeypatch):
        real = mutation.enumerate_maximal_rigid
        monkeypatch.setattr(mutation, "enumerate_maximal_rigid", lambda n: real(n)[1:])
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

    def test_unique_exchange_counts_enumerated_clusters(self, monkeypatch, capsys):
        real = verify.clusters
        monkeypatch.setattr(verify, "clusters", lambda adj, n: real(adj, n)[1:])
        self.expect_failure(capsys, "unique-exchange")
