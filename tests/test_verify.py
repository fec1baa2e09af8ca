"""Failure paths of the ``counts`` and ``no-ct`` suites, which run on the
enumeration's tau-orbit representatives, and what a cold run of the
quotient suites builds and reads; a doctoring for each ``hom`` and
``polygon`` check and for the ``mutation`` suite's ``initial-seed``, so
that every check is seen to FAIL; and the quotient suites' verdicts held
against the node-by-node and pair-by-pair suites of ``reference``."""

import re
from math import comb

import pytest

import reference
from clustertube import (
    TubeObject,
    initial_seed,
    mutation,
    polygon,
    rigid,
    verify,
    verify_mutation,
    verify_polygon,
    verify_reps,
    verify_rigid,
)
from clustertube.cli import main
from clustertube.mutation import Seed
from clustertube.polygon_model import crossing_points, delta
from clustertube.reps import hom_dim_oracle
from clustertube.rigid_model import ExchangeMatrix, MaximalRigid, enumerate_rigid_indecs
from clustertube.tube import tau

N = 5


def fail_lines(capsys, suite, n=N):
    """The FAIL lines of ``verify``, which must exit 1."""
    assert main(["verify", "--suite", suite, "--rank", str(n)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"FAIL suite={suite} rank={n}"
    return [line for line in lines[:-1] if line.startswith("FAIL")]


def with_first_rep(monkeypatch, edit):
    """Make the suites see the enumeration with its first representative
    edited."""
    real = verify_rigid.maximal_rigid_reps
    reps = real(N)
    monkeypatch.setattr(
        verify_rigid, "maximal_rigid_reps", lambda n: (edit(reps[0]),) + real(n)[1:]
    )


def top_swapped_out(mask):
    """The node with its top exchanged for a non-top outside it: n-1
    summands and no top."""
    table = rigid.rigid_table(N)
    outside = ~(mask | table.tops) & ((1 << len(table.objects)) - 1)
    return mask ^ (mask & table.tops) | outside & -outside


def second_top(mask):
    """The node with its lowest non-top exchanged for another top: n-1
    summands and two tops."""
    table = rigid.rigid_table(N)
    low, other = mask & ~table.tops, table.tops & ~mask
    return mask ^ (low & -low) | other & -other


def non_top_swapped(mask):
    """The node with its lowest non-top exchanged for a non-top outside
    it: one top, so only the defect check can tell."""
    table = rigid.rigid_table(N)
    low = mask & ~table.tops
    outside = ~(mask | table.tops) & ((1 << len(table.objects)) - 1)
    return mask ^ (low & -low) | outside & -outside


# A rigid set of n-1 summands is a maximal clique, so it has exactly one
# top; the edits are therefore not rigid, and the defect says so.
NOT_RIGID = {
    top_swapped_out: "((1,3)@5, (1,2)@5, (1,1)@5, (2,3)@5) is not rigid",
    second_top: "((1,4)@5, (1,2)@5, (1,1)@5, (2,4)@5) is not rigid",
    non_top_swapped: "((1,4)@5, (1,2)@5, (1,1)@5, (2,3)@5) is not rigid",
}


class TestCountsFailures:
    def test_dropped_mask(self, monkeypatch, capsys):
        """A representative dropped takes its whole orbit, one node per top."""
        real = verify_rigid.maximal_rigid_reps
        monkeypatch.setattr(verify_rigid, "maximal_rigid_reps", lambda n: real(n)[1:])
        assert fail_lines(capsys, "counts") == [
            "FAIL counts/maximal-rigid-count: got 65, want 70",
            "FAIL counts/per-top-catalan: per-top counts "
            "{1: 13, 5: 13, 4: 13, 3: 13, 2: 13}, want 14 each",
        ]

    @pytest.mark.parametrize("edit", [top_swapped_out, second_top])
    def test_node_without_one_top(self, monkeypatch, capsys, edit):
        """Each representative is checked against ``RigidTable.defect``
        once; its orbit's nodes carry its tops, so each top counts them."""
        with_first_rep(monkeypatch, edit)
        per_top = {
            top_swapped_out: "{1: 13, 5: 13, 4: 13, 3: 13, 2: 13}",
            second_top: "{1: 15, 5: 15, 4: 15, 3: 15, 2: 15}",
        }[edit]
        assert fail_lines(capsys, "counts") == [
            f"FAIL counts/per-top-catalan: per-top counts {per_top}, want 14 each",
            f"FAIL counts/tilting-roundtrip: at {NOT_RIGID[edit]}",
            f"FAIL counts/top-loop-dimension: at {NOT_RIGID[edit]}",
        ]

    def test_node_with_one_top_fails_only_the_defect(self, monkeypatch, capsys):
        with_first_rep(monkeypatch, non_top_swapped)
        assert fail_lines(capsys, "counts") == [
            f"FAIL counts/tilting-roundtrip: at {NOT_RIGID[non_top_swapped]}"
        ]

    def test_doctored_tilting_datum(self, monkeypatch, capsys):
        """Representative 3 is given representative 4's datum."""
        reps = rigid.maximal_rigid_reps(N)
        real = verify_rigid.tilting_datum_of
        monkeypatch.setattr(
            verify_rigid,
            "tilting_datum_of",
            lambda table, mask: real(table, reps[4] if mask == reps[3] else mask),
        )
        assert fail_lines(capsys, "counts") == [
            "FAIL counts/tilting-roundtrip: at MaximalRigid[1,4;1,3;2,2;2,1]@5"
        ]

    def test_datum_rotated_one_bit_short(self, monkeypatch, capsys):
        """Rotating by t-1 bits, not t, moves every wing bit to the next
        index, which is not the summand's socle distance from the top."""

        def short(table, mask):
            top = mask & table.tops
            t = top.bit_length() - 1
            return t, rigid.rotate(mask ^ top, 1 - t, len(table.objects))

        monkeypatch.setattr(verify_rigid, "tilting_datum_of", short)
        assert fail_lines(capsys, "counts") == [
            "FAIL counts/tilting-roundtrip: at MaximalRigid[1,4;1,3;1,2;1,1]@5"
        ]

    @pytest.mark.parametrize("n", [6, 10])
    def test_datum_rotated_the_wrong_way(self, n, monkeypatch, capsys):
        """Rotating up by t bits, not down, agrees wherever t = 0, as at
        every representative; the first one turned onto the next top
        tells them apart."""

        def up(table, mask):
            top = mask & table.tops
            t = top.bit_length() - 1
            return t, rigid.rotate(mask ^ top, t, len(table.objects))

        monkeypatch.setattr(verify_rigid, "tilting_datum_of", up)
        summands = ";".join(f"2,{b}" for b in range(n - 1, 0, -1))
        assert fail_lines(capsys, "counts", n) == [
            f"FAIL counts/tilting-roundtrip: at MaximalRigid[{summands}]@{n}"
        ]


class TestNoCtFailures:
    def test_witness_is_a_summand(self, monkeypatch, capsys):
        monkeypatch.setattr(
            verify_rigid, "tilting_witness", lambda table, top, k: table.objects[top]
        )
        assert fail_lines(capsys, "no-ct") == [
            "FAIL no-ct/witnesses: at (MaximalRigid[1,4;1,3;1,2;1,1]@5, 2, (1,4)@5)"
        ]

    def test_witness_is_rigid(self, monkeypatch, capsys):
        """The next top: rigid, and never a summand of a node with this top."""

        def next_top(table, top, k):
            return TubeObject(table.objects[top].a % N + 1, N - 1, N)

        monkeypatch.setattr(verify_rigid, "tilting_witness", next_top)
        assert fail_lines(capsys, "no-ct") == [
            "FAIL no-ct/witnesses: at (MaximalRigid[1,4;1,3;1,2;1,1]@5, 2, (2,4)@5)"
        ]

    @pytest.mark.parametrize("edit", [top_swapped_out, second_top])
    def test_node_without_one_top_has_no_witness(self, monkeypatch, capsys, edit):
        with_first_rep(monkeypatch, edit)
        assert fail_lines(capsys, "no-ct") == [f"FAIL no-ct/witnesses: at {NOT_RIGID[edit]}"]

    def test_non_equivariant_witness(self, monkeypatch, capsys):
        """Every top given the lowest top's witnesses: they pass at the
        representatives, but are not the turns of them that the other
        nodes need, so the first such node is named with its witness."""
        real = verify_rigid.tilting_witness
        monkeypatch.setattr(
            verify_rigid, "tilting_witness", lambda table, top, k: real(table, 0, k)
        )
        assert fail_lines(capsys, "no-ct") == [
            "FAIL no-ct/witnesses: at (MaximalRigid[2,4;2,3;2,2;2,1]@5, 2, (1,9)@5)"
        ]


S1, S2 = TubeObject(1, 1, N), TubeObject(2, 1, N)


class TestHomFailures:
    """Each doctoring breaks one check's claim and leaves the others'."""

    def doctor_ext(self, monkeypatch, extra):
        real = verify_reps.ext_dim_cluster
        monkeypatch.setattr(
            verify_reps, "ext_dim_cluster", lambda x, y: real(x, y) + extra(x, y)
        )

    def test_self_extensions_dropped(self, monkeypatch, capsys):
        real = verify_reps.ext_dim_cluster
        monkeypatch.setattr(
            verify_reps, "ext_dim_cluster", lambda x, y: 0 if x == y else real(x, y)
        )
        assert fail_lines(capsys, "hom") == ["FAIL hom/rigidity-boundary: at (1,5)@5"]

    def test_extension_added_in_one_order(self, monkeypatch, capsys):
        self.doctor_ext(monkeypatch, lambda x, y: (x, y) == (S2, S1))
        assert fail_lines(capsys, "hom") == [
            "FAIL hom/ext-symmetry: at ((1,1)@5, (2,1)@5)"
        ]

    def test_extension_added_in_both_orders(self, monkeypatch, capsys):
        self.doctor_ext(monkeypatch, lambda x, y: {x, y} == {S1, S2})
        assert fail_lines(capsys, "hom") == [
            "FAIL hom/hammock-consistency: at ((1,1)@5, (2,1)@5)"
        ]

    def test_formula_off_at_a_pair_off_socle_one(self, monkeypatch, capsys):
        """The oracle runs only for ``x`` of socle 1, yet a formula wrong
        at one pair of other socles is named as that pair."""
        real, pair = verify_reps.hom_dim_tube, (TubeObject(3, 2, N), TubeObject(4, 7, N))
        monkeypatch.setattr(
            verify_reps, "hom_dim_tube", lambda x, y: real(x, y) + ((x, y) == pair)
        )
        assert fail_lines(capsys, "hom")[0] == f"FAIL hom/formula-vs-oracle: disagree on {pair}"

    def test_oracle_off_at_a_pair_above_rank_six(self, monkeypatch, capsys):
        """The oracle runs at every rank ``verify`` accepts: one socle-1
        pair off by one at rank 10 is named as that pair."""
        real, pair = verify_reps.hom_dim_oracle, (TubeObject(1, 3, 10), TubeObject(4, 12, 10))
        monkeypatch.setattr(
            verify_reps, "hom_dim_oracle", lambda x, y: real(x, y) + ((x, y) == pair)
        )
        assert fail_lines(capsys, "hom", 10) == [
            f"FAIL hom/formula-vs-oracle: disagree on {pair}"
        ]

    def test_cluster_hom_without_the_tube_maps(self, monkeypatch, capsys):
        real = verify_reps.hom_dim_cluster
        monkeypatch.setattr(
            verify_reps,
            "hom_dim_cluster",
            lambda x, y: real(x, y) - verify_reps.hom_dim_tube(x, y),
        )
        assert fail_lines(capsys, "hom") == [
            "FAIL hom/cluster-hom-contains-tube-hom: at ((1,1)@5, (1,1)@5)"
        ]


class TestPolygonFailures:
    def test_inverse_off_by_tau(self, monkeypatch, capsys):
        real = verify_polygon.delta_inv
        monkeypatch.setattr(verify_polygon, "delta_inv", lambda p: tau(real(p)))
        assert fail_lines(capsys, "polygon") == [
            "FAIL polygon/delta-bijection: 20 images of 20 objects, 20 pairs"
        ]

    def test_each_crossing_counted_once(self, monkeypatch, capsys):
        real = verify_polygon.crossing_points
        monkeypatch.setattr(verify_polygon, "crossing_points", lambda p, q: real(p, q) // 2)
        assert fail_lines(capsys, "polygon") == [
            "FAIL polygon/crossing-equals-twice-ext: at ((1,4)@5, (2,4)@5)"
        ]

    def test_each_crossing_counted_once_above_rank_six(self, monkeypatch, capsys):
        real = verify_polygon.crossing_points
        monkeypatch.setattr(verify_polygon, "crossing_points", lambda p, q: real(p, q) // 2)
        assert fail_lines(capsys, "polygon", 10) == [
            "FAIL polygon/crossing-equals-twice-ext: at ((1,9)@10, (2,9)@10)"
        ]


def type_c_seed(n):
    """The zig-zag seed with ``-B^T``, the type C matrix, in place of ``B``."""
    seed = initial_seed(n)
    rows = tuple(tuple(-v for v in column) for column in zip(*seed.matrix.entries))
    return Seed(seed.object, ExchangeMatrix(seed.matrix.order, rows))


def negated_seed(n):
    """The zig-zag seed with ``-B`` in place of ``B``: sign-skew symmetric,
    in bound, and with the same Cartan counterpart."""
    seed = initial_seed(n)
    rows = tuple(tuple(-v for v in row) for row in seed.matrix.entries)
    return Seed(seed.object, ExchangeMatrix(seed.matrix.order, rows))


class TestInitialSeedFailures:
    def test_graph_built_from_a_type_c_seed(self, monkeypatch, capsys):
        """The graph stores the seed it was built from, so only the
        Cartan half of the check can tell."""
        monkeypatch.setattr(mutation, "initial_seed", type_c_seed)
        monkeypatch.setattr(verify_mutation, "initial_seed", mutation.initial_seed)
        monkeypatch.setattr(verify_mutation, "build_exchange_graph", mutation.ExchangeGraph)
        assert fail_lines(capsys, "mutation") == [
            "FAIL mutation/initial-seed: stored "
            "((0, -1, 0, 0), (2, 0, 1, 0), (0, -1, 0, -1), (0, 0, 1, 0))"
        ]

    def test_stored_matrix_is_not_the_seed(self, monkeypatch, capsys):
        monkeypatch.setattr(verify_mutation, "initial_seed", type_c_seed)
        assert fail_lines(capsys, "mutation") == [
            "FAIL mutation/initial-seed: stored "
            "((0, -2, 0, 0), (1, 0, 1, 0), (0, -1, 0, -1), (0, 0, 1, 0))"
        ]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_graph_built_from_a_negated_seed(self, n, monkeypatch, capsys):
        """The graph stores the seed it was built from, and ``-B`` has B's
        Cartan counterpart, so only the triangles of delta(seed) can tell."""
        monkeypatch.setattr(mutation, "initial_seed", negated_seed)
        monkeypatch.setattr(verify_mutation, "initial_seed", mutation.initial_seed)
        monkeypatch.setattr(verify_mutation, "build_exchange_graph", mutation.ExchangeGraph)
        stored = negated_seed(n).matrix.entries
        assert stored != initial_seed(n).matrix.entries
        assert fail_lines(capsys, "mutation", n) == [f"FAIL mutation/initial-seed: stored {stored}"]


@pytest.mark.parametrize("edit", [lambda mask: mask, top_swapped_out], ids=["node", "not-one"])
def test_counterexample_node_is_checked_once(monkeypatch, edit):
    """A counterexample's text runs ``RigidTable.defect`` once on its
    mask, whether the mask is a maximal rigid object or not."""
    table = rigid.rigid_table(N)
    mask = edit(rigid.maximal_rigid_masks(N)[0])
    real, checked = rigid.RigidTable.defect, []
    monkeypatch.setattr(
        rigid.RigidTable, "defect", lambda self, m: checked.append(m) or real(self, m)
    )
    assert not verify_rigid._bad_node("node", table, mask).ok
    assert checked == [mask]


@pytest.mark.parametrize("suite", ["counts", "no-ct", "mutation"])
@pytest.mark.parametrize("n", range(3, 7))
def test_cold_suite_builds_only_the_seed_object(
    suite, n, monkeypatch, clear_package_caches
):
    """The suites read masks and rows; no ``MaximalRigid`` is constructed,
    and the mutation suite checks one mask in full, its seed's (and a
    counterexample's, for its text)."""
    built, checked = [], []
    validate, defect = MaximalRigid.__post_init__, rigid.RigidTable.defect

    def counted(t):
        validate(t)
        built.append(t.summands)

    seed = initial_seed(n).object.mask
    clear_package_caches()
    monkeypatch.setattr(MaximalRigid, "__post_init__", counted)
    monkeypatch.setattr(
        rigid.RigidTable, "defect", lambda t, m: checked.append(m) or defect(t, m)
    )
    assert all(c.ok for c in getattr(verify, "suite_" + suite.replace("-", "_"))(n))
    assert built == []
    if suite == "mutation":  # the graph's seed, and the suite's own to compare
        assert checked == [seed, seed]


EXPANDED = {
    "hom": reference.suite_hom_expanded,
    "counts": reference.suite_counts_expanded,
    "mutation": reference.suite_mutation_expanded,
    "polygon": reference.suite_polygon_expanded,
    "no-ct": reference.suite_no_ct_expanded,
}


@pytest.mark.parametrize(
    "suite,n",
    [(s, n) for s in sorted(EXPANDED) for n in range(2, 7 if s == "hom" else 10)],
)
def test_quotient_verdicts_equal_the_expanded_ones(suite, n):
    quotient = getattr(verify, "suite_" + suite.replace("-", "_"))(n)
    assert [(c.name, c.ok, c.detail) for c in quotient] == [
        (c.name, c.ok, c.detail) for c in EXPANDED[suite](n)
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_cold_run_expands_nothing(n, clear_package_caches):
    """A passing ``verify --suite all`` reads the representatives and the
    quotient blocks only: it enumerates no node list, and neither graph
    builds its nodes, edges, BFS order or per-node rows."""
    clear_package_caches()
    assert verify.run_suite("all", n).passed
    assert rigid.maximal_rigid_masks.cache_info().misses == 0
    views = {"nodes", "edges", "order", "rows"}
    assert not views & vars(mutation.build_exchange_graph(n)).keys()
    assert polygon.flip_graph.cache_info().currsize == 1
    assert not views & vars(polygon.flip_graph(n)).keys()


@pytest.mark.parametrize("n", range(2, 11))
def test_per_top_order_is_the_order_of_first_appearance(n):
    """The ``per-top-catalan`` dict lists the tops by the lowest index in
    their wing, which is the order in which the sorted nodes first
    contain them."""
    table, first = rigid.rigid_table(n), []
    for mask in rigid.maximal_rigid_masks(n):
        a = table.objects[(mask & table.tops).bit_length() - 1].a
        if a not in first:
            first.append(a)
    (check,) = [c for c in verify.suite_counts(n) if c.name == "per-top-catalan"]
    want = {a: comb(2 * n - 2, n - 1) // n for a in first}
    assert check.detail == f"per-top counts {want}, want {want[1]} each"


@pytest.mark.parametrize("n", range(2, 7))
def test_oracle_is_tau_invariant(n):
    """What lets ``formula-vs-oracle`` run the oracle on socle 1 only."""
    objs = [TubeObject(a, b, n) for a in range(1, n + 1) for b in range(1, 2 * n + 1)]
    for x in objs:
        for y in objs:
            assert hom_dim_oracle(tau(x), tau(y)) == hom_dim_oracle(x, y), (x, y)


@pytest.mark.parametrize("n", range(2, 11))
def test_crossing_is_tau_invariant(n):
    """What lets ``crossing-equals-twice-ext`` run on socle 1 only."""
    rigids = enumerate_rigid_indecs(n)
    for x in rigids:
        for y in rigids:
            assert crossing_points(delta(tau(x)), delta(tau(y))) == crossing_points(
                delta(x), delta(y)
            ), (x, y)


def test_rank_range():
    """Every suite runs to rank 13, and rank 14 is rejected for each."""
    assert verify.run_suite("hom", 13).passed
    for suite in ("all",) + verify.SUITES:
        with pytest.raises(ValueError, match=r"^rank 14 outside the supported range 2\.\.13$"):
            verify.run_suite(suite, 14)


@pytest.mark.parametrize("rank", [3.0, "3"])
def test_rank_that_is_not_an_int(rank):
    """Checked before the range test, which a float passes and a str
    cannot be compared in."""
    with pytest.raises(ValueError, match=f"^rank must be an int, got {re.escape(repr(rank))}$"):
        verify.run_suite("all", rank)
