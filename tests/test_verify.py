"""Failure paths of the ``counts`` and ``no-ct`` suites, which run on the
enumeration's masks, and what a cold run of the mask-native suites builds;
and a doctoring for each ``hom`` and ``polygon`` check and for the
``mutation`` suite's ``initial-seed``, so that every check is seen to FAIL.

Where the code before the suites read masks could reach a failure, the
FAIL lines pinned here are the ones it printed for the same doctoring."""

import pytest

from clustertube import TubeObject, initial_seed, mutation, rigid, verify
from clustertube.cli import main
from clustertube.mutation import ExchangeMatrix, Seed
from clustertube.rigid import MaximalRigid
from clustertube.tube import tau

N = 5


def fail_lines(capsys, suite, n=N):
    """The FAIL lines of ``verify``, which must exit 1."""
    assert main(["verify", "--suite", suite, "--rank", str(n)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"FAIL suite={suite} rank={n}"
    return [line for line in lines[:-1] if line.startswith("FAIL")]


def with_first_mask(monkeypatch, edit):
    """Make the suites see the enumeration with its first mask edited."""
    real = verify.maximal_rigid_masks
    masks = real(N)
    monkeypatch.setattr(
        verify, "maximal_rigid_masks", lambda n: (edit(masks[0]),) + real(n)[1:]
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
        real = verify.maximal_rigid_masks
        monkeypatch.setattr(verify, "maximal_rigid_masks", lambda n: real(n)[1:])
        assert fail_lines(capsys, "counts") == [
            "FAIL counts/maximal-rigid-count: got 69, want 70",
            "FAIL counts/per-top-catalan: per-top counts "
            "{1: 13, 5: 14, 4: 14, 3: 14, 2: 14}, want 14 each",
        ]

    @pytest.mark.parametrize("edit", [top_swapped_out, second_top])
    def test_node_without_one_top(self, monkeypatch, capsys, edit):
        """Each node is checked against ``RigidTable.defect`` once."""
        with_first_mask(monkeypatch, edit)
        per_top = {
            top_swapped_out: "{1: 13, 5: 14, 4: 14, 3: 14, 2: 14}",
            second_top: "{1: 14, 2: 15, 5: 14, 4: 14, 3: 14}",
        }[edit]
        assert fail_lines(capsys, "counts") == [
            f"FAIL counts/per-top-catalan: per-top counts {per_top}, want 14 each",
            f"FAIL counts/tilting-roundtrip: at {NOT_RIGID[edit]}",
            f"FAIL counts/top-loop-dimension: at {NOT_RIGID[edit]}",
        ]

    def test_node_with_one_top_fails_only_the_defect(self, monkeypatch, capsys):
        with_first_mask(monkeypatch, non_top_swapped)
        assert fail_lines(capsys, "counts") == [
            f"FAIL counts/tilting-roundtrip: at {NOT_RIGID[non_top_swapped]}"
        ]

    def test_doctored_tilting_datum(self, monkeypatch, capsys):
        """Node 3 is given node 4's datum."""
        masks = rigid.maximal_rigid_masks(N)
        real = verify.tilting_datum_of
        monkeypatch.setattr(
            verify,
            "tilting_datum_of",
            lambda table, mask: real(table, masks[4] if mask == masks[3] else mask),
        )
        assert fail_lines(capsys, "counts") == [
            "FAIL counts/tilting-roundtrip: at MaximalRigid[1,4;1,3;2,2;2,1]@5"
        ]


class TestNoCtFailures:
    def test_witness_is_a_summand(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "tilting_witness", lambda table, top, k: table.objects[top])
        assert fail_lines(capsys, "no-ct") == [
            "FAIL no-ct/witnesses: at (MaximalRigid[1,4;1,3;1,2;1,1]@5, 2, (1,4)@5)"
        ]

    def test_witness_is_rigid(self, monkeypatch, capsys):
        """The next top: rigid, and never a summand of a node with this top."""

        def next_top(table, top, k):
            return TubeObject(table.objects[top].a % N + 1, N - 1, N)

        monkeypatch.setattr(verify, "tilting_witness", next_top)
        assert fail_lines(capsys, "no-ct") == [
            "FAIL no-ct/witnesses: at (MaximalRigid[1,4;1,3;1,2;1,1]@5, 2, (2,4)@5)"
        ]

    @pytest.mark.parametrize("edit", [top_swapped_out, second_top])
    def test_node_without_one_top_has_no_witness(self, monkeypatch, capsys, edit):
        with_first_mask(monkeypatch, edit)
        assert fail_lines(capsys, "no-ct") == [f"FAIL no-ct/witnesses: at {NOT_RIGID[edit]}"]


S1, S2 = TubeObject(1, 1, N), TubeObject(2, 1, N)


class TestHomFailures:
    """Each doctoring breaks one check's claim and leaves the others'."""

    def doctor_ext(self, monkeypatch, extra):
        real = verify.ext_dim_cluster
        monkeypatch.setattr(verify, "ext_dim_cluster", lambda x, y: real(x, y) + extra(x, y))

    def test_self_extensions_dropped(self, monkeypatch, capsys):
        real = verify.ext_dim_cluster
        monkeypatch.setattr(verify, "ext_dim_cluster", lambda x, y: 0 if x == y else real(x, y))
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

    def test_cluster_hom_without_the_tube_maps(self, monkeypatch, capsys):
        real = verify.hom_dim_cluster
        monkeypatch.setattr(
            verify, "hom_dim_cluster", lambda x, y: real(x, y) - verify.hom_dim_tube(x, y)
        )
        assert fail_lines(capsys, "hom") == [
            "FAIL hom/cluster-hom-contains-tube-hom: at ((1,1)@5, (1,1)@5)"
        ]


class TestPolygonFailures:
    def test_inverse_off_by_tau(self, monkeypatch, capsys):
        real = verify.delta_inv
        monkeypatch.setattr(verify, "delta_inv", lambda p: tau(real(p)))
        assert fail_lines(capsys, "polygon") == [
            "FAIL polygon/delta-bijection: 20 images of 20 objects, 20 pairs"
        ]

    def test_each_crossing_counted_once(self, monkeypatch, capsys):
        real = verify.crossing_points
        monkeypatch.setattr(verify, "crossing_points", lambda p, q: real(p, q) // 2)
        assert fail_lines(capsys, "polygon") == [
            "FAIL polygon/crossing-equals-twice-ext: at ((1,4)@5, (2,4)@5)"
        ]


def type_c_seed(n):
    """The zig-zag seed with ``-B^T``, the type C matrix, in place of ``B``."""
    seed = initial_seed(n)
    rows = tuple(tuple(-v for v in column) for column in zip(*seed.matrix.entries))
    return Seed(seed.object, ExchangeMatrix(seed.matrix.order, rows))


class TestInitialSeedFailures:
    def test_graph_built_from_a_type_c_seed(self, monkeypatch, capsys):
        """The graph stores the seed it was built from, so only the
        Cartan half of the check can tell."""
        monkeypatch.setattr(mutation, "initial_seed", type_c_seed)
        monkeypatch.setattr(verify, "initial_seed", mutation.initial_seed)
        monkeypatch.setattr(verify, "build_exchange_graph", mutation.ExchangeGraph)
        assert fail_lines(capsys, "mutation") == [
            "FAIL mutation/initial-seed: stored "
            "((0, -1, 0, 0), (2, 0, 1, 0), (0, -1, 0, -1), (0, 0, 1, 0))"
        ]

    def test_stored_matrix_is_not_the_seed(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "initial_seed", type_c_seed)
        assert fail_lines(capsys, "mutation") == [
            "FAIL mutation/initial-seed: stored "
            "((0, -2, 0, 0), (1, 0, 1, 0), (0, -1, 0, -1), (0, 0, 1, 0))"
        ]


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
    assert not verify._bad_node("node", table, mask).ok
    assert checked == [mask]


@pytest.mark.parametrize("suite", ["counts", "no-ct", "mutation"])
@pytest.mark.parametrize("n", range(3, 7))
def test_cold_suite_builds_only_the_seed_object(
    suite, n, monkeypatch, clear_package_caches
):
    """The suites read masks and rows; a ``MaximalRigid`` is built only
    for the mutation suite's seed (and for a counterexample's text)."""
    built = []
    validate = MaximalRigid.__post_init__

    def counted(t):
        validate(t)
        built.append(t.summands)

    seed = initial_seed(n).object.summands
    clear_package_caches()
    monkeypatch.setattr(MaximalRigid, "__post_init__", counted)
    assert all(c.ok for c in getattr(verify, "suite_" + suite.replace("-", "_"))(n))
    assert set(built) == ({seed} if suite == "mutation" else set())
