import gc
import re
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from clustertube import (
    MaximalRigid,
    StructuralError,
    TheoremViolationError,
    TubeObject,
    cluster_tilting_witness,
    complements,
    enumerate_maximal_rigid,
    enumerate_rigid_indecs,
    ext_dim_cluster,
    from_tilting_datum,
    is_rigid_set,
    to_tilting_datum,
    wing_contains,
)
from clustertube import rigid
from clustertube.cli import main
from clustertube.rigid import (
    bit_indices,
    maximal_cliques,
    maximal_rigid_masks,
    rigid_table,
)
from reference import clusters


def obj(a, b, n):
    return TubeObject(a, b, n)


def mr(n, *pairs):
    return MaximalRigid(n, tuple(obj(a, b, n) for a, b in pairs))


class TestRigidSets:
    def test_compatible_pair(self):
        assert is_rigid_set([obj(1, 2, 3), obj(1, 1, 3)])

    def test_self_extension(self):
        assert not is_rigid_set([obj(1, 3, 3)])

    def test_empty(self):
        assert is_rigid_set([])


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 12)])
    def test_rigid_indec_count(self, n, count):
        assert len(enumerate_rigid_indecs(n)) == count

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 20)])
    def test_maximal_rigid_count(self, n, count):
        assert len(enumerate_maximal_rigid(n)) == count

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_rank_below_two(self, n):
        with pytest.raises(ValueError, match=f"^rank must be >= 2, got {n}$"):
            enumerate_rigid_indecs(n)
        with pytest.raises(ValueError, match=f"^rank must be >= 2, got {n}$"):
            enumerate_maximal_rigid(n)

    def test_rank_two_objects(self):
        assert {t.summands for t in enumerate_maximal_rigid(2)} == {
            (obj(1, 1, 2),),
            (obj(2, 1, 2),),
        }

    def test_structure(self):
        for n in (3, 4, 5):
            for t in enumerate_maximal_rigid(n):
                assert len(t.summands) == n - 1
                top = t.top
                assert top.b == n - 1
                assert all(wing_contains(top, x) for x in t.summands)


def full_maximal_cliques(adj):
    """Every maximal clique of ``adj``, by brute force over vertex sets."""
    v = len(adj)
    cliques = [
        sum(1 << i for i in s)
        for r in range(1, v + 1)
        for s in combinations(range(v), r)
        if all(adj[i] >> j & 1 for i, j in combinations(s, 2))
    ]
    return {c for c in cliques if not any(c != d and c & d == c for d in cliques)}


class TestOrbitEnumeration:
    """``maximal_rigid_masks`` searches only through the lowest top and
    rotates; the full search ``clusters`` is the reference."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_the_full_search(self, n):
        assert maximal_rigid_masks(n) == tuple(clusters(rigid_table(n).compat, n))

    @given(
        st.integers(1, 132).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.integers(0, size).flatmap(
                    lambda k: st.lists(
                        st.sets(st.integers(0, size - 1), min_size=k, max_size=k).map(
                            lambda bits: sum(1 << i for i in bits)
                        ),
                        max_size=30,
                    )
                ),
            )
        )
    )
    def test_sort_key_is_the_index_order(self, case):
        size, masks = case
        rigid._sort_by_indices(masks, size)
        assert masks == sorted(masks, key=bit_indices)

    # a 4-cycle 0-1-2-3 with the chord 0-2, and a pendant vertex 4 at 3
    GRAPH = (0b01110, 0b00101, 0b01011, 0b10101, 0b01000)

    def test_the_synthetic_graph(self):
        assert full_maximal_cliques(self.GRAPH) == {0b00111, 0b01101, 0b11000}

    @pytest.mark.parametrize("seed", [0, 0b1, 0b1000, 0b0101, 0b10000, 0b11000])
    def test_seed_gives_the_cliques_that_contain_it(self, seed):
        found = maximal_cliques(self.GRAPH, seed=seed)
        assert len(found) == len(set(found))
        assert set(found) == {c for c in full_maximal_cliques(self.GRAPH) if c & seed == seed}

    @pytest.mark.parametrize("excluded", [0, 0b1, 0b100, 0b101, 0b1000, 0b11111])
    def test_excluded_gives_the_cliques_that_avoid_it(self, excluded):
        found = maximal_cliques(self.GRAPH, excluded=excluded)
        assert len(found) == len(set(found))
        assert set(found) == {c for c in full_maximal_cliques(self.GRAPH) if not c & excluded}

    def test_searches_leave_no_reference_cycle(self):
        # a cycle would keep each search's clique list alive until the
        # cyclic collector runs
        table = rigid_table(7)
        gc.collect()
        gc.disable()
        try:
            clusters(table.compat, 7)
            assert gc.collect() == 0
            maximal_rigid_masks.__wrapped__(7)
            assert gc.collect() == 0
        finally:
            gc.enable()


def top_dropped(table):
    """The highest top, not the lowest, left out of ``tops``: its
    cliques have no top left, which only the completeness check sees."""
    tops = table.tops ^ 1 << table.tops.bit_length() - 1
    return rigid.RigidTable(table.n, table.objects, table.index, table.compat, tops, table.wings)


def non_top_added(table):
    """A non-top compatible with the lowest top counted as a top: the
    representatives through both have two tops."""
    t0 = table.tops & -table.tops
    extra = table.compat[t0.bit_length() - 1] & ~table.tops
    tops = table.tops | extra & -extra
    return rigid.RigidTable(table.n, table.objects, table.index, table.compat, tops, table.wings)


def wing_shrunk(table):
    """The lowest top's wing without its lowest other member."""
    t0 = (table.tops & -table.tops).bit_length() - 1
    rest = table.wings[t0] & ~(1 << t0)
    wings = {**table.wings, t0: table.wings[t0] ^ rest & -rest}
    return rigid.RigidTable(table.n, table.objects, table.index, table.compat, table.tops, wings)


class TestDoctoredTables:
    """A doctored table makes the enumeration raise, never shrink."""

    @pytest.mark.parametrize("edit", [top_dropped, non_top_added, wing_shrunk])
    def test_raises(self, monkeypatch, capsys, edit):
        text = {
            top_dropped: r"^maximal rigid object without a top: \(",
            non_top_added: r"\) has 2 summands of quasi-length 4$",
            wing_shrunk: r"\) has \(.*\) outside the wing of its top$",
        }[edit]
        real = rigid.rigid_table
        monkeypatch.setattr(rigid, "rigid_table", lambda n: edit(real(n)))
        maximal_rigid_masks.cache_clear()
        try:
            with pytest.raises(TheoremViolationError, match=text):
                maximal_rigid_masks(5)
            assert main(["verify", "--rank", "5", "--suite", "counts"]) == 1
        finally:
            maximal_rigid_masks.cache_clear()
        assert capsys.readouterr().err.startswith("verification failure: ")


class TestDoctoredEnumeration:
    def test_computed_mask_with_a_defect_is_a_theorem_violation(self, monkeypatch):
        # the last rank-3 mask with one more summand: the enumeration
        # computed it, so its defect falsifies the computation
        real = maximal_rigid_masks(3)
        monkeypatch.setattr(rigid, "maximal_rigid_masks", lambda n: real[:-1] + (real[-1] | 1,))
        text = "((1,2)@3, (3,2)@3, (3,1)@3) has 3 summands, expected 2"
        with pytest.raises(TheoremViolationError, match=f"^{re.escape(text)}$"):
            enumerate_maximal_rigid(3)

    @pytest.mark.parametrize("n,bits", [(3, "1"), (4, "1, 2")])
    def test_exchange_outside_the_enumeration(self, n, bits, monkeypatch):
        # the first exchange of each representative drops its vertex for
        # one the representative already has: n-2 bits, no node
        real = rigid.exchanges

        def dropping(adj, mask):
            out = real(adj, mask)
            out[0] = (out[0][0], out[1][0])
            return out

        monkeypatch.setattr(rigid, "exchanges", dropping)
        table, nodes = rigid_table(n), maximal_rigid_masks(n)
        with pytest.raises(
            TheoremViolationError,
            match=rf"^exchange graph at rank {n} reaches \[{bits}\], "
            rf"outside the enumeration of {len(nodes)}$",
        ):
            rigid.orbit_graph(table.compat, table.tops, n, nodes, "exchange graph")


class TestMaximalRigidType:
    def test_canonical_order(self):
        t = mr(3, (1, 1), (1, 2))
        assert t.summands == (obj(1, 2, 3), obj(1, 1, 3))

    def test_top(self):
        assert mr(3, (1, 2), (1, 1)).top == obj(1, 2, 3)
        assert mr(4, (1, 3), (1, 2), (1, 1)).top == obj(1, 3, 4)

    def test_rejects_incompatible(self):
        with pytest.raises(StructuralError):
            mr(3, (1, 1), (2, 1))

    def test_rejects_summand_of_other_rank(self):
        with pytest.raises(StructuralError):
            MaximalRigid(3, (obj(1, 2, 3), obj(1, 1, 4)))

    def test_rejects_repeated_summand(self):
        with pytest.raises(StructuralError):
            MaximalRigid(3, (obj(1, 2, 3), obj(1, 2, 3)))

    def test_rejects_wrong_count(self):
        with pytest.raises(StructuralError):
            mr(4, (1, 3), (1, 1))


class TestTiltingDatum:
    def test_encoding(self):
        d = to_tilting_datum(mr(3, (1, 2), (1, 1)))
        assert d.top_coordinate == 1
        assert d.wing_positions == frozenset({(0, 1)})

    def test_roundtrip(self):
        for n in (2, 3, 4, 5):
            for t in enumerate_maximal_rigid(n):
                assert from_tilting_datum(to_tilting_datum(t)) == t

    def test_per_top_is_catalan(self):
        tops = [to_tilting_datum(t) for t in enumerate_maximal_rigid(4)]
        with_top_2 = [d for d in tops if d.top_coordinate == 2]
        assert len(with_top_2) == 5

    def test_bogus_datum_rejected(self):
        d = to_tilting_datum(mr(3, (1, 2), (1, 1)))
        bad = type(d)(d.n, d.top_coordinate, frozenset({(0, 2)}))
        with pytest.raises(StructuralError):
            from_tilting_datum(bad)


class TestTiltingDatumOnIndices:
    """``tilting_datum_of`` and ``cluster_of_tilting_datum`` are the maps
    the ``counts`` suite runs on masks; the object maps wrap them."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_positions_are_socle_distances_from_the_top(self, n):
        # the object definition: socle distance from the top, cyclically
        for t in enumerate_maximal_rigid(n):
            top = t.top
            want = frozenset(((x.a - top.a) % n, x.b) for x in t.summands if x != top)
            d = to_tilting_datum(t)
            assert (d.top_coordinate, d.wing_positions) == (top.a, want)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_index_maps_are_inverse_and_agree_with_the_object_maps(self, n):
        table = rigid.rigid_table(n)
        for mask, t in zip(rigid.maximal_rigid_masks(n), enumerate_maximal_rigid(n)):
            top, wing = rigid.tilting_datum_of(table, mask)
            assert table.objects[top] == t.top and not wing & 1
            assert rigid.cluster_of_tilting_datum(table, top, wing) == mask
            back = from_tilting_datum(to_tilting_datum(t))
            assert table.mask_of(back.summands) == mask

    def test_witness_on_indices(self):
        table = rigid.rigid_table(4)
        for t in enumerate_maximal_rigid(4):
            for k in (2, 3, 5):
                w = rigid.tilting_witness(table, table.index[t.top], k)
                assert w == cluster_tilting_witness(t, k) == obj(t.top.a, 4 * k - 1, 4)
        with pytest.raises(ValueError, match="^witness index must be >= 2, got 1$"):
            rigid.tilting_witness(table, 0, 1)


class TestComplements:
    def test_single_simple(self):
        assert set(complements([obj(1, 1, 3)])) == {obj(1, 2, 3), obj(3, 2, 3)}

    def test_single_top(self):
        assert set(complements([obj(1, 2, 3)])) == {obj(1, 1, 3), obj(2, 1, 3)}

    def test_empty_at_rank_two(self):
        assert set(complements([], n=2)) == {obj(1, 1, 2), obj(2, 1, 2)}

    def test_summand_not_rigid(self):
        with pytest.raises(StructuralError):
            complements((obj(1, 3, 3),), 3)

    def test_summand_of_other_rank(self):
        with pytest.raises(StructuralError):
            complements((obj(1, 1, 4),), 3)

    def test_repeated_summand(self):
        with pytest.raises(StructuralError):
            complements((obj(1, 1, 4), obj(1, 1, 4)), 4)

    def test_almost_complete_not_rigid(self):
        with pytest.raises(StructuralError):
            complements((obj(1, 1, 4), obj(2, 1, 4)), 4)

    def test_wrong_number_of_summands(self):
        with pytest.raises(
            StructuralError, match="^almost complete object at rank 4 needs 2 summands, got 1$"
        ):
            complements((obj(1, 1, 4),))

    def test_empty_without_rank(self):
        with pytest.raises(
            ValueError, match="^rank is required for an empty almost complete object$"
        ):
            complements(())

    def test_always_exactly_two(self):
        for n in (2, 3, 4):
            for t in enumerate_maximal_rigid(n):
                for k in range(n - 1):
                    tbar = t.summands[:k] + t.summands[k + 1 :]
                    pair = complements(tbar, n)
                    assert len(set(pair)) == 2
                    assert t.summands[k] in pair


class TestWitnesses:
    def test_example_rank_three(self):
        t = mr(3, (1, 2), (1, 1))
        w = cluster_tilting_witness(t, 2)
        assert w == obj(1, 5, 3)
        assert all(ext_dim_cluster(s, w) == 0 for s in t.summands)
        assert ext_dim_cluster(w, w) > 0

    def test_coordinates(self):
        t = mr(4, (2, 3), (2, 2), (3, 1))
        assert cluster_tilting_witness(t, 2) == obj(2, 7, 4)
        assert cluster_tilting_witness(mr(3, (1, 2), (1, 1)), 3) == obj(1, 8, 3)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="^witness index must be >= 2, got 1$"):
            cluster_tilting_witness(mr(3, (1, 2), (1, 1)), 1)
