import pytest

from clustertube import (
    MaximalRigid,
    StructuralError,
    TubeObject,
    cluster_tilting_witness,
    complements,
    enumerate_maximal_rigid,
    enumerate_rigid_indecs,
    ext_dim_cluster,
    from_tilting_datum,
    is_rigid_set,
    to_tilting_datum,
    top_summand,
    wing_contains,
)


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


class TestMaximalRigidType:
    def test_canonical_order(self):
        t = mr(3, (1, 1), (1, 2))
        assert t.summands == (obj(1, 2, 3), obj(1, 1, 3))

    def test_top(self):
        assert top_summand(mr(3, (1, 2), (1, 1))) == obj(1, 2, 3)
        assert top_summand(mr(4, (1, 3), (1, 2), (1, 1))) == obj(1, 3, 4)

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
        with pytest.raises(ValueError):
            cluster_tilting_witness(mr(3, (1, 2), (1, 1)), 1)
