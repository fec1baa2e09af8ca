import re

import pytest
from hypothesis import given, strategies as st

from clustertube import (
    Diagonal,
    MaximalRigid,
    RankMismatchError,
    TubeObject,
    enumerate_rigid_indecs,
    ext_dim_cluster,
    hom_dim_cluster,
    hom_dim_tube,
    is_rigid_indec,
    tau,
    wing_contains,
)
from clustertube.polygon import polygon_table
from clustertube.rigid import rigid_table
from clustertube.tube import check_rank


def obj(a, b, n):
    return TubeObject(a, b, n)


tube_objects = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.integers(1, n), st.integers(1, 2 * n), st.just(n))
).map(lambda t: TubeObject(*t))


class TestCoordinates:
    def test_validation(self):
        with pytest.raises(ValueError):
            obj(0, 1, 3)
        with pytest.raises(ValueError):
            obj(4, 1, 3)
        with pytest.raises(ValueError):
            obj(1, 0, 3)
        with pytest.raises(ValueError):
            obj(1, 1, 1)

    def test_one_rank_check(self):
        # a diagonal belongs to a polygon, so no message names the tube
        for build in (
            lambda: TubeObject(1, 1, 1),
            lambda: Diagonal(1, 3, 1),
            lambda: enumerate_rigid_indecs(1),
        ):
            with pytest.raises(ValueError, match="^rank must be >= 2, got 1$"):
                build()

    @pytest.mark.parametrize("n", [3.0, True, "3", None])
    @pytest.mark.parametrize(
        "build",
        [
            check_rank,
            rigid_table,
            polygon_table,
            lambda n: MaximalRigid(n, (TubeObject(1, 2, 3), TubeObject(1, 1, 3))),
        ],
        ids=["check_rank", "rigid_table", "polygon_table", "MaximalRigid"],
    )
    def test_rank_that_is_not_an_int(self, build, n):
        # a ValueError, not a TypeError from range(), with the rank-3
        # tables warm: lru_cache keys a lone int argument by the int
        # itself, so rank 3.0 misses them and reaches check_rank
        rigid_table(3), polygon_table(3)
        with pytest.raises(ValueError, match=f"^rank must be an int, got {re.escape(repr(n))}$"):
            build(n)

    @pytest.mark.parametrize(
        "coords", [(True, 2, 3), (1.5, 2, 3), (1, 2.0, 3), (1, 2, True), ("1", 2, 3)]
    )
    def test_rejects_non_int_coordinates(self, coords):
        with pytest.raises(ValueError):
            TubeObject(*coords)

    def test_tau_wraps_first_coordinate(self):
        assert tau(obj(1, 1, 3)) == obj(3, 1, 3)

    def test_tau_preserves_quasi_length(self):
        assert tau(obj(2, 5, 3)) == obj(1, 5, 3)


class TestHomTube:
    def test_simple_endomorphism(self):
        assert hom_dim_tube(obj(1, 1, 3), obj(1, 1, 3)) == 1

    def test_distinct_simples(self):
        assert hom_dim_tube(obj(1, 1, 3), obj(2, 1, 3)) == 0

    def test_drop_map(self):
        assert hom_dim_tube(obj(1, 2, 3), obj(2, 1, 3)) == 1

    def test_long_self_maps(self):
        # identity plus the length-3-drop endomorphism
        assert hom_dim_tube(obj(1, 6, 3), obj(1, 6, 3)) == 2

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            hom_dim_tube(obj(1, 1, 3), obj(1, 1, 4))


class TestHomCluster:
    def test_loop_space_of_wing_top(self):
        assert hom_dim_cluster(obj(1, 2, 3), obj(1, 2, 3)) == 2

    def test_simple_to_simple(self):
        assert hom_dim_cluster(obj(1, 1, 3), obj(2, 1, 3)) == 1

    def test_rank_two_simple(self):
        assert hom_dim_cluster(obj(1, 1, 2), obj(1, 1, 2)) == 2

    @given(tube_objects, st.data())
    def test_contains_tube_hom(self, x, data):
        y = data.draw(
            st.tuples(st.integers(1, x.n), st.integers(1, 2 * x.n)).map(
                lambda t: TubeObject(t[0], t[1], x.n)
            )
        )
        assert hom_dim_cluster(x, y) >= hom_dim_tube(x, y)


class TestExtCluster:
    def test_rigid_self(self):
        assert ext_dim_cluster(obj(1, 2, 3), obj(1, 2, 3)) == 0

    def test_non_rigid_self(self):
        assert ext_dim_cluster(obj(1, 3, 3), obj(1, 3, 3)) == 2

    def test_two_tops(self):
        assert ext_dim_cluster(obj(1, 2, 3), obj(2, 2, 3)) == 2

    @given(tube_objects, st.data())
    def test_symmetric(self, x, data):
        y = data.draw(
            st.tuples(st.integers(1, x.n), st.integers(1, 2 * x.n)).map(
                lambda t: TubeObject(t[0], t[1], x.n)
            )
        )
        assert ext_dim_cluster(x, y) == ext_dim_cluster(y, x)

    @given(tube_objects)
    def test_self_ext_iff_long(self, x):
        assert (ext_dim_cluster(x, x) == 0) == (x.b <= x.n - 1)


def hom_cluster_by_tau(x, y):
    """The definition by tau-composition: tube maps plus the dual of tube
    maps from ``y`` into the double translate of ``x``."""
    return hom_dim_tube(y, tau(tau(x))) + hom_dim_tube(x, y)


def ext_cluster_by_tau(x, y):
    """Ext^1 by tau-composition: ``Hom(y, tau x) + Hom(x, tau y)``."""
    return hom_dim_tube(y, tau(x)) + hom_dim_tube(x, tau(y))


class TestCoordinateHelper:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_equals_tau_composition(self, n):
        objs = [obj(a, b, n) for a in range(1, n + 1) for b in range(1, 3 * n + 1)]
        for x in objs:
            for y in objs:
                assert hom_dim_cluster(x, y) == hom_cluster_by_tau(x, y), (x, y)
                assert ext_dim_cluster(x, y) == ext_cluster_by_tau(x, y), (x, y)

    @given(
        st.integers(2, 40).flatmap(
            lambda n: st.tuples(
                *[st.tuples(st.integers(1, n), st.integers(1, 3 * n), st.just(n))] * 2
            )
        )
    )
    def test_equals_tau_composition_up_to_rank_40(self, pair):
        x, y = (TubeObject(*t) for t in pair)
        assert hom_dim_cluster(x, y) == hom_cluster_by_tau(x, y)
        assert ext_dim_cluster(x, y) == ext_cluster_by_tau(x, y)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            hom_dim_cluster(obj(1, 1, 3), obj(1, 1, 4))
        with pytest.raises(RankMismatchError):
            ext_dim_cluster(obj(1, 1, 3), obj(1, 1, 4))


class TestRigidAndWing:
    def test_is_rigid(self):
        assert is_rigid_indec(obj(1, 2, 3))
        assert not is_rigid_indec(obj(1, 3, 3))
        assert is_rigid_indec(obj(5, 7, 8))

    def test_wing_membership(self):
        assert wing_contains(obj(1, 2, 3), obj(2, 1, 3))
        assert not wing_contains(obj(1, 2, 3), obj(3, 1, 3))

    @given(tube_objects)
    def test_wing_has_top_on_top(self, x):
        assert wing_contains(x, x)

    def test_wing_wraps_cyclically(self):
        # socle 1 lifts into [3, 6) as 4 inside the wing of (3, 2) at n=3
        assert wing_contains(obj(3, 2, 3), obj(1, 1, 3))
