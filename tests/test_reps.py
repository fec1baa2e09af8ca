from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clustertube import (
    NilpotentRep,
    TubeObject,
    build_rep,
    hom_dim_oracle,
    hom_dim_tube,
)
from clustertube.errors import RankMismatchError
from clustertube.linalg import integer_rank


def obj(a, b, n):
    return TubeObject(a, b, n)


def object_pairs(n):
    """Two indecomposables of rank ``n``, of quasi-length at most 2n."""
    x = st.builds(obj, st.integers(1, n), st.integers(1, 2 * n), st.just(n))
    return st.tuples(x, x)


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Random shapes with entries up to 10**30, and rows built as
    combinations of earlier ones so that rank deficiency is common."""
    m, k = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    big = st.integers(-(10**30), 10**30)
    entry = st.one_of(st.integers(-3, 3), big)
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(big), draw(big)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        else:
            rows.append([draw(entry) for _ in range(k)])
    return rows


class TestIntegerRank:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_equals_fraction_elimination(self, rows):
        assert integer_rank(rows) == fraction_rank(rows)

    def test_empty(self):
        assert integer_rank([]) == 0

    def test_identity(self):
        assert integer_rank([[1, 0], [0, 1]]) == 2

    def test_dependent_rows(self):
        assert integer_rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2

    def test_needs_exact_arithmetic(self):
        # ill-conditioned for floats, exact for us
        m = [[10**9, 1], [10**9 - 1, 1]]
        assert integer_rank(m) == 2


class TestBuildRep:
    def test_simple(self):
        r = build_rep(obj(1, 1, 3))
        assert r.dims == (1, 0, 0)
        assert all(not any(any(row) for row in m) for m in r.arrow_maps)

    def test_full_layer(self):
        r = build_rep(obj(1, 3, 3))
        assert r.dims == (1, 1, 1)
        units = sum(v for m in r.arrow_maps for row in m for v in row)
        assert units == 2
        # the socle vertex receives no arrow image onto v_1's preimage:
        # the arrow out of vertex 1 is the zero map
        assert not any(any(row) for row in r.arrow_maps[0])

    def test_wrapped(self):
        r = build_rep(obj(2, 4, 3))
        assert r.total_dim == 4
        assert r.dims == (1, 2, 1)

    def test_cycle_nilpotent(self):
        for x in [obj(1, 1, 2), obj(2, 5, 3), obj(3, 8, 4)]:
            assert build_rep(x).cycle_is_nilpotent()

    def test_cycle_not_nilpotent(self):
        # a one-dimensional space at each vertex, every arrow the identity
        rep = NilpotentRep(2, (1, 1), (((1,),), ((1,),)))
        assert not rep.cycle_is_nilpotent()
        # identity arrows, but every path passes the zero space at vertex 2
        rep = NilpotentRep(3, (1, 0, 1), (((1,),), ((),), ()))
        assert rep.cycle_is_nilpotent()


class TestOracle:
    def test_simple(self):
        assert hom_dim_oracle(obj(1, 1, 3), obj(1, 1, 3)) == 1

    def test_agrees_with_formula(self):
        assert hom_dim_oracle(obj(1, 2, 3), obj(3, 2, 3)) == hom_dim_tube(
            obj(1, 2, 3), obj(3, 2, 3)
        )

    def test_long_self(self):
        assert hom_dim_oracle(obj(1, 6, 3), obj(1, 6, 3)) == 2

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            hom_dim_oracle(obj(1, 1, 3), obj(1, 1, 4))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12).flatmap(object_pairs))
    def test_agrees_with_formula_beyond_the_exhaustive_ranks(self, pair):
        x, y = pair
        assert hom_dim_oracle(x, y) == hom_dim_tube(x, y)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_small(self, n):
        objs = [
            obj(a, b, n) for a in range(1, n + 1) for b in range(1, 2 * n + 1)
        ]
        for x in objs:
            for y in objs:
                assert hom_dim_oracle(x, y) == hom_dim_tube(x, y), (x, y)
