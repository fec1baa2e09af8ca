import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clustertube import (
    NilpotentRep,
    TubeObject,
    build_rep,
    hom_dim_oracle,
    hom_dim_tube,
)
from clustertube import reps, verify
from clustertube.cli import main
from clustertube.errors import RankMismatchError
from clustertube.linalg import integer_rank
from reference import oracle_by_elimination


def obj(a, b, n):
    return TubeObject(a, b, n)


def object_pairs(n):
    """Two indecomposables of rank ``n``, of quasi-length at most 2n."""
    x = st.builds(obj, st.integers(1, n), st.integers(1, 2 * n), st.just(n))
    return st.tuples(x, x)


def sparse(rows):
    """The ``{column: entry}`` rows that ``integer_rank`` takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction, on dense rows."""
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


@st.composite
def wide_sparse_matrices(draw):
    """Up to 30 columns, wider than any oracle matrix at rank 6: mostly
    rows of at most two nonzeros of +-1, as the intertwiner equations
    are, mixed with rows of entries up to 10**30 and with combinations
    of earlier rows."""
    m, k = draw(st.integers(0, 30)), draw(st.integers(1, 30))
    big = st.integers(-(10**30), 10**30)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["sparse", "sparse", "big", "combination"]))
        if kind == "sparse":
            row = [0] * k
            for col in draw(st.lists(st.integers(0, k - 1), max_size=2, unique=True)):
                row[col] = draw(st.sampled_from([-1, 1]))
        elif kind == "big" or not rows:
            row = [draw(st.one_of(st.just(0), big)) for _ in range(k)]
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(big), draw(big)
            row = [x * u + y * v for u, v in zip(a, b)]
        rows.append(row)
    return rows


class TestIntegerRank:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_equals_fraction_elimination(self, rows):
        assert integer_rank(sparse(rows)) == fraction_rank(rows)

    @settings(max_examples=200, deadline=None)
    @given(wide_sparse_matrices())
    def test_wide_sparse_equals_fraction_elimination(self, rows):
        assert integer_rank(sparse(rows)) == fraction_rank(rows)

    @settings(max_examples=100, deadline=None)
    @given(integer_matrices())
    def test_zero_entries_may_be_given(self, rows):
        full = [dict(enumerate(row)) for row in rows]
        assert integer_rank(full) == fraction_rank(rows)

    def test_oracle_equations_are_sparse(self):
        """The union-find oracle's precondition: at ranks 2..8, every
        arrow map is a 0/1 partial permutation, so each intertwiner
        equation has at most two nonzeros, both +-1."""
        for n in range(2, 9):
            for a in range(1, n + 1):
                for b in range(1, 2 * n + 1):
                    for mat in build_rep(obj(a, b, n)).arrow_maps:
                        assert all(set(line) <= {0, 1} for line in mat)
                        assert all(sum(line) <= 1 for line in (*mat, *zip(*mat)))

    def test_cycle_of_differences(self):
        # x0-x1, x1-x2, ..., x29-x0: the last row is minus the sum of the
        # others, so a cycle of 30 such rows has rank 29
        rows = [[0] * 30 for _ in range(30)]
        for i, row in enumerate(rows):
            row[i], row[(i + 1) % 30] = 1, -1
        assert integer_rank(sparse(rows)) == 29

    def test_empty(self):
        assert integer_rank([]) == 0

    def test_identity(self):
        assert integer_rank(sparse([[1, 0], [0, 1]])) == 2

    def test_dependent_rows(self):
        assert integer_rank(sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])) == 2

    def test_needs_exact_arithmetic(self):
        # ill-conditioned for floats, exact for us
        m = [[10**9, 1], [10**9 - 1, 1]]
        assert integer_rank(sparse(m)) == 2


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

    @pytest.mark.parametrize(
        "dims,maps", [((1,), (((1,),), ((1,),))), ((1, 1), (((1,),),))]
    )
    def test_one_dimension_and_one_map_per_vertex(self, dims, maps):
        with pytest.raises(
            ValueError, match="^need one dimension and one arrow map per vertex$"
        ):
            NilpotentRep(2, dims, maps)

    def test_arrow_map_shape(self):
        with pytest.raises(ValueError, match="^arrow map at vertex 1 has wrong shape$"):
            NilpotentRep(2, (1, 1), (((1, 1),), ((1,),)))

    @pytest.mark.parametrize(
        "vertex,maps",
        [
            (1, (((2,),), ((1,),))),
            (1, (((1,), (1,)), ((0, 0),))),
            (2, (((1,), (0,)), ((1, 1),))),
        ],
        ids=["entry-2", "two-in-a-column", "two-in-a-row"],
    )
    def test_arrow_lines_need_partial_permutations(self, vertex, maps):
        """An entry other than 0 or 1, or two 1s in one line, is rejected
        where the index lists are built, never read as a wrong dimension."""
        rep = NilpotentRep(2, (len(maps[1]), len(maps[0])), maps)
        with pytest.raises(
            ValueError,
            match=f"^arrow map at vertex {vertex} is not a 0/1 partial permutation$",
        ):
            rep.arrow_lines

    def test_arrow_lines_are_built_once(self):
        rep = build_rep(obj(2, 5, 3))
        assert rep.arrow_lines is rep.arrow_lines
        # basis v_4 at 1, v_2 v_5 at 2, v_3 v_6 at 3; the arrow 1 -> 3
        # sends v_4 to v_3, and 2 -> 1 kills the socle v_2, sends v_5 to v_4
        assert rep.arrow_lines[0] == ((0, None), (0,))
        assert rep.arrow_lines[1] == ((1,), (None, 0))

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
        with pytest.raises(RankMismatchError, match="^rank mismatch: 3 vs 4$"):
            hom_dim_oracle(obj(1, 1, 3), obj(1, 1, 4))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12).flatmap(object_pairs))
    def test_agrees_with_formula_beyond_the_exhaustive_ranks(self, pair):
        x, y = pair
        assert hom_dim_oracle(x, y) == hom_dim_tube(x, y)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cold_suite_builds_each_rep_once(self, n, monkeypatch):
        built = []
        validate = NilpotentRep.__post_init__

        def counted(rep):
            built.append(rep)
            validate(rep)

        build_rep.cache_clear()
        monkeypatch.setattr(NilpotentRep, "__post_init__", counted)
        assert all(c.ok for c in verify.suite_hom(n))
        assert len(built) == len(set(built)) == 2 * n * n

    def test_doctored_rank_fails_formula_vs_oracle(self, monkeypatch, capsys):
        """A dimension off by one on the seventh pair, ``(1,1)@3`` against
        ``(2,1)@3``, is reported as that pair, with exit 1."""
        calls = []
        count = reps._free_classes

        def off_by_one_once(size, equations):
            calls.append(equations)
            return count(size, equations) + (len(calls) == 7)

        monkeypatch.setattr(reps, "_free_classes", off_by_one_once)
        assert main(["verify", "--suite", "hom", "--rank", "3"]) == 1
        out = capsys.readouterr().out
        pair = (obj(1, 1, 3), obj(2, 1, 3))
        assert f"FAIL hom/formula-vs-oracle: disagree on {pair}\n" in out
        assert out.endswith("FAIL suite=hom rank=3\n")

    @pytest.mark.parametrize("n", range(2, 6))
    def test_union_find_equals_elimination(self, n):
        objs = [obj(a, b, n) for a in range(1, n + 1) for b in range(1, 2 * n + 1)]
        for x in objs:
            for y in objs:
                assert hom_dim_oracle(x, y) == oracle_by_elimination(x, y), (x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12).flatmap(object_pairs))
    def test_union_find_equals_elimination_beyond_the_exhaustive_ranks(self, pair):
        x, y = pair
        assert hom_dim_oracle(x, y) == oracle_by_elimination(x, y)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_small(self, n):
        objs = [
            obj(a, b, n) for a in range(1, n + 1) for b in range(1, 2 * n + 1)
        ]
        for x in objs:
            for y in objs:
                assert hom_dim_oracle(x, y) == hom_dim_tube(x, y), (x, y)


# ``_hom`` is the coordinate formula the other three call
FORMULAS = {"hom_dim_tube", "hom_dim_cluster", "ext_dim_cluster", "_hom"}


@pytest.mark.parametrize("module", ["reps.py", "linalg.py"])
def test_oracle_never_names_the_closed_formulas(module):
    """The oracle is an independent route only if it never consults the
    formulas it checks: no import, attribute or name refers to them."""
    tree = ast.parse(Path(reps.__file__).with_name(module).read_text())
    names = {
        getattr(node, attr)
        for node in ast.walk(tree)
        for attr in ("id", "attr", "name")
        if isinstance(getattr(node, attr, None), str)
    }
    assert not names & FORMULAS
