"""The 2n-gon model one triangulation at a time: centrally symmetric
diagonal pairs, their crossings, delta, and the B-matrix read off a
triangulation.

Rigid indecomposables map to centrally symmetric pairs of diagonals of a
2n-gon (diameters count as degenerate pairs), maximal rigid objects map
to centrally symmetric triangulations, and exchange corresponds to
flipping.  Crossing counts here are the geometric side of the Ext
dimension formula: crossing_points(dX, dY) = 2 dim Ext^1(X, Y).
:func:`local_matrix` reads an object's B-matrix off the triangles of its
triangulation, with no exchange graph.

Corners are labelled clockwise 1..2n; all corner arithmetic is reduced
into that range.  The records wrap corner ints: a cs pair is keyed by its
lower member's corners ``(p, q)``, p < q, and one predicate on two such
tuples, ``_cross``, decides every crossing.

This is the model layer: it imports only ``errors``, ``tube`` and
:mod:`.rigid_model`, and :mod:`.polygon` builds the integer table, the
triangulations and the flip graph over it.
"""

from __future__ import annotations

from .errors import StructuralError, TheoremViolationError
from .rigid_model import MaximalRigid, Rows, bit_indices
from .tube import (
    FrozenRecord,
    TubeObject,
    check_coordinates,
    check_int,
    check_rank,
    is_rigid_indec,
)


def _turned(p: int, q: int, n: int, k: int) -> tuple[int, int]:
    """The corners of the diagonal [p, q] turned by ``k`` corners, reduced
    into 1..2n, in order."""
    p, q = (p + k - 1) % (2 * n) + 1, (q + k - 1) % (2 * n) + 1
    return (p, q) if p < q else (q, p)


class Diagonal(FrozenRecord):
    """Unordered diagonal [p, q] of the 2n-gon; p < q after reduction."""

    __slots__ = _fields = ("p", "q", "n")

    def __init__(self, p: int, q: int, n: int) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_coordinates(self, ("p", "q", "n"))
        p, q = _turned(self.p, self.q, self.n, 0)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p == q:
            raise StructuralError(f"degenerate diagonal [{p},{q}]")
        if q - p == 1 or q - p == 2 * self.n - 1:
            raise StructuralError(f"[{p},{q}] is an edge of the {2 * self.n}-gon")

    def __repr__(self) -> str:
        return f"[{self.p},{self.q}]"


class CsPair(FrozenRecord):
    """Centrally symmetric pair of diagonals; a diameter is degenerate
    (its two representatives coincide and it counts twice in crossings)."""

    __slots__ = _fields = ("d1", "d2", "n")

    def __init__(self, d1: Diagonal, d2: Diagonal, n: int) -> None:
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "n", n)
        self.__post_init__()

    def __post_init__(self) -> None:
        d1, d2, n = self.d1, self.d2, self.n
        for d in (d1, d2):
            if d.__class__ is not Diagonal:
                raise StructuralError(f"{d!r} is not a diagonal")
        check_int(n, "rank")  # an int below 2 is no diagonal's rank: the next test names it
        if d1.n != n:
            raise StructuralError(f"{d1} is not a diagonal of the {2 * n}-gon")
        if d2.n != n or _turned(d1.p, d1.q, n, n) != (d2.p, d2.q):
            raise StructuralError(f"{d2} is not the half-turn of {d1}")
        if (d2.p, d2.q) < (d1.p, d1.q):
            object.__setattr__(self, "d1", d2)
            object.__setattr__(self, "d2", d1)

    @classmethod
    def of(cls, d: Diagonal) -> "CsPair":
        return cls(d, Diagonal(d.p + d.n, d.q + d.n, d.n), d.n)

    @property
    def degenerate(self) -> bool:
        return self.d1 == self.d2

    @property
    def diagonals(self) -> tuple[Diagonal, ...]:
        return (self.d1,) if self.degenerate else (self.d1, self.d2)

    def __repr__(self) -> str:
        return f"{self.d1}" if self.degenerate else f"({self.d1},{self.d2})"


def _cross(d: tuple[int, int], e: tuple[int, int]) -> bool:
    """Do the diagonals of corners d, e, each in order, cross?  Not at a shared corner."""
    (p, q), (r, s) = d, e
    return p < r < q < s or r < p < s < q


def diagonals_cross(d: Diagonal, e: Diagonal) -> bool:
    """Strict interior crossing; shared endpoints and equality do not count."""
    if d.n != e.n:
        raise StructuralError("diagonals of different polygons")
    return _cross((d.p, d.q), (e.p, e.q))


def crossing_points(p1: CsPair, p2: CsPair) -> int:
    """Crossings over the 2x2 grid of representatives (diameters doubled)."""
    return sum(diagonals_cross(d, e) for d in (p1.d1, p1.d2) for e in (p2.d1, p2.d2))


class CsTriangulation(FrozenRecord):
    """Centrally symmetric triangulation: n-1 pairwise non-crossing
    CsPairs, exactly one of them a diameter."""

    __slots__ = _fields = ("n", "pairs")

    def __init__(self, n: int, pairs: frozenset[CsPair]) -> None:
        self._set(n, pairs)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_rank(self.n)
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for p in self.pairs:
            if p.__class__ is not CsPair:
                raise StructuralError(f"{p!r} is not a cs pair")
        if any(p.n != self.n for p in self.pairs):
            raise StructuralError(
                f"pairs of another polygon than the {2 * self.n}-gon"
            )
        if len(self.pairs) != self.n - 1:
            raise StructuralError(
                f"expected {self.n - 1} pairs, got {len(self.pairs)}"
            )
        pairs = sorted(self.pairs, key=_pair_key)
        for i, a in enumerate(pairs):
            for b in pairs[i + 1 :]:
                if crossing_points(a, b) != 0:
                    raise StructuralError(f"{a} crosses {b}")
        diameters = [p for p in pairs if p.degenerate]
        if len(diameters) != 1:
            raise StructuralError(f"{len(diameters)} diameters in {pairs}")

    def sorted_pairs(self) -> list[CsPair]:
        return sorted(self.pairs, key=_pair_key)


def _pair_key(p: CsPair) -> tuple[int, int]:
    return (p.d1.p, p.d1.q)


def delta(x: TubeObject) -> CsPair:
    """(a, b) -> ([a, a+b+1], [a+n, a+b+1+n]); defined on rigid objects."""
    if not is_rigid_indec(x):
        raise StructuralError(f"{x} is not rigid; delta is undefined")
    return CsPair.of(Diagonal(x.a, x.a + x.b + 1, x.n))


def triangulation_of(t: MaximalRigid) -> CsTriangulation:
    """Image of a maximal rigid object under delta, summand-wise."""
    return CsTriangulation(t.n, frozenset(delta(x) for x in t.summands))


def local_matrix(t: MaximalRigid) -> Rows:
    """The B-matrix of ``t``, in canonical summand order, read off the
    triangles of delta(t): the signed adjacency of Fomin, Shapiro and
    Thurston (math/0608367), folded for type B as in Fomin and Zelevinsky
    (hep-th/0111053, section 12).

    Each triangle, corners p < q < r, gives +1 from each of its sides
    that is a diagonal to the next, in the order [p, q], [q, r], [p, r],
    and -1 back.  Folded, entry (a, b) sums these from the diagonals of
    pair b into one member e of pair a, since the half-turn carries either
    member's sums onto the other's.  So row a reads only e's two
    triangles, e the member [x.a, x.a+x.b+1] that delta gives summand a:
    in the order above e runs from its tail to its head, and
    with apex r the side [r, tail] before it gives +1 and the side
    [head, r] after it -1.  Each diagonal lies on exactly two triangles
    of a triangulation, its apexes, the common neighbours of its corners.
    """
    n, summands = t.n, t.summands
    size = 2 * n
    near = [0] + [1 << c % size + 1 | 1 << (c - 2) % size + 1 for c in range(1, size + 1)]
    pair, members = {}, []  # each diagonal's corners -> its summand's position; e of each
    for a, x in enumerate(summands):
        e = x.a, x.a + x.b + 1  # in order, within 1..2n, as 1 <= a <= n and b <= n-1
        members.append(e)
        for p, q in (e, _turned(*e, n, n)):
            pair[p, q] = a
            near[p] |= 1 << q
            near[q] |= 1 << p
    rows = []
    for x, y in members:
        row = [0] * len(summands)
        apexes = bit_indices(near[x] & near[y])
        if len(apexes) != 2:
            raise TheoremViolationError(
                f"[{x},{y}] of delta({t}) lies on {len(apexes)} triangles, not 2"
            )
        for r in apexes:
            tail, head = (y, x) if x < r < y else (x, y)
            before, after = pair.get(_turned(r, tail, n, 0)), pair.get(_turned(head, r, n, 0))
            if before is not None:
                row[before] += 1
            if after is not None:
                row[after] -= 1
        rows.append(tuple(row))
    return tuple(rows)
