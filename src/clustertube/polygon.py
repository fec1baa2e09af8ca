"""The 2n-gon model: centrally symmetric diagonal pairs and flips.

Rigid indecomposables map to centrally symmetric pairs of diagonals of a
2n-gon (diameters count as degenerate pairs), maximal rigid objects map
to centrally symmetric triangulations, and exchange corresponds to
flipping.  Crossing counts here are the geometric side of the Ext
dimension formula: crossing_points(dX, dY) = 2 dim Ext^1(X, Y).

The pairs of one rank are numbered by delta (:class:`PolygonTable`, all
ints): pair ``i`` is the image of the rigid indecomposable of canonical
index ``i``, the pairs must be exactly :func:`all_cs_pairs`, and turning
the 2n-gon by one corner rotates pair masks by n-1 bits, as tau does
rigid masks.  Non-crossing is one bitmask per pair, read off the
crossings of corners alone, and a triangulation is a mask.

The flip graph is a second route to the exchange graph, from the 2n-gon
alone: :func:`_all_triangulations` builds the triangulations through the
lowest diameter from those of sub-polygons, and
:attr:`PolygonTable.flips` reads each flip off the two triangles on the
flipped diagonal; the non-crossing table only has to show that no
maximal set of its avoids every diameter.  :func:`flip` turns any
triangulation onto the lowest diameter and flips it by the same kernel.
Both graphs hand their turning-orbit representatives and targets to
:func:`~clustertube.rigid.orbit_graph`, and expand their ``nodes`` and
flat ``edges`` by the one :class:`~clustertube.rigid.QuotientGraph`
expansion when read.  Graph nodes are masks; with one numbering for both models, delta carries the
exchange graph onto the flip graph exactly when the two have equal
representatives, marked vertices (tops, diameters) and blocks, which
compares triangulations and flips from geometry with maximal rigid
objects and exchanges from Ext.

Corners are labelled clockwise 1..2n; all corner arithmetic is reduced
into that range.  The records wrap corner ints: a cs pair is keyed by its
lower member's corners ``(p, q)``, p < q, and one predicate on two such
tuples, ``_cross``, decides every crossing.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property, lru_cache

from .errors import StructuralError, TheoremViolationError
from .rigid import (
    MaximalRigid,
    QuotientGraph,
    bit_indices,
    maximal_cliques,
    orbit_graph,
    rotate,
    tau_swept,
)
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


def delta_inv(p: CsPair) -> TubeObject:
    """Inverse of delta, by reading b off an oriented representative."""
    n = p.n
    candidates = set()
    for d in (p.d1, p.d2):
        for start, end in ((d.p, d.q), (d.q, d.p)):
            b = (end - start - 1) % (2 * n)
            if 1 <= b <= n - 1 and 1 <= start <= n:
                candidates.add(TubeObject(start, b, n))
    if len(candidates) != 1:
        raise StructuralError(f"{p} has {len(candidates)} preimages: {candidates}")
    return candidates.pop()


def all_cs_pairs(n: int) -> tuple[CsPair, ...]:
    """All centrally symmetric pairs of the 2n-gon; there are n(n-1)."""
    check_rank(n)
    return tuple(CsPair.of(Diagonal(p, q, n)) for p, q in _cs_keys(n))


def _cs_keys(n: int) -> list[tuple[int, int]]:
    """The corners of each cs pair's lower member, in order: the [p, q],
    p <= n, that are no edge, and whose half-turn [q-n, p+n] is not lower."""
    ends = (range(p + 2, 2 * n + 1 - (p == 1)) for p in range(1, n + 1))
    return [(p, q) for p, qs in enumerate(ends, 1) for q in qs if q <= n or q - p >= n]


def triangulation_of(t: MaximalRigid) -> CsTriangulation:
    """Image of a maximal rigid object under delta, summand-wise."""
    return CsTriangulation(t.n, frozenset(delta(x) for x in t.summands))


class PolygonTable(FrozenRecord):
    """The n(n-1) cs pairs of rank n, numbered by delta: pair ``i`` is
    delta of the rigid indecomposable of canonical index ``i``.  The
    fields are ints: each pair's lower member's corners, and non-crossing
    as bitmasks, so a set of pairs is a mask, and a rigid mask and its
    image under delta are the same int.  The :class:`CsPair` records and
    the corner lookup are built on first read."""

    _fields = ("n", "keys", "noncross", "diameters")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds what is built on first read

    def __init__(
        self,
        n: int,
        # keys[i]: the corners (p, q), p < q, of pair i's lower member
        keys: tuple[tuple[int, int], ...],
        # bit j of noncross[i]: j != i and crossing_points(pairs[i], pairs[j]) = 0
        noncross: tuple[int, ...],
        # the n diameters (degenerate pairs)
        diameters: int,
    ) -> None:
        self._set(n, keys, noncross, diameters)

    @cached_property
    def pairs(self) -> tuple[CsPair, ...]:
        return tuple(CsPair.of(Diagonal(p, q, self.n)) for p, q in self.keys)

    @cached_property
    def index(self) -> dict[CsPair, int]:
        return {p: i for i, p in enumerate(self.pairs)}

    @cached_property
    def pair_at(self) -> list[int]:
        """``pair_at[p*(2n+1) + q]``: the pair with the diagonal [p, q] of
        corners ``p`` and ``q`` in either order, or -1 at an edge."""
        n, w = self.n, 2 * self.n + 1
        at = [-1] * (w * w)
        for i, (p, q) in enumerate(self.keys):
            for r, s in ((p, q), _turned(p, q, n, n)):
                at[r * w + s] = at[s * w + r] = i
        return at

    @cached_property
    def flips(self) -> Callable[[int], list[int]]:
        """The flips of a triangulation through the lowest diameter, given
        its mask: the masks it becomes, lowest flipped pair first.

        Each pair has a member [p, q] in the half polygon on corners
        1..n+1, which lies on two triangles, whose apexes are the common
        neighbours of p and q there; the flip is the diagonal joining
        them, :func:`_flipped`, which must be a diagonal of the 2n-gon.
        The diameter [1, n+1] has one apex k on the half polygon, the
        other its half-turn k+n.
        """
        n, w = self.n, 2 * self.n + 1
        at, half = self.pair_at, n + 1
        # each pair's member on the half polygon, as its corners and their bits
        ends: list = [None] * len(self.keys)
        for p in range(1, half + 1):
            for q in range(p + 2, half + 1):
                ends[at[p * w + q]] = (p, q, 1 << p, 1 << q)
        # the common neighbours of a flipped diagonal's corners -> the new pair's bit
        # (one apex, between the diameter's corners, or two that no side joins)
        flipped = {}
        for a, b in [(a, a) for a in range(2, half)] + [
            (a, b) for a in range(1, half + 1) for b in range(a + 2, half + 1)
        ]:
            r, s = _flipped(a, b, n)
            if not (0 < r <= 2 * n and 0 < s <= 2 * n and at[r * w + s] >= 0):
                raise TheoremViolationError(
                    f"the flip with apexes {a} and {b} at rank {n} joins corners "
                    f"{r} and {s}, no diagonal of the {2 * n}-gon"
                )
            flipped[1 << a | 1 << b] = 1 << at[r * w + s]
        # each corner's neighbours along the sides of the half polygon
        corners = (1 << half + 1) - 2
        sides = [0] + [(1 << c - 1 | 1 << c + 1) & corners for c in range(1, half + 1)]

        def flips(mask: int) -> list[int]:
            near, found, m = sides[:], [], mask
            while m:
                low = m & -m
                p, q, bp, bq = ends[low.bit_length() - 1]
                near[p] |= bq
                near[q] |= bp
                found.append((low, p, q))
                m ^= low
            return [mask ^ low | flipped[near[p] & near[q]] for low, p, q in found]

        return flips

    def flip(self, mask: int, i: int) -> int:
        """The triangulation ``mask`` with pair ``i`` flipped, by
        :attr:`flips`: turned onto the lowest diameter, flipped there and
        turned back.  Its diameter [c, c+n] is pair (c-1)(n-1), and turning
        by one corner rotates masks by n-1 bits."""
        size = len(self.keys)
        shift = (mask & self.diameters).bit_length() - 1
        low = rotate(mask, -shift, size)
        below = (1 << (i - shift) % size) - 1
        return rotate(self.flips(low)[(low & below).bit_count()], shift, size)

    def mask_of(self, tri: CsTriangulation) -> int:
        return sum(1 << self.index[p] for p in tri.pairs)

    def triangulation(self, mask: int) -> CsTriangulation:
        return CsTriangulation(
            self.n, frozenset(self.pairs[i] for i in bit_indices(mask))
        )


def _image(a: int, b: int, n: int) -> tuple[int, int]:
    """delta of the rigid indecomposable ``(a, b)`` on corners: its lower
    member's, in order."""
    return min((a, a + b + 1), _turned(a, a + b + 1, n, n))


@lru_cache(maxsize=None)
def polygon_table(n: int) -> PolygonTable:
    """The integer table of rank ``n``, built on corner ints alone.

    The pairs are numbered by delta, but must be every cs pair of the
    2n-gon, once each, and pair i+n-1 (mod n(n-1)) must be pair i turned
    by one corner.  Non-crossing is read off the crossing kernel alone,
    never off Ext, for the n-1 pairs of socle 1, and rotated from there
    (:func:`~clustertube.rigid.tau_swept`), so crossing = 2 Ext stays a
    check between two routes.
    """
    check_rank(n)
    # the rigid indecomposables (a, b) in canonical order: by socle, then
    # by decreasing quasi-length
    keys = tuple(_image(a, b, n) for a in range(1, n + 1) for b in range(n - 1, 0, -1))
    if sorted(keys) != _cs_keys(n):
        found = set(keys)
        missed = [p for p, key in zip(all_cs_pairs(n), _cs_keys(n)) if key not in found]
        raise TheoremViolationError(f"delta misses the cs pairs {missed} of the {2 * n}-gon")
    size, step = len(keys), n - 1
    for i, (p, q) in enumerate(keys):
        if keys[(i + step) % size] != min(_turned(p, q, n, 1), _turned(p, q, n, n + 1)):
            raise TheoremViolationError(
                f"delta does not commute with turning the {2 * n}-gon at "
                f"{CsPair.of(Diagonal(p, q, n))}"
            )
    corners = [(d, _turned(*d, n, n)) for d in keys]

    def row(i: int) -> int:
        # the half-turn carries (d2, e2) onto (d, e1) and (d2, e1) onto (d, e2)
        d = keys[i]
        return sum(
            1 << j
            for j, (e1, e2) in enumerate(corners)
            if j != i and not (_cross(d, e1) or _cross(d, e2))
        )

    diameters = sum(1 << i for i, (p, q) in enumerate(keys) if q - p == n)
    return PolygonTable(n, keys, tau_swept(n, row), diameters)


def flip(tri: CsTriangulation, p: CsPair) -> CsTriangulation:
    """Replace ``p`` by the unique other pair keeping a triangulation,
    by :meth:`PolygonTable.flip`."""
    if p not in tri.pairs:
        raise ValueError(f"{p} is not in the triangulation")
    table = polygon_table(tri.n)
    return table.triangulation(table.flip(table.mask_of(tri), table.index[p]))


class FlipGraph(QuotientGraph):
    """All centrally symmetric triangulations, with flip edges, as the
    turning quotient, ``reps`` and ``blocks`` from
    :func:`~clustertube.rigid.orbit_graph`, diameters marked: only the
    triangulations through the lowest diameter are flipped, each by
    :attr:`PolygonTable.flips`, on corners.  Built on first read:
    ``nodes``, the pair masks, and ``edges[a*(n-1)+k]``, the node reached
    by flipping the k-th lowest pair of node ``a``.  Every flip must land
    on a node.
    """

    def __init__(self, n: int):
        self.n = n
        table = polygon_table(n)
        self.marked = table.diameters
        reps = _all_triangulations(n)
        self.reps, self.blocks = orbit_graph(
            table.diameters, n, reps, map(table.flips, reps), "flip graph"
        )


@lru_cache(maxsize=None)
def flip_graph(n: int) -> FlipGraph:
    return FlipGraph(n)


def _all_triangulations(n: int) -> tuple[int, ...]:
    """The pair masks of the cs triangulations through the lowest
    diameter [1, n+1], pair 0, one per turning orbit, sorted by bit
    indices as rigid masks are.  Such a triangulation is one of the half
    polygon on corners 1..n+1, and its half-turn.

    The triangulations of the sub-polygon on corners i..j are built from
    those of i..k and k..j, for each apex k of the triangle (i, k, j):
    the diagonals [i, k] and [k, j], where they are no sides, and all of
    both parts' own.  Pair [p, q] has index (p-1)(n-1) + n-q+p, so all
    of i..k's diagonals lie below all of k..j's, [i, k] lowest; the
    apexes, taken downwards, then each part's triangulations in its own
    order, give every list sorted.

    Each must have n-1 pairs, one of them a diameter, and the
    non-crossing table must have no maximal set avoiding every diameter.
    """
    table = polygon_table(n)
    at, w = table.pair_at, 2 * n + 1
    inner = {(i, i + 1): [0] for i in range(1, n + 1)}  # a side: no diagonal
    for length in range(2, n + 1):
        for i in range(1, n + 2 - length):
            j, out = i + length, []
            for k in range(j - 1, i, -1):
                sides = (1 << at[i * w + k] if k - i > 1 else 0) | (
                    1 << at[k * w + j] if j - k > 1 else 0
                )
                rights = inner[k, j]
                out += [left | right | sides for left in inner[i, k] for right in rights]
            inner[i, j] = out
    diameter = 1 << at[w + n + 1]
    reps = [mask | diameter for mask in inner.pop((1, n + 1))]
    del inner

    def defect(mask: int) -> str:
        if mask.bit_count() != n - 1:
            return f"maximal clique of size {mask.bit_count()} at rank {n}: {bit_indices(mask)}"
        found = (mask & table.diameters).bit_count()
        if found != 1:
            return f"{found} diameters in {[table.pairs[i] for i in bit_indices(mask)]}"
        return ""

    for mask in reps + maximal_cliques(table.noncross, excluded=table.diameters)[:1]:
        text = defect(mask)
        if text:
            raise TheoremViolationError(text)
    return tuple(reps)


def _flipped(a: int, b: int, n: int) -> tuple[int, int]:
    """The flip of a diagonal whose two triangles have apexes ``a`` <= ``b``
    on the half polygon: the diagonal [a, b], or, for the diameter, whose
    second apex is the half-turn of its first, the diameter [a, a+n]."""
    return (a, b) if a < b else (a, a + n)


def graphs_isomorphic_via_delta(eg, fg: FlipGraph) -> bool:
    """Does T -> triangulation_of(T) carry the exchange graph onto the
    flip graph, edge by edge and label by label?  Both number their
    vertices by delta, sort by bit, and expand their nodes and edges
    from their representatives, marked vertices and quotient blocks by
    one expansion, which equal inputs give equal outputs; so that is
    equality of those three, the one side found by Ext and exchange, the
    other by triangulating and flipping the 2n-gon."""
    return eg.reps == fg.reps and eg.marked == fg.marked and eg.blocks == fg.blocks
