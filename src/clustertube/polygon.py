"""The 2n-gon model: centrally symmetric diagonal pairs and flips.

Rigid indecomposables map to centrally symmetric pairs of diagonals of a
2n-gon (diameters count as degenerate pairs), maximal rigid objects map
to centrally symmetric triangulations, and exchange corresponds to
flipping.  Crossing counts here are the geometric side of the Ext
dimension formula: crossing_points(dX, dY) = 2 dim Ext^1(X, Y).

The pairs of one rank are numbered by delta (:class:`PolygonTable`):
pair ``i`` is the image of the rigid indecomposable of canonical index
``i``, the pairs must be exactly :func:`all_cs_pairs`, and turning the
2n-gon by one corner rotates pair masks by n-1 bits, as tau does rigid
masks.  Non-crossing is one bitmask per pair, read off
:func:`crossing_points` alone, so a triangulation is a mask and a flip is
:func:`~clustertube.rigid.swap`.  The flip graph's edges come from
:func:`~clustertube.rigid.orbit_graph`, the builder the exchange graph
uses, on the non-crossing table.  Graph nodes are masks and each graph's
edges one flat array of node numbers, n-1 per node; with one numbering
for both models, delta carries the exchange graph onto the flip graph
exactly when the two graphs are equal, which checks that the two tables
agree, not an independent flip.

Corners are labelled clockwise 1..2n; all corner arithmetic is reduced
into that range.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import StructuralError, TheoremViolationError
from .rigid import (
    MaximalRigid,
    bit_indices,
    enumerate_rigid_indecs,
    orbit_cliques,
    orbit_graph,
    swap,
    tau_swept,
)
from .tube import FrozenRecord, TubeObject, check_coordinates, check_rank, is_rigid_indec


def _mod_corner(c: int, n: int) -> int:
    return (c - 1) % (2 * n) + 1


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
        p, q = _mod_corner(self.p, self.n), _mod_corner(self.q, self.n)
        if p > q:
            p, q = q, p
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p == q:
            raise StructuralError(f"degenerate diagonal [{p},{q}]")
        if q - p == 1 or q - p == 2 * self.n - 1:
            raise StructuralError(f"[{p},{q}] is an edge of the {2 * self.n}-gon")

    def shifted(self) -> "Diagonal":
        return Diagonal(self.p + self.n, self.q + self.n, self.n)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.p == other.p and self.q == other.q and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.n))

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
        if self.d1.n != self.n:
            raise StructuralError(f"{self.d1} is not a diagonal of the {2 * self.n}-gon")
        if self.d1.shifted() != self.d2:
            raise StructuralError(f"{self.d2} is not the half-turn of {self.d1}")
        if (self.d2.p, self.d2.q) < (self.d1.p, self.d1.q):
            d1, d2 = self.d2, self.d1
            object.__setattr__(self, "d1", d1)
            object.__setattr__(self, "d2", d2)

    @classmethod
    def of(cls, d: Diagonal) -> "CsPair":
        return cls(d, d.shifted(), d.n)

    @property
    def degenerate(self) -> bool:
        return self.d1 == self.d2

    @property
    def diagonals(self) -> tuple[Diagonal, ...]:
        return (self.d1,) if self.degenerate else (self.d1, self.d2)

    def representatives(self) -> tuple[Diagonal, Diagonal]:
        """Both members, a diameter listed twice."""
        return (self.d1, self.d2)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.d1 == other.d1 and self.d2 == other.d2 and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d1, self.d2, self.n))

    def __repr__(self) -> str:
        return f"{self.d1}" if self.degenerate else f"({self.d1},{self.d2})"


def diagonals_cross(d: Diagonal, e: Diagonal) -> bool:
    """Strict interior crossing; shared endpoints and equality do not count."""
    if d.n != e.n:
        raise StructuralError("diagonals of different polygons")
    if {d.p, d.q} & {e.p, e.q}:
        return False
    return (d.p < e.p < d.q) != (d.p < e.q < d.q)


def crossing_points(p1: CsPair, p2: CsPair) -> int:
    """Crossings over the 2x2 grid of representatives (diameters doubled)."""
    return sum(
        diagonals_cross(d, e)
        for d in p1.representatives()
        for e in p2.representatives()
    )


class CsTriangulation(FrozenRecord):
    """Centrally symmetric triangulation: n-1 pairwise non-crossing
    CsPairs, exactly one of them a diameter."""

    __slots__ = _fields = ("n", "pairs")

    def __init__(self, n: int, pairs: frozenset[CsPair]) -> None:
        self._set(n, pairs)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(self.pairs))
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
    for d in p.representatives():
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
    pairs = set()
    for p in range(1, 2 * n + 1):
        for q in range(p + 2, 2 * n + 1):
            if q - p == 2 * n - 1:
                continue
            pairs.add(CsPair.of(Diagonal(p, q, n)))
    return tuple(sorted(pairs, key=_pair_key))


def triangulation_of(t: MaximalRigid) -> CsTriangulation:
    """Image of a maximal rigid object under delta, summand-wise."""
    return CsTriangulation(t.n, frozenset(delta(x) for x in t.summands))


class PolygonTable(FrozenRecord):
    """The n(n-1) cs pairs of rank n, numbered by delta: ``pairs[i]`` is
    delta of the rigid indecomposable of canonical index ``i``.  Non-crossing
    is stored as bitmasks, so a set of pairs is a mask, and a rigid mask
    and its image under delta are the same int."""

    __slots__ = _fields = ("n", "pairs", "index", "noncross", "diameters")

    def __init__(
        self,
        n: int,
        pairs: tuple[CsPair, ...],
        index: dict[CsPair, int],
        # bit j of noncross[i]: j != i and crossing_points(pairs[i], pairs[j]) = 0
        noncross: tuple[int, ...],
        # the n diameters (degenerate pairs)
        diameters: int,
    ) -> None:
        self._set(n, pairs, index, noncross, diameters)

    def mask_of(self, tri: CsTriangulation) -> int:
        return sum(1 << self.index[p] for p in tri.pairs)

    def triangulation(self, mask: int) -> CsTriangulation:
        return CsTriangulation(
            self.n, frozenset(self.pairs[i] for i in bit_indices(mask))
        )


@lru_cache(maxsize=None)
def polygon_table(n: int) -> PolygonTable:
    """The integer table of rank ``n``.

    The pairs are numbered by delta, but must be every cs pair of the
    2n-gon, once each, and pair i+n-1 (mod n(n-1)) must be pair i turned
    by one corner.  Non-crossing is read off :func:`crossing_points`
    alone, never off Ext, for the n-1 pairs of socle 1, and rotated from
    there (:func:`~clustertube.rigid.tau_swept`), so crossing = 2 Ext
    stays a check between two routes.
    """
    pairs = tuple(delta(x) for x in enumerate_rigid_indecs(n))
    cs_pairs = all_cs_pairs(n)
    if sorted(pairs, key=_pair_key) != list(cs_pairs):
        missed = [p for p in cs_pairs if p not in pairs]
        raise TheoremViolationError(f"delta misses the cs pairs {missed} of the {2 * n}-gon")
    size, step = len(pairs), n - 1
    for i, a in enumerate(pairs):
        if pairs[(i + step) % size] != CsPair.of(Diagonal(a.d1.p + 1, a.d1.q + 1, n)):
            raise TheoremViolationError(
                f"delta does not commute with turning the {2 * n}-gon at {a}"
            )
    noncross = tau_swept(
        n,
        lambda i: sum(
            1 << j for j, b in enumerate(pairs) if j != i and crossing_points(pairs[i], b) == 0
        ),
    )
    index = {p: i for i, p in enumerate(pairs)}
    diameters = sum(1 << i for i, p in enumerate(pairs) if p.degenerate)
    return PolygonTable(n, pairs, index, noncross, diameters)


def flip(tri: CsTriangulation, p: CsPair) -> CsTriangulation:
    """Replace ``p`` by the unique other pair keeping a triangulation."""
    if p not in tri.pairs:
        raise ValueError(f"{p} is not in the triangulation")
    table = polygon_table(tri.n)
    mask = swap(table.noncross, table.mask_of(tri), table.index[p])
    return table.triangulation(mask)


class FlipGraph:
    """All centrally symmetric triangulations, with flip edges: ``nodes``
    holds each one's pair mask, and ``edges[a*(n-1)+k]`` the node reached
    by flipping the k-th lowest pair of node ``a``, in one flat array, from
    :func:`~clustertube.rigid.orbit_graph` with the diameters marked: only
    the triangulations through the lowest diameter, one per turning orbit,
    are flipped.  A flip of n-1 pairwise non-crossing pairs gives n-1 such
    pairs again, which is a maximal clique since every maximal clique has
    n-1 pairs; so every flip lands on a node.
    """

    def __init__(self, n: int):
        self.n = n
        self.nodes: tuple[int, ...] = _all_triangulations(n)
        table = polygon_table(n)
        self.edges = orbit_graph(table.noncross, table.diameters, n, self.nodes, "flip graph")[0]


@lru_cache(maxsize=None)
def flip_graph(n: int) -> FlipGraph:
    return FlipGraph(n)


def _all_triangulations(n: int) -> tuple[int, ...]:
    """The pair masks of all cs triangulations, sorted by bit indices as
    rigid masks are: :func:`~clustertube.rigid.orbit_cliques` of the
    non-crossing table, diameters marked; each has n-1 pairs, one diameter."""
    table = polygon_table(n)

    def defect(mask: int) -> str:
        if mask.bit_count() != n - 1:
            return f"maximal clique of size {mask.bit_count()} at rank {n}: {bit_indices(mask)}"
        found = (mask & table.diameters).bit_count()
        if found != 1:
            return f"{found} diameters in {[table.pairs[i] for i in bit_indices(mask)]}"
        return ""

    return orbit_cliques(table.noncross, table.diameters, n, defect)


def graphs_isomorphic_via_delta(eg, fg: FlipGraph) -> bool:
    """Does T -> triangulation_of(T) carry the exchange graph onto the
    flip graph, edge by edge and label by label?  Both number their
    vertices by delta and sort their nodes and edge labels by bit, so
    that is plain equality of nodes and of edges."""
    return eg.nodes == fg.nodes and eg.edges == fg.edges
