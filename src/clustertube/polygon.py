"""The 2n-gon model: centrally symmetric diagonal pairs and flips.

Rigid indecomposables map to centrally symmetric pairs of diagonals of a
2n-gon (diameters count as degenerate pairs), maximal rigid objects map
to centrally symmetric triangulations, and exchange corresponds to
flipping.  Crossing counts here are the geometric side of the Ext
dimension formula: crossing_points(dX, dY) = 2 dim Ext^1(X, Y).

The pairs of one rank are numbered in :func:`all_cs_pairs` order
(:class:`PolygonTable`), with one non-crossing bitmask per pair, so a
triangulation is a mask and a flip is :func:`~clustertube.rigid.swap`
on the non-crossing rows, the same exchange step as for rigid objects
(:func:`~clustertube.rigid.exchanges` gives all flips of a node at once).
Graph nodes are masks and edges node-number triples, and both node
verdicts of the ``verify`` polygon suite read one map, :func:`delta_node_map`.

Corners are labelled clockwise 1..2n; all corner arithmetic is reduced
into that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import StructuralError, TheoremViolationError
from .rigid import (
    MaximalRigid,
    bit_indices,
    clusters,
    enumerate_rigid_indecs,
    exchanges,
    swap,
)
from .tube import TubeObject, check_coordinates, check_rank, is_rigid_indec


def _mod_corner(c: int, n: int) -> int:
    return (c - 1) % (2 * n) + 1


@dataclass(frozen=True)
class Diagonal:
    """Unordered diagonal [p, q] of the 2n-gon; p < q after reduction."""

    p: int
    q: int
    n: int

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

    def __repr__(self) -> str:
        return f"[{self.p},{self.q}]"


@dataclass(frozen=True)
class CsPair:
    """Centrally symmetric pair of diagonals; a diameter is degenerate
    (its two representatives coincide and it counts twice in crossings)."""

    d1: Diagonal
    d2: Diagonal
    n: int

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

    def __repr__(self) -> str:
        return f"{self.d1}" if self.degenerate else f"({self.d1},{self.d2})"


def diagonals_cross(d: Diagonal, e: Diagonal) -> bool:
    """Strict interior crossing; shared endpoints and equality do not count."""
    if d.n != e.n:
        raise StructuralError("diagonals of different polygons")
    if {d.p, d.q} & {e.p, e.q}:
        return False
    return (d.p < e.p < d.q) != (d.p < e.q < d.q)


@lru_cache(maxsize=None)
def crossing_points(p1: CsPair, p2: CsPair) -> int:
    """Crossings over the 2x2 grid of representatives (diameters doubled)."""
    return sum(
        diagonals_cross(d, e)
        for d in p1.representatives()
        for e in p2.representatives()
    )


@dataclass(frozen=True)
class CsTriangulation:
    """Centrally symmetric triangulation: n-1 pairwise non-crossing
    CsPairs, exactly one of them a diameter."""

    n: int
    pairs: frozenset[CsPair]

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


@lru_cache(maxsize=None)
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


@dataclass(frozen=True)
class PolygonTable:
    """The n(n-1) cs pairs of rank n, indexed in :func:`all_cs_pairs`
    order, with non-crossing as bitmasks; a set of pairs is a mask."""

    n: int
    pairs: tuple[CsPair, ...]
    index: dict[CsPair, int]
    # bit j of noncross[i]: j != i and crossing_points(pairs[i], pairs[j]) = 0
    noncross: tuple[int, ...]
    # delta_index[i]: the pair index of delta of the rigid indecomposable
    # with canonical index i
    delta_index: tuple[int, ...]
    # the n diameters (degenerate pairs)
    diameters: int

    def mask_of(self, tri: CsTriangulation) -> int:
        return sum(1 << self.index[p] for p in tri.pairs)

    def image_mask(self, mask: int) -> int:
        """The pair mask of delta's image of the rigid mask ``mask``."""
        return sum(1 << self.delta_index[i] for i in bit_indices(mask))

    def triangulation(self, mask: int) -> CsTriangulation:
        return CsTriangulation(
            self.n, frozenset(self.pairs[i] for i in bit_indices(mask))
        )


@lru_cache(maxsize=None)
def polygon_table(n: int) -> PolygonTable:
    """The integer table of rank ``n``.

    Non-crossing is read off :func:`crossing_points` alone, never off Ext,
    so crossing = 2 Ext and flip = exchange stay checks between two
    independent routes.
    """
    pairs = all_cs_pairs(n)
    noncross = [0] * len(pairs)
    for i, a in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            if crossing_points(a, pairs[j]) == 0:
                noncross[i] |= 1 << j
                noncross[j] |= 1 << i
    index = {p: i for i, p in enumerate(pairs)}
    delta_index = tuple(index[delta(x)] for x in enumerate_rigid_indecs(n))
    diameters = sum(1 << i for i, p in enumerate(pairs) if p.degenerate)
    return PolygonTable(n, pairs, index, tuple(noncross), delta_index, diameters)


def flip(tri: CsTriangulation, p: CsPair) -> CsTriangulation:
    """Replace ``p`` by the unique other pair keeping a triangulation."""
    if p not in tri.pairs:
        raise ValueError(f"{p} is not in the triangulation")
    table = polygon_table(tri.n)
    mask = swap(table.noncross, table.mask_of(tri), table.index[p])
    return table.triangulation(mask)


class FlipGraph:
    """All centrally symmetric triangulations, with flip edges: ``nodes``
    holds each one's pair mask, and ``edges`` every triple (a, p, b) of
    node numbers where flipping pair ``p`` of node ``a`` gives node ``b``.
    A flip of n-1 pairwise non-crossing pairs gives n-1 such pairs again,
    which is a maximal clique since every maximal clique has n-1 pairs;
    so every flip lands on a node.
    """

    def __init__(self, n: int):
        self.n = n
        table = polygon_table(n)
        self.nodes: tuple[int, ...] = _all_triangulations(n)
        number = {mask: a for a, mask in enumerate(self.nodes)}
        self.edges: list[tuple[int, int, int]] = [
            (a, p, number[mask ^ 1 << p | 1 << q])
            for a, mask in enumerate(self.nodes)
            for p, q in exchanges(table.noncross, mask)
        ]

    def undirected_edges(self) -> set[tuple[int, int]]:
        return {(a, b) if a < b else (b, a) for a, _, b in self.edges}


@lru_cache(maxsize=None)
def flip_graph(n: int) -> FlipGraph:
    return FlipGraph(n)


def _all_triangulations(n: int) -> tuple[int, ...]:
    """The pair masks of the :func:`~clustertube.rigid.clusters` of the
    non-crossing graph of :func:`polygon_table`, each with one diameter."""
    table = polygon_table(n)
    # pairs are in _pair_key order, so ascending indices sort triangulations
    masks = tuple(clusters(table.noncross, n))
    for mask in masks:
        found = (mask & table.diameters).bit_count()
        if found != 1:
            pairs = [table.pairs[i] for i in bit_indices(mask)]
            raise TheoremViolationError(f"{found} diameters in {pairs}")
    return masks


def delta_node_map(eg, fg: FlipGraph) -> list[int] | None:
    """The flip-graph number of each exchange-graph node's delta image,
    or None unless this is a bijection (graphs of two ranks differ in
    size): the one comparison of the two graphs' nodes."""
    table = polygon_table(eg.n)
    number = {mask: b for b, mask in enumerate(fg.nodes)}
    image = [number.get(table.image_mask(m)) for m in eg.masks]
    bijective = None not in image and len(set(image)) == len(image) == len(fg.nodes)
    return image if bijective else None


def graphs_isomorphic_via_delta(eg, fg: FlipGraph) -> bool:
    """Does T -> triangulation_of(T) carry the exchange graph onto the
    flip graph, edge by edge and label by label?  Nodes and labels are
    renumbered by delta; the flips are the flip graph's own edges."""
    return edges_match(eg, fg, delta_node_map(eg, fg))


def edges_match(eg, fg: FlipGraph, node: list[int] | None) -> bool:
    """:func:`graphs_isomorphic_via_delta` on the node map ``node`` of
    :func:`delta_node_map`, for a caller that already holds it."""
    table = polygon_table(eg.n)
    label = [[table.delta_index[i] for i in bit_indices(m)] for m in eg.masks]
    return node is not None and sorted(fg.edges) == sorted(
        (node[i], label[i][k], node[j]) for i, k, j in eg.edges
    )
