"""The 2n-gon model: centrally symmetric diagonal pairs and flips.

Rigid indecomposables map to centrally symmetric pairs of diagonals of a
2n-gon (diameters count as degenerate pairs), maximal rigid objects map
to centrally symmetric triangulations, and exchange corresponds to
flipping.  Crossing counts here are the geometric side of the Ext
dimension formula: crossing_points(dX, dY) = 2 dim Ext^1(X, Y).

Corners are labelled clockwise 1..2n; all corner arithmetic is reduced
into that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import StructuralError, TheoremViolationError
from .rigid import MaximalRigid, bit_indices, maximal_cliques
from .tube import TubeObject, is_rigid_indec


def _mod_corner(c: int, n: int) -> int:
    return (c - 1) % (2 * n) + 1


@dataclass(frozen=True)
class Diagonal:
    """Unordered diagonal [p, q] of the 2n-gon; p < q after reduction."""

    p: int
    q: int
    n: int

    def __post_init__(self) -> None:
        p, q = _mod_corner(self.p, self.n), _mod_corner(self.q, self.n)
        if p > q:
            p, q = q, p
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p == q:
            raise StructuralError(f"degenerate diagonal [{p},{q}]")
        if q - p == 1 or q - p == 2 * self.n - 1:
            raise StructuralError(f"[{p},{q}] is an edge of the {2 * self.n}-gon")

    @property
    def is_diameter(self) -> bool:
        return self.q - self.p == self.n

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
        distinct = {d for p in pairs for d in p.diagonals}
        if len(distinct) != 2 * self.n - 3:
            raise StructuralError(f"expected {2 * self.n - 3} diagonals")

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


def flip(tri: CsTriangulation, p: CsPair) -> CsTriangulation:
    """Replace ``p`` by the unique other pair keeping a valid
    triangulation, found by search over all CsPairs."""
    if p not in tri.pairs:
        raise ValueError(f"{p} is not in the triangulation")
    rest = tri.pairs - {p}
    found = []
    for q in all_cs_pairs(tri.n):
        if q == p or q in rest:
            continue
        try:
            found.append(CsTriangulation(tri.n, rest | {q}))
        except StructuralError:
            continue
    if len(found) != 1:
        raise TheoremViolationError(
            f"flip of {p} has {len(found)} replacements"
        )
    return found[0]


class FlipGraph:
    """All centrally symmetric triangulations, with flip edges."""

    def __init__(self, n: int):
        self.n = n
        self.nodes: tuple[CsTriangulation, ...] = _all_triangulations(n)
        self.edges: list[tuple[CsTriangulation, CsPair, CsTriangulation]] = []
        for tri in self.nodes:
            for p in tri.sorted_pairs():
                self.edges.append((tri, p, flip(tri, p)))

    def undirected_edges(self) -> set[frozenset[CsTriangulation]]:
        return {frozenset((a, b)) for a, _, b in self.edges}


@lru_cache(maxsize=None)
def flip_graph(n: int) -> FlipGraph:
    return FlipGraph(n)


@lru_cache(maxsize=None)
def _all_triangulations(n: int) -> tuple[CsTriangulation, ...]:
    """Maximal cliques of the non-crossing graph on ``all_cs_pairs(n)``;
    every clique must have exactly n-1 pairs."""
    pairs = all_cs_pairs(n)
    adj = [0] * len(pairs)
    for i, a in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            if crossing_points(a, pairs[j]) == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    cliques = maximal_cliques(adj)
    for clique in cliques:
        if clique.bit_count() != n - 1:
            raise TheoremViolationError(
                f"non-crossing clique of size {clique.bit_count()} at rank {n}"
            )
    # pairs are in _pair_key order, so ascending indices sort triangulations
    cliques.sort(key=bit_indices)
    return tuple(
        CsTriangulation(n, frozenset(pairs[i] for i in bit_indices(c)))
        for c in cliques
    )


def graphs_isomorphic_via_delta(eg, fg: FlipGraph) -> bool:
    """Does T -> triangulation_of(T) carry the exchange graph onto the
    flip graph, edge by edge?"""
    if eg.n != fg.n:
        return False
    image = {t: triangulation_of(t) for t in eg.nodes}
    if len(set(image.values())) != len(image) or set(image.values()) != set(fg.nodes):
        return False
    flip_edges = fg.undirected_edges()
    for t, k, t2 in eg.edges:
        flipped = delta(t.summands[k])
        if flip(image[t], flipped) != image[t2]:
            return False
        if frozenset((image[t], image[t2])) not in flip_edges:
            return False
    return True
