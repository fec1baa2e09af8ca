"""Maximal rigid objects: enumeration, structure, complements, witnesses.

The rigid indecomposables of one rank are numbered in canonical order
(:class:`RigidTable`), so a set of them is an int bitmask whose bits, read
upwards, list it in canonical summand order.  Enumeration, complements
and the exchange graph run on these masks, through :func:`clusters`,
:func:`completions`, :func:`swap` and :func:`exchanges`, which the
polygon model shares.  :class:`MaximalRigid` and
:class:`~clustertube.tube.TubeObject` are the boundary types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import StructuralError, TheoremViolationError
from .tube import TubeObject, canonical_key, check_rank, ext_dim_cluster, tau, wing_contains


def bit_indices(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def maximal_cliques(adj: Sequence[int]) -> list[int]:
    """Maximal cliques, as masks, of the graph on ``0..len(adj)-1`` whose
    vertex ``v`` has neighbour mask ``adj[v]`` (no self-loops).

    Bron-Kerbosch with pivoting: from the candidates ``p`` only the
    non-neighbours of a pivot that covers most of ``p`` are branched on.
    """
    cliques: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                cliques.append(r)
            return
        pivot = max(bit_indices(p | x), key=lambda u: (adj[u] & p).bit_count())
        for v in bit_indices(p & ~adj[pivot]):
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    if adj:
        expand(0, (1 << len(adj)) - 1, 0)
    return cliques


def clusters(adj: Sequence[int], n: int) -> list[int]:
    """The maximal cliques of ``adj``, sorted by their bit indices; at
    rank ``n`` every one must have exactly n-1 vertices."""
    cliques = maximal_cliques(adj)
    for clique in cliques:
        if clique.bit_count() != n - 1:
            raise TheoremViolationError(
                f"maximal clique of size {clique.bit_count()} at rank {n}: "
                f"{bit_indices(clique)}"
            )
    cliques.sort(key=bit_indices)
    return cliques


def _two_completions(tbar: int, found: int) -> int:
    """``found``, the completions of ``tbar``; not two falsifies unique exchange."""
    if found.bit_count() != 2:
        raise TheoremViolationError(
            f"{bit_indices(tbar)} has {found.bit_count()} completions: "
            f"{bit_indices(found)}"
        )
    return found


def completions(adj: Sequence[int], tbar: int) -> int:
    """The mask of the vertices completing the almost complete clique
    ``tbar`` of ``adj`` (Ext-compatibility or non-crossing)."""
    found = (1 << len(adj)) - 1
    for i in bit_indices(tbar):
        found &= adj[i]
    return _two_completions(tbar, found & ~tbar)


def swap(adj: Sequence[int], mask: int, i: int) -> int:
    """The maximal clique ``mask`` of ``adj`` with vertex ``i`` exchanged
    for the other completion of the rest: exchange, and flip."""
    rest = mask & ~(1 << i)
    return rest | completions(adj, rest) & ~(1 << i)


def exchanges(adj: Sequence[int], mask: int) -> list[tuple[int, int]]:
    """Every exchange of the maximal clique ``mask``, as :func:`swap` gives
    them: a ``(removed, new)`` vertex pair per bit, lowest first.  Each
    rest's rows are ANDed from a prefix and a suffix of the clique's rows,
    so a node costs O(n) row intersections, not O(n²)."""
    bits = bit_indices(mask)
    suffix = [(1 << len(adj)) - 1]
    for v in reversed(bits):
        suffix.append(suffix[-1] & adj[v])
    prefix, out = suffix[0], []
    for v, after in zip(bits, reversed(suffix[:-1])):
        rest = mask ^ 1 << v
        found = _two_completions(rest, prefix & after & ~rest)
        out.append((v, (found & ~(1 << v)).bit_length() - 1))
        prefix &= adj[v]
    return out


@dataclass(frozen=True)
class RigidTable:
    """The n(n-1) rigid indecomposables of rank n, indexed in canonical
    order, with Ext-compatibility and wing membership as bitmasks."""

    n: int
    objects: tuple[TubeObject, ...]
    index: dict[TubeObject, int]
    # bit j of compat[i]: j != i and Ext^1(objects[i], objects[j]) = 0
    compat: tuple[int, ...]
    # the n tops (quasi-length n-1), and the wing mask of each top index
    tops: int
    wings: dict[int, int]

    def mask_of(self, objs: Iterable[TubeObject]) -> int:
        """The mask of distinct rigid indecomposables of this rank."""
        objs = tuple(objs)
        mask = 0
        for x in objs:
            i = self.index.get(x)
            if i is None:
                raise StructuralError(
                    f"{x} is not a rigid indecomposable of rank {self.n}"
                )
            mask |= 1 << i
        if mask.bit_count() != len(objs):
            raise StructuralError(f"repeated summands in {objs}")
        return mask

    def objects_of(self, mask: int) -> tuple[TubeObject, ...]:
        """The summands of ``mask`` in canonical order."""
        return tuple(self.objects[i] for i in bit_indices(mask))

    def is_rigid(self, mask: int) -> bool:
        """Ext^1 vanishes between any two summands of ``mask``."""
        rest = mask
        while rest:
            low = rest & -rest
            if mask & ~self.compat[low.bit_length() - 1] != low:
                return False
            rest ^= low
        return True

    def defect(self, mask: int) -> str:
        """Why ``mask`` is not a maximal rigid object; empty if it is.

        A maximal rigid object has n-1 pairwise compatible summands,
        exactly one top, and all summands inside that top's wing.
        """
        size = mask.bit_count()
        if size != self.n - 1:
            return f"has {size} summands, expected {self.n - 1}"
        if not self.is_rigid(mask):
            return "is not rigid"
        top = mask & self.tops
        if top.bit_count() != 1:
            return f"has {top.bit_count()} summands of quasi-length {self.n - 1}"
        outside = mask & ~self.wings[top.bit_length() - 1]
        if outside:
            return f"has {self.objects_of(outside)} outside the wing of its top"
        return ""


@lru_cache(maxsize=None)
def rigid_table(n: int) -> RigidTable:
    """The integer table of rank ``n``.

    Ext is swept once, for the objects of socle 1.  Ext is invariant
    under tau, which in canonical order shifts every index by n-1, so the
    row of any other object is the row of its tau rotated by n-1 bits.
    """
    objs = enumerate_rigid_indecs(n)
    index = {x: i for i, x in enumerate(objs)}
    size, step = len(objs), n - 1
    compat: list[int] = []
    for i, x in enumerate(objs):
        if x.a == 1:
            row = sum(
                1 << j
                for j, y in enumerate(objs)
                if j != i and ext_dim_cluster(x, y) == 0
            )
        else:
            row = compat[index[tau(x)]]
            row = (row << step | row >> (size - step)) & ((1 << size) - 1)
        compat.append(row)
    tops = {i: x for i, x in enumerate(objs) if x.b == n - 1}
    wings = {
        i: sum(1 << j for j, y in enumerate(objs) if wing_contains(top, y))
        for i, top in tops.items()
    }
    return RigidTable(n, objs, index, tuple(compat), sum(1 << i for i in tops), wings)


@dataclass(frozen=True)
class MaximalRigid:
    """A maximal rigid object, as its canonically ordered summand list.

    Construction validates everything (:meth:`RigidTable.defect`): n-1
    distinct pairwise compatible rigid summands, a unique top of
    quasi-length n-1, and containment of all summands in the top's wing.
    """

    n: int
    summands: tuple[TubeObject, ...]

    def __post_init__(self) -> None:
        objs = tuple(sorted(self.summands, key=canonical_key))
        object.__setattr__(self, "summands", objs)
        table = rigid_table(self.n)
        defect = table.defect(table.mask_of(objs))
        if defect:
            raise StructuralError(f"{objs} {defect}")

    @property
    def top(self) -> TubeObject:
        """The unique summand of quasi-length n-1."""
        return next(x for x in self.summands if x.b == self.n - 1)

    def __repr__(self) -> str:
        inner = ";".join(f"{x.a},{x.b}" for x in self.summands)
        return f"MaximalRigid[{inner}]@{self.n}"


@dataclass(frozen=True)
class TiltingDatum:
    """Top coordinate plus positions of the other summands in its wing.

    A wing position is ``(offset, quasi_length)`` where ``offset`` is the
    socle distance from the top, taken cyclically.
    """

    n: int
    top_coordinate: int
    wing_positions: frozenset[tuple[int, int]]


def is_rigid_set(objs: Iterable[TubeObject]) -> bool:
    """Ext^1 vanishes on all ordered pairs, self-pairs included."""
    objs = list(objs)
    for i, x in enumerate(objs):
        for y in objs[i:]:
            if ext_dim_cluster(x, y) != 0:
                return False
    return True


@lru_cache(maxsize=None)
def enumerate_rigid_indecs(n: int) -> tuple[TubeObject, ...]:
    """All n(n-1) rigid indecomposables, in canonical order."""
    check_rank(n)
    objs = [TubeObject(a, b, n) for a in range(1, n + 1) for b in range(1, n)]
    return tuple(sorted(objs, key=canonical_key))


def compatibility(n: int) -> dict[TubeObject, frozenset[TubeObject]]:
    """Adjacency of the Ext-vanishing graph on rigid indecomposables."""
    table = rigid_table(n)
    return {
        x: frozenset(table.objects_of(table.compat[i]))
        for i, x in enumerate(table.objects)
    }


@lru_cache(maxsize=None)
def maximal_rigid_masks(n: int) -> tuple[int, ...]:
    """The masks of all maximal rigid objects: :func:`clusters` of ``compat``."""
    return tuple(clusters(rigid_table(n).compat, n))


@lru_cache(maxsize=None)
def enumerate_maximal_rigid(n: int) -> tuple[MaximalRigid, ...]:
    """All maximal rigid objects, in :func:`maximal_rigid_masks` order."""
    table = rigid_table(n)
    return tuple(MaximalRigid(n, table.objects_of(c)) for c in maximal_rigid_masks(n))


def to_tilting_datum(t: MaximalRigid) -> TiltingDatum:
    top = t.top
    positions = frozenset(
        ((x.a - top.a) % t.n, x.b) for x in t.summands if x != top
    )
    return TiltingDatum(t.n, top.a, positions)


def from_tilting_datum(d: TiltingDatum) -> MaximalRigid:
    n = d.n
    top = TubeObject(d.top_coordinate, n - 1, n)
    summands = [top]
    for offset, b in d.wing_positions:
        summands.append(TubeObject((d.top_coordinate - 1 + offset) % n + 1, b, n))
    return MaximalRigid(n, tuple(summands))  # raises StructuralError if bogus


def complements(tbar: Sequence[TubeObject], n: int | None = None) -> tuple[TubeObject, TubeObject]:
    """The two indecomposables completing an almost complete object.

    ``tbar`` must have n-2 distinct pairwise compatible rigid summands of
    rank n, or it is a :class:`StructuralError` (rank can be passed
    explicitly for the empty set at n=2).  Anything other than exactly
    two completions falsifies the unique-exchange axiom.
    """
    tbar = tuple(tbar)
    if n is None:
        if not tbar:
            raise ValueError("rank is required for an empty almost complete object")
        n = tbar[0].n
    if len(tbar) != n - 2:
        raise StructuralError(
            f"almost complete object at rank {n} needs {n - 2} summands, got {len(tbar)}"
        )
    table = rigid_table(n)
    mask = table.mask_of(tbar)
    if not table.is_rigid(mask):
        raise StructuralError(f"{tbar} is not rigid")
    first, second = bit_indices(completions(table.compat, mask))
    return table.objects[first], table.objects[second]


def cluster_tilting_witness(t: MaximalRigid, k: int) -> TubeObject:
    """A non-summand with Ext^1(t, -) = 0 but nonzero self-extensions,
    certifying that maximal rigid does not imply cluster-tilting."""
    if k < 2:
        raise ValueError(f"witness index must be >= 2, got {k}")
    return TubeObject(t.top.a, k * t.n - 1, t.n)
