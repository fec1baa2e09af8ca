"""Maximal rigid objects: enumeration, structure, complements, witnesses.

The rigid indecomposables of one rank are numbered in canonical order
(:class:`RigidTable`), so a set of them is an int bitmask whose bits, read
upwards, list it in canonical summand order.  Complements, the exchange
graph, tilting data and cluster-tilting witnesses run on these masks,
through :func:`completions`, :func:`swap`, :func:`exchanges`,
:func:`tilting_datum_of`, :func:`cluster_of_tilting_datum` and
:func:`tilting_witness`; the polygon model shares the first three and the
orbit machinery.

Tau, as turning the 2n-gon, rotates indices by n-1 bits, so both models
sweep their tables for socle 1 only (:func:`tau_swept`), search one clique
per orbit (:func:`orbit_cliques`; :func:`maximal_rigid_masks` marks the
tops), and build their graphs with one builder, :func:`orbit_graph`, which
exchanges only the orbit representatives and owns every rotation and wrap
count.  :class:`MaximalRigid` and :class:`~clustertube.tube.TubeObject` are
the boundary types.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import StructuralError, TheoremViolationError
from .tube import (
    FrozenRecord,
    TubeObject,
    canonical_key,
    check_rank,
    ext_dim_cluster,
    wing_contains,
)


def bit_indices(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def rotate(mask: int, shift: int, size: int) -> int:
    """The ``size``-bit ``mask`` rotated up by ``shift`` bits (mod ``size``).

    In canonical order tau shifts every index by n-1, so rotating a mask
    of rigid indecomposables by n-1 bits applies tau to each of them.
    """
    shift %= size
    return (mask << shift | mask >> (size - shift)) & ((1 << size) - 1)


def maximal_cliques(adj: Sequence[int], seed: int = 0, excluded: int = 0) -> list[int]:
    """Maximal cliques, as masks, of the graph on ``0..len(adj)-1`` whose
    vertex ``v`` has neighbour mask ``adj[v]`` (no self-loops): those
    that contain the clique ``seed`` and avoid the vertices ``excluded``.

    Bron-Kerbosch with pivoting, started from R = ``seed``, P = the
    common neighbours of ``seed`` outside ``excluded`` and X = the
    common neighbours inside it: a clique that could still grow into
    ``excluded`` is not maximal in the whole graph, and is not reported.
    With neither argument it is the full search.
    """
    cliques: list[int] = []
    if adj:
        common = (1 << len(adj)) - 1
        for v in bit_indices(seed):
            common &= adj[v]
        _expand(adj, cliques, seed, common & ~excluded, common & excluded)
    return cliques


def _expand(adj: Sequence[int], cliques: list[int], r: int, p: int, x: int) -> None:
    """One Bron-Kerbosch step: from the candidates ``p`` only the
    non-neighbours of a pivot that covers most of ``p`` are branched on.
    A module function, not a closure, so that a search leaves no
    reference cycle holding ``cliques``."""
    if not p:
        if not x:
            cliques.append(r)
        return
    pivot = max(bit_indices(p | x), key=lambda u: (adj[u] & p).bit_count())
    for v in bit_indices(p & ~adj[pivot]):
        bit = 1 << v
        _expand(adj, cliques, r | bit, p & adj[v], x & adj[v])
        p &= ~bit
        x |= bit


# byte -> its bits reversed and inverted, so that bytes read from bit 0 up
# compare as index lists do
_LOW_BITS_FIRST = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def _sort_by_indices(masks: list[int], size: int) -> None:
    """Sort ``masks`` of one popcount, below ``size`` bits, as
    ``key=bit_indices`` would.  Between two such masks the lowest bit
    where they differ decides: the mask that has it comes first."""
    width = -(-size // 8)
    masks.sort(key=lambda m: m.to_bytes(width, "little").translate(_LOW_BITS_FIRST))


def orbit_cliques(
    adj: Sequence[int], marked: int, n: int, defect: Callable[[int], str]
) -> tuple[int, ...]:
    """The maximal cliques of the rank-``n`` table ``adj``, built by
    (n-1)-bit rotation, sorted by bit indices: those through the lowest
    ``marked`` vertex (top, diameter), one per orbit, rotated.  A second
    search, all marked vertices excluded, must find none.  ``defect`` is
    the error text for a clique of either search, or ""; its test of
    exactly one marked vertex keeps an orbit from being listed twice."""
    size, step = len(adj), n - 1
    reps = maximal_cliques(adj, seed=marked & -marked)
    for mask in reps + maximal_cliques(adj, excluded=marked)[:1]:
        text = defect(mask)
        if text:
            raise TheoremViolationError(text)
    masks = [rotate(mask, shift, size) for mask in reps for shift in range(0, size, step)]
    _sort_by_indices(masks, size)
    return tuple(masks)


def orbit_graph(
    adj: Sequence[int], marked: int, n: int, nodes: Sequence[int], name: str
) -> tuple[array, array, bytearray, dict[int, int]]:
    """The flat edge array of graph ``name`` on ``nodes``, the maximal
    cliques of ``adj`` with one ``marked`` vertex each; for each node
    its ``rep``, the number of its orbit's representative (the rotation
    through the lowest marked vertex), and its ``turn``, the
    representative's bits that wrap when it is rotated onto the node;
    and the ``{mask: number}`` dict the graph was numbered by.

    Only the representatives are exchanged, one :func:`exchanges` call
    each.  Rotating a representative ``j`` steps rotates its targets ``j``
    steps and turns its block by that node's ``turn``.  The orbits must
    hold exactly ``nodes``, and every target must be a node.
    """
    size, d, low = n * (n - 1), n - 1, (marked & -marked).bit_length()
    number = {mask: i for i, mask in enumerate(nodes)}
    rep, turn = array("l", [0]) * len(nodes), bytearray(len(nodes))
    orbits: dict[int, list[int]] = {}  # representative -> node numbers by power
    for i, mask in enumerate(nodes):
        t = (mask & marked).bit_length() - low
        r = rotate(mask, -t, size)
        rep[i], turn[i] = number.get(r, -1), (mask & ((1 << t) - 1)).bit_count()
        orbits.setdefault(r, [-1] * n)[t // d] = i
    if n * len(orbits) != len(nodes):
        raise TheoremViolationError(
            f"{name} at rank {n} reaches {n * len(orbits)} objects, "
            f"the enumeration has {len(nodes)}"
        )
    edges = array("l", [0]) * (len(nodes) * d)
    for r, nums in orbits.items():
        targets = []  # each target's orbit, from the target on
        for p, q in exchanges(adj, r):
            mask = r ^ 1 << p | 1 << q
            t = number.get(mask)
            if t is None:
                raise TheoremViolationError(
                    f"{name} at rank {n} reaches {bit_indices(mask)}, "
                    f"outside the enumeration of {len(nodes)}"
                )
            orbit = orbits[nodes[rep[t]]]
            j = orbit.index(t)
            targets.append(orbit[j:] + orbit[:j])
        for j, i in enumerate(nums):
            w = turn[i]
            edges[i * d : i * d + d] = array("l", [o[j] for o in targets[-w:] + targets[:-w]])
    return edges, rep, turn, number


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


class RigidTable(FrozenRecord):
    """The n(n-1) rigid indecomposables of rank n, indexed in canonical
    order, with Ext-compatibility and wing membership as bitmasks."""

    __slots__ = _fields = ("n", "objects", "index", "compat", "tops", "wings")

    def __init__(
        self,
        n: int,
        objects: tuple[TubeObject, ...],
        index: dict[TubeObject, int],
        # bit j of compat[i]: j != i and Ext^1(objects[i], objects[j]) = 0
        compat: tuple[int, ...],
        # the n tops (quasi-length n-1), and the wing mask of each top index
        tops: int,
        wings: dict[int, int],
    ) -> None:
        self._set(n, objects, index, compat, tops, wings)

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


def tau_swept(n: int, row: Callable[[int], int]) -> tuple[int, ...]:
    """The n(n-1) rows of a tau-invariant table of rank ``n``: ``row(i)``
    for the n-1 items of socle 1, which come first, and every later row
    the row n-1 indices below it rotated by n-1 bits, since tau shifts
    every index by n-1."""
    size, step = n * (n - 1), n - 1
    rows = [row(i) for i in range(step)]
    for i in range(step, size):
        rows.append(rotate(rows[i - step], step, size))
    return tuple(rows)


@lru_cache(maxsize=None)
def rigid_table(n: int) -> RigidTable:
    """The integer table of rank ``n``.

    Ext is swept once, for the objects of socle 1, and rotated from
    there (:func:`tau_swept`): Ext is invariant under tau.
    """
    objs = enumerate_rigid_indecs(n)
    index = {x: i for i, x in enumerate(objs)}
    compat = tau_swept(
        n,
        lambda i: sum(
            1 << j for j, y in enumerate(objs) if j != i and ext_dim_cluster(objs[i], y) == 0
        ),
    )
    tops = {i: x for i, x in enumerate(objs) if x.b == n - 1}
    wings = {
        i: sum(1 << j for j, y in enumerate(objs) if wing_contains(top, y))
        for i, top in tops.items()
    }
    return RigidTable(n, objs, index, compat, sum(1 << i for i in tops), wings)


class MaximalRigid(FrozenRecord):
    """A maximal rigid object, as its canonically ordered summand list,
    with the mask it was checked on.

    Construction validates everything (:meth:`RigidTable.defect`): n-1
    distinct pairwise compatible rigid summands, a unique top of
    quasi-length n-1, and containment of all summands in the top's wing.
    """

    _fields = ("n", "summands")
    # the mask is neither compared nor hashed
    __slots__ = (*_fields, "mask")

    def __init__(self, n: int, summands: tuple[TubeObject, ...]) -> None:
        self._set(n, summands)
        self.__post_init__()

    def __post_init__(self) -> None:
        table = rigid_table(self.n)
        defect = self._hold(table, table.mask_of(self.summands))
        if defect:
            raise StructuralError(defect)

    def _hold(self, table: RigidTable, mask: int) -> str:
        """Keep ``mask`` and its summands, in canonical order, which is
        bit order, if :meth:`RigidTable.defect` passes it; else return the
        summands and the defect."""
        objs = table.objects_of(mask)
        defect = table.defect(mask)
        if defect:
            return f"{objs} {defect}"
        object.__setattr__(self, "summands", objs)
        object.__setattr__(self, "mask", mask)
        return ""

    @property
    def top(self) -> TubeObject:
        """The unique summand of quasi-length n-1."""
        return next(x for x in self.summands if x.b == self.n - 1)

    def __repr__(self) -> str:
        inner = ";".join(f"{x.a},{x.b}" for x in self.summands)
        return f"MaximalRigid[{inner}]@{self.n}"


def _checked(table: RigidTable, mask: int) -> MaximalRigid | str:
    """The :class:`MaximalRigid` of ``mask``, checked as construction
    checks it, without parsing its summands back into a mask; or, if the
    check fails, the summands and the defect."""
    t = object.__new__(MaximalRigid)
    object.__setattr__(t, "n", table.n)
    return t._hold(table, mask) or t


def _of_mask(table: RigidTable, mask: int) -> MaximalRigid:
    """:func:`_checked`, for a mask that was computed, not read, so a
    defect falsifies the computation."""
    t = _checked(table, mask)
    if isinstance(t, str):
        raise TheoremViolationError(t)
    return t


class TiltingDatum(FrozenRecord):
    """Top coordinate plus positions of the other summands in its wing.

    A wing position is ``(offset, quasi_length)`` where ``offset`` is the
    socle distance from the top, taken cyclically.
    """

    __slots__ = _fields = ("n", "top_coordinate", "wing_positions")

    def __init__(
        self, n: int, top_coordinate: int, wing_positions: frozenset[tuple[int, int]]
    ) -> None:
        self._set(n, top_coordinate, wing_positions)


def is_rigid_set(objs: Iterable[TubeObject]) -> bool:
    """Ext^1 vanishes on all ordered pairs, self-pairs included."""
    objs = list(objs)
    for i, x in enumerate(objs):
        for y in objs[i:]:
            if ext_dim_cluster(x, y) != 0:
                return False
    return True


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
    """The masks of all maximal rigid objects, sorted by their bit
    indices: every one has exactly one top, so :func:`orbit_cliques`
    with the tops marked, each checked by :meth:`RigidTable.defect`."""
    table = rigid_table(n)

    def defect(mask: int) -> str:
        if not mask & table.tops:
            return f"maximal rigid object without a top: {table.objects_of(mask)}"
        text = table.defect(mask)
        return text and f"{table.objects_of(mask)} {text}"

    return orbit_cliques(table.compat, table.tops, n, defect)


def enumerate_maximal_rigid(n: int) -> tuple[MaximalRigid, ...]:
    """All maximal rigid objects, in :func:`maximal_rigid_masks` order."""
    table = rigid_table(n)
    return tuple(_of_mask(table, mask) for mask in maximal_rigid_masks(n))


def tilting_datum_of(table: RigidTable, mask: int) -> tuple[int, int]:
    """The tilting datum of the maximal rigid ``mask``, on indices: the
    index ``t`` of its top, and its other summands rotated down by ``t``
    bits.  That rotation is a power of tau taking the top to socle 1, so
    bit ``j`` of the second stands for the object ``table.objects[j]``,
    whose coordinates ``(offset + 1, quasi_length)`` give the wing
    position ``(offset, quasi_length)``."""
    top = mask & table.tops
    t = top.bit_length() - 1
    return t, rotate(mask ^ top, -t, len(table.objects))


def cluster_of_tilting_datum(table: RigidTable, t: int, wing: int) -> int:
    """The mask whose tilting datum on indices is ``(t, wing)``: the
    inverse of :func:`tilting_datum_of`."""
    return 1 << t | rotate(wing, t, len(table.objects))


def to_tilting_datum(t: MaximalRigid) -> TiltingDatum:
    table = rigid_table(t.n)
    top, wing = tilting_datum_of(table, t.mask)
    positions = frozenset((x.a - 1, x.b) for x in table.objects_of(wing))
    return TiltingDatum(t.n, table.objects[top].a, positions)


def from_tilting_datum(d: TiltingDatum) -> MaximalRigid:
    # positions are arbitrary input, so each is parsed as the object it
    # names and a bogus datum is rejected as MaximalRigid rejects it
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


def tilting_witness(table: RigidTable, top: int, k: int) -> TubeObject:
    """The witness ``(a, kn-1)`` of every maximal rigid object whose top,
    of index ``top``, has socle ``a``: a non-summand with no Ext^1 to the
    object but with nonzero self-extensions."""
    if k < 2:
        raise ValueError(f"witness index must be >= 2, got {k}")
    return TubeObject(table.objects[top].a, k * table.n - 1, table.n)


def cluster_tilting_witness(t: MaximalRigid, k: int) -> TubeObject:
    """The witness of :func:`tilting_witness` for ``t``, certifying that
    maximal rigid does not imply cluster-tilting."""
    table = rigid_table(t.n)
    return tilting_witness(table, table.index[t.top], k)
