"""Maximal rigid objects one at a time: the integer table of a rank, the
checked record, the exchange kernel and the Fomin-Zelevinsky row step.

The rigid indecomposables of one rank are numbered in canonical order
(:class:`RigidTable`), so a set of them is an int bitmask whose bits, read
upwards, list it in canonical summand order.  Tau rotates indices by n-1
bits, so the table is swept for socle 1 only (:func:`tau_swept`), and
:func:`rigid_table` certifies ``compat`` symmetric and tau an
automorphism of the table, wings included.  :class:`MaximalRigid` is the
record ``(n, mask)``, checked by :meth:`RigidTable.defect`.
:func:`exchanges`, by :func:`completions`, is the one exchange kernel on
masks, :func:`exchange` one exchange of an object, and
:func:`_mutate_rows` mutates a matrix of rows at one index.  A B-matrix
is its ``Rows``, indexed by its object's summands in canonical order;
:func:`check_matrix` checks one that a caller passes in.

This is the model layer: it imports only ``errors`` and ``tube``, so a
point query compiles it, and :mod:`.polygon_model`, and no search or
graph.  :mod:`.rigid` builds the clique search, the tau-quotient and the
walk on it over this module.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from operator import itemgetter, neg

from .errors import StructuralError, TheoremViolationError
from .tube import (
    FrozenRecord,
    TubeObject,
    canonical_key,
    check_rank,
    ext_dim_cluster,
    wing_contains,
)

Rows = tuple[tuple[int, ...], ...]


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

    In canonical order tau shifts every index down by n-1, so rotating a
    mask of rigid indecomposables up by n-1 bits applies tau^-1 to each of
    them, ``(a, b)`` to ``(a+1, b)``, and rotating it down applies tau.
    """
    shift %= size
    return (mask << shift | mask >> (size - shift)) & ((1 << size) - 1)


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
    ``tbar`` of ``adj`` (Ext-compatibility or non-crossing).  No vertex is
    its own neighbour (:func:`rigid_table` and
    :func:`~clustertube.polygon.polygon_table` build rows with ``j !=
    i``), so the rows of ``tbar`` already exclude it."""
    found = (1 << len(adj)) - 1
    for i in bit_indices(tbar):
        found &= adj[i]
    return _two_completions(tbar, found)


def exchanges(adj: Sequence[int], mask: int) -> list[int]:
    """Every exchange of the maximal clique ``mask``, each vertex for the
    other :func:`completions` of the rest: the exchanged masks, lowest
    removed bit first.  Each rest's rows are ANDed from a prefix and a
    suffix of the clique's rows, so a node costs O(n) row intersections,
    not O(n²).  No vertex is its own neighbour (:func:`rigid_table` and
    :func:`~clustertube.polygon.polygon_table` build rows with ``j !=
    i``), so that AND excludes the rest, and the rest is formed only for
    an error's text.  The exchange graph and :func:`exchange` call it."""
    bits, suffix, m = [], [(1 << len(adj)) - 1], mask
    while m:  # highest bit first: suffix[i] ANDs the rows of the i highest
        v = m.bit_length() - 1
        bits.append(v)
        suffix.append(suffix[-1] & adj[v])
        m ^= 1 << v
    prefix, out = suffix[0], []
    for v, after in zip(reversed(bits), suffix[-2::-1]):
        found = prefix & after
        if found.bit_count() != 2:
            _two_completions(mask ^ 1 << v, found)
        out.append(mask ^ found)  # found is v and the other completion
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
        objs = self.objects
        return tuple([objs[i] for i in bit_indices(mask)])

    def defect(self, mask: int) -> str:
        """Why ``mask`` is not a maximal rigid object; empty if it is.

        A maximal rigid object has n-1 pairwise compatible summands,
        exactly one top, and all summands inside that top's wing.  The
        walk reads bits only.
        """
        count = mask.bit_count()
        if count != self.n - 1:
            return f"has {count} summands, expected {self.n - 1}"
        rest = mask
        while rest:
            low = rest & -rest
            if mask & self.compat[low.bit_length() - 1] != mask ^ low:
                return "is not rigid"
            rest ^= low
        top = mask & self.tops
        if top.bit_count() != 1:
            return f"has {top.bit_count()} summands of quasi-length {self.n - 1}"
        outside = mask & ~self.wings[top.bit_length() - 1]
        if outside:
            return f"has {self.objects_of(outside)} outside the wing of its top"
        return ""

    def checked(self, mask: int) -> MaximalRigid | str:
        """The :class:`MaximalRigid` of ``mask``, checked as construction
        checks it, without parsing its summands back into a mask; or, if
        the check fails, the summands and the defect."""
        return _defect(self, mask) or _nodes(self.n, [mask])[0]


def tau_swept(n: int, row: Callable[[int], int]) -> tuple[int, ...]:
    """The n(n-1) rows of a tau-invariant table of rank ``n``: ``row(i)``
    for the n-1 items of socle 1, which come first, and every later row
    the row n-1 indices below it rotated up by n-1 bits, since tau^-1
    shifts every index up by n-1."""
    size, step = n * (n - 1), n - 1
    rows = [row(i) for i in range(step)]
    for i in range(step, size):
        rows.append(rotate(rows[i - step], step, size))
    return tuple(rows)


def enumerate_rigid_indecs(n: int) -> tuple[TubeObject, ...]:
    """All n(n-1) rigid indecomposables, in canonical order."""
    check_rank(n)
    objs = [TubeObject(a, b, n) for a in range(1, n + 1) for b in range(1, n)]
    return tuple(sorted(objs, key=canonical_key))


@lru_cache(maxsize=None)
def rigid_table(n: int) -> RigidTable:
    """The integer table of rank ``n``.

    Ext is swept once, for the objects of socle 1, and rotated from
    there (:func:`tau_swept`): Ext is invariant under tau, which the row of
    index n-1, the top of socle 2, computed from Ext as well, must confirm.
    In a 2-Calabi-Yau category Ext-compatibility is symmetric, so each
    swept row must equal its column, bit i of every row: that also checks
    every rotated row against Ext, and certifies that a clique of
    ``compat`` is pairwise compatible, as
    :func:`~clustertube.rigid.maximal_rigid_reps` takes it to be.  Last,
    rotating by n-1 bits must carry each top's wing to the next top's, so
    tau is an automorphism of the table: of ``compat`` by the sweep, and
    of the tops, top ``(a, n-1)`` being index ``(a-1)(n-1)``.  So a
    rotation of a maximal rigid mask is one.
    """
    objs = enumerate_rigid_indecs(n)
    index = {x: i for i, x in enumerate(objs)}

    def row(i: int) -> int:
        x = objs[i]
        return sum(1 << j for j, y in enumerate(objs) if j != i and ext_dim_cluster(x, y) == 0)

    compat = tau_swept(n, row)
    if row(n - 1) != compat[n - 1]:
        raise TheoremViolationError(f"Ext is not tau-invariant at rank {n}: {objs[n - 1]}'s row")
    for i in range(n - 1):
        diff = compat[i] ^ sum(1 << j for j, r in enumerate(compat) if r >> i & 1)
        if diff:
            j = (diff & -diff).bit_length() - 1
            raise TheoremViolationError(
                f"Ext-compatibility is not symmetric at rank {n}: {objs[i]} and {objs[j]}"
            )
    tops = {i: x for i, x in enumerate(objs) if x.b == n - 1}
    wings = {
        i: sum(1 << j for j, y in enumerate(objs) if wing_contains(top, y))
        for i, top in tops.items()
    }
    size, d = len(objs), n - 1
    if any(rotate(w, d, size) != wings[(i + d) % size] for i, w in wings.items()):
        raise TheoremViolationError(f"tau is not an automorphism of the rank-{n} table")
    return RigidTable(n, objs, index, compat, sum(1 << i for i in tops), wings)


class MaximalRigid(FrozenRecord):
    """A maximal rigid object, as its rank and mask; its canonically
    ordered summands are read from the table each time they are asked for.

    Construction validates everything (:meth:`RigidTable.defect`): n-1
    distinct pairwise compatible rigid summands, a unique top of
    quasi-length n-1, and containment of all summands in the top's wing.
    The search checks each tau-orbit's representative by whole-mask
    tests, as a clique of the certified symmetric ``compat``
    (:func:`~clustertube.rigid.maximal_rigid_reps`), and
    :func:`~clustertube.rigid.enumerate_maximal_rigid` makes every node of
    its orbit unchecked, since :func:`rigid_table` certifies that its
    rotations pass too.  It compares and hashes as the record ``(n,
    mask)``, and copies and pickles by its rank and summands, through the
    constructor, which checks them again.
    """

    __slots__ = _fields = ("n", "mask")

    def __init__(self, n: int, summands: tuple[TubeObject, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", rigid_table(n).mask_of(summands))
        self.__post_init__()

    def __post_init__(self) -> None:
        defect = _defect(rigid_table(self.n), self.mask)
        if defect:
            raise StructuralError(defect)

    def __reduce__(self):
        return type(self), (self.n, self.summands)

    @property
    def summands(self) -> tuple[TubeObject, ...]:
        """The summands in canonical order, which is bit order."""
        return rigid_table(self.n).objects_of(self.mask)

    def __repr__(self) -> str:
        inner = ";".join(f"{x.a},{x.b}" for x in self.summands)
        return f"MaximalRigid[{inner}]@{self.n}"


# the slots' own setters, past FrozenRecord's refusal and the name lookup
_set_n, _set_mask = MaximalRigid.n.__set__, MaximalRigid.mask.__set__


def _nodes(n: int, masks: Iterable[int]) -> list[MaximalRigid]:
    """The :class:`MaximalRigid` of each of ``masks``, unchecked, in one
    loop with no call per node but the slots' own."""
    new, nodes = object.__new__, []
    for mask in masks:
        t = new(MaximalRigid)
        _set_n(t, n)
        _set_mask(t, mask)
        nodes.append(t)
    return nodes


def _defect(table: RigidTable, mask: int) -> str:
    """:meth:`RigidTable.defect` of ``mask`` after its summands, or ""."""
    text = table.defect(mask)
    return text and f"{table.objects_of(mask)} {text}"


def _of_mask(table: RigidTable, mask: int) -> MaximalRigid:
    """:meth:`RigidTable.checked`, for a mask that was computed, not read,
    so a defect falsifies the computation."""
    t = table.checked(mask)
    if isinstance(t, str):
        raise TheoremViolationError(t)
    return t


def exchange(t: MaximalRigid, k: int) -> tuple[MaximalRigid, int]:
    """Swap summand ``k`` for its unique complement, by the graph's kernel
    :func:`exchanges` on ``t``'s mask; returns the new object and the
    index the new summand occupies in canonical order."""
    if not 0 <= k < t.n - 1:
        raise IndexError(f"summand index {k} out of range")
    table = rigid_table(t.n)
    mask = exchanges(table.compat, t.mask)[k]
    new = mask & ~t.mask
    return _of_mask(table, mask), (mask & (new - 1)).bit_count()


def check_matrix(b: Rows) -> Rows:
    """``b`` if it is a square matrix of rows with a zero diagonal, as a
    B-matrix is, else :class:`StructuralError`: the check on a matrix a
    caller passes in."""
    size = len(b)
    if any(len(row) != size for row in b):
        raise StructuralError(f"{size}-row matrix is not square")
    if any(b[i][i] != 0 for i in range(size)):
        raise StructuralError("nonzero diagonal entry")
    return b


def cartan_counterpart(b: Rows) -> Rows:
    """2 on the diagonal, -|b_ij| off it."""
    return tuple(
        tuple(2 if i == j else -abs(v) for j, v in enumerate(row))
        for i, row in enumerate(check_matrix(b))
    )


def _getter(bits: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The items at ``bits`` of a sequence, as a tuple: ``itemgetter(*bits)``,
    which would return one item bare and cannot take none."""
    return itemgetter(*bits) if len(bits) > 1 else lambda seq: tuple(seq[i] for i in bits)


def _getters(size: int, k: int, p: int, w: int) -> tuple:
    """What mutation at ``k`` of a ``size``-square matrix, with index ``k``
    written at position ``p``, the others kept in order around it, and
    turned by ``w`` as :func:`~clustertube.mutation._turn` does, reads off
    any of its rows: ``move``, all positions in new order, ``others``, all
    but ``k``, and ``slot``, row k's new position."""
    perm = [*range(k), *range(k + 1, size)]
    perm.insert(p, k)
    perm = perm[w:] + perm[:w]
    return _getter(perm), _getter([i for i in perm if i != k]), (p - w) % size


def _mutate_rows(b: Rows, k: int, p: int, w: int = 0) -> Rows:
    """Fomin-Zelevinsky mutation at ``k`` of a square matrix of rows, with
    index ``k`` written at position ``p``, the others kept in order around
    it, and turned by ``w`` as :func:`~clustertube.mutation._turn` does,
    in one step."""
    move, others, slot = _getters(len(b), k, p, w)
    new = []
    for row in others(b):
        c = row[k]
        row = [v + (abs(c) * x + c * abs(x)) // 2 for v, x in zip(row, b[k])]
        row[k] = -c
        new.append(move(row))
    new.insert(slot, tuple(map(neg, move(b[k]))))
    return tuple(new)
