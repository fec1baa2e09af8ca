"""Maximal rigid objects: enumeration, structure, complements, witnesses.

The rigid indecomposables of one rank are numbered in canonical order
(:class:`RigidTable`), so a set of them is an int bitmask whose bits, read
upwards, list it in canonical summand order.  Two kernels on these masks
run under the exchange graph: the clique search :func:`maximal_cliques`,
and :func:`exchanges`, a clique's n-1 exchanged masks, by
:func:`completions`, the one exchange kernel; the polygon model flips by
its own corner kernel, turning masks by :func:`rotate`, and checks its
non-crossing table by :func:`maximal_cliques`.  Tilting data and
cluster-tilting witnesses are :func:`tilting_datum_of` and
:func:`tilting_witness`.

Tau, as turning the 2n-gon, rotates indices by n-1 bits, so both models
sweep their tables for socle 1 only (:func:`tau_swept`).
:func:`rigid_table` certifies ``compat`` symmetric, so a clique of it is
rigid, and tau an automorphism of the table, wings included, so
:func:`maximal_rigid_reps` searches one clique per orbit, through the
lowest top, checking each by whole-mask tests.  Everything reads these
representatives: :func:`orbit_graph` makes either graph's tau-quotient
from their targets alone, exchanged here, flipped in the polygon model,
and :func:`orbit_nodes` expands them into the sorted nodes, from which
:func:`enumerate_maximal_rigid` makes each :class:`MaximalRigid`
unchecked, as its mask.
:class:`QuotientGraph` locates a node's orbit and turn from its mask and
expands the nodes and edges when they are read, and :func:`cover_walk`
certifies connectivity on the quotient, by voltages.
:class:`MaximalRigid`, the record ``(n, mask)``, and
:class:`~clustertube.tube.TubeObject` are the boundary types.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property, lru_cache
from math import gcd
from struct import Struct

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

    In canonical order tau shifts every index down by n-1, so rotating a
    mask of rigid indecomposables up by n-1 bits applies tau^-1 to each of
    them, ``(a, b)`` to ``(a+1, b)``, and rotating it down applies tau.
    """
    shift %= size
    return (mask << shift | mask >> (size - shift)) & ((1 << size) - 1)


def maximal_cliques(adj: Sequence[int], seed: int = 0, excluded: int = 0) -> list[int]:
    """Maximal cliques, as masks, of the graph on ``0..len(adj)-1`` whose
    vertex ``v`` has neighbour mask ``adj[v]``: those that contain the
    clique ``seed`` and avoid the vertices ``excluded``.  No vertex is its
    own neighbour, which :func:`rigid_table` and
    :func:`~clustertube.polygon.polygon_table` ensure by building rows
    with ``j != i``.

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
    """One Bron-Kerbosch step: only the candidates ``p`` outside a pivot's
    neighbours are branched on, the pivot the lowest vertex of ``x``, else
    of ``p`` (any in P | X is correct: Tomita, Tanaka, Takahashi 2006).  A
    module function, not a closure, so that a search leaves no reference
    cycle holding ``cliques``."""
    if not p:
        if not x:
            cliques.append(r)
        return
    pivot = x or p
    outside = ~adj[(pivot & -pivot).bit_length() - 1]
    while branch := p & outside:
        bit = branch & -branch
        row = adj[bit.bit_length() - 1]
        _expand(adj, cliques, r | bit, p & row, x & row)
        p ^= bit
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


def orbit_nodes(reps: Iterable[int], n: int) -> tuple[int, ...]:
    """The nodes of the orbits of ``reps``, sorted by bit indices.  Rotated
    shift-major, sorted ``reps`` keep much of their order: the sort merges
    508 ascending runs at rank 8, against 1716 rotating one rep at a time."""
    size, step = n * (n - 1), n - 1
    full = (1 << size) - 1
    masks = [(m << s | m >> size - s) & full for s in range(0, size, step) for m in reps]
    _sort_by_indices(masks, size)
    return tuple(masks)


def orbit_graph(
    marked: int, n: int, reps: Sequence[int], targets: Iterable[Iterable[int]], name: str
) -> tuple[dict[int, int], array]:
    """The tau-quotient of graph ``name`` on the orbits of ``reps``, each
    through the lowest ``marked`` vertex and sorted by bit indices, given
    ``targets``, each representative's neighbours in ``reps`` order, the
    one that swaps its k-th lowest vertex k-th: ``reps`` mapped to the
    orbit numbers, and ``blocks``, one flat array with
    ``blocks[o*(n-1)+k] = o2*n + j2``: the k-th target of representative
    ``o`` is the representative of orbit ``o2`` rotated by ``j2(n-1)``
    bits, its voltage ``j2``.

    Every target must be a rotation of a representative.  The expanded
    edges are :attr:`QuotientGraph.edges`.
    """
    size, d, low = n * (n - 1), n - 1, (marked & -marked).bit_length()
    full = (1 << size) - 1
    number = {r: o for o, r in enumerate(reps)}
    blocks = array("i")
    get, append = number.get, blocks.append
    for masks in targets:
        for mask in masks:
            t = (mask & marked).bit_length() - low  # 0 unless the marked vertex was swapped
            o = get(mask if t <= 0 else (mask >> t | mask << size - t) & full, -1)
            if o < 0 or t % d:
                raise TheoremViolationError(
                    f"{name} at rank {n} reaches {bit_indices(mask)}, "
                    f"outside the enumeration of {n * len(reps)}"
                )
            append(o * n + t // d)
    return number, blocks


def cover_walk(blocks: Sequence[int], n: int, start: int) -> tuple[array, int]:
    """A BFS of the tau-quotient ``blocks`` (see :func:`orbit_graph`) from
    orbit ``start``: its steps, and the number of nodes of the graph
    reached from a node of that orbit.

    A step is an index ``o*(n-1) + k`` of ``blocks``, the ``k``-th edge of
    orbit ``o``, into orbit ``o2`` with voltage ``j2`` where
    ``blocks[o*(n-1) + k] = o2*n + j2``.  It is taken when ``o`` is popped
    if ``o2`` is not popped yet or is ``o`` itself: so each edge between
    two orbits once, from the end popped first, and each loop at every
    end, in the order the BFS pops them.

    Each reached orbit gets a potential mod n, the voltages summed along
    the BFS tree.  An edge's net voltage is its voltage plus its source's
    potential minus its target's (0 on the tree), and the net voltages of
    closed walks generate the subgroup g·Z_n, g the gcd of n with every
    edge's net voltage.  Each reached orbit then meets the reached nodes
    n/g times (Gross and Tucker, *Topological Graph Theory*, 2.5), as long
    as every edge has its reverse, as exchange does.
    """
    d = n - 1
    potential = [-1] * (len(blocks) // d)  # -1: not reached
    potential[start] = 0
    popped = bytearray(len(potential))
    order, steps, g = [start], array("i"), n
    for o in order:  # the queue: read as it grows
        popped[o] = 1
        here = potential[o]
        # x = o2*n + j2, and g divides n, so x stands for j2 mod n and mod g
        for step, x in enumerate(blocks[o * d : o * d + d], o * d):
            o2 = x // n
            there = potential[o2]
            if there < 0:
                potential[o2] = (here + x) % n
                order.append(o2)
            elif g > 1:
                g = gcd(g, here + x - there)
            if not popped[o2] or o2 == o:
                steps.append(step)
    return steps, len(order) * n // g


class QuotientGraph:
    """A graph on the maximal cliques of a rank-``n`` table, each with one
    ``marked`` vertex, kept as its tau-quotient: ``reps`` and ``blocks``,
    from :func:`orbit_graph`.

    ``edges[i*(n-1)+k]``, one flat array, is the node reached by swapping
    the k-th lowest vertex of node ``i``.  It is built on first read:
    rotating a representative ``j`` steps rotates its targets ``j`` steps,
    so the ``j``-th node of an orbit has column ``j`` of its targets'
    orbits, turned by the node's turn, the representative's bits that wrap
    when it is rotated onto the node.  Equal ``reps``, ``marked`` and
    ``blocks`` give equal edges.  A subclass sets ``n``, ``marked``,
    ``reps`` and ``blocks``.
    """

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        """Every node's mask, sorted by bit indices: built on first read."""
        return orbit_nodes(self.reps, self.n)

    def locate(self, masks: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The orbit of each node of ``masks`` and its turn: the node
        rotated down to its marked vertex is the orbit's representative."""
        marked, size, reps = self.marked, self.n * (self.n - 1), self.reps
        low, full = (marked & -marked).bit_length(), (1 << size) - 1
        for mask in masks:
            t = (mask & marked).bit_length() - low
            yield reps[(mask >> t | mask << size - t) & full], (mask & (1 << t) - 1).bit_count()

    def tau_power(self, mask: int, j: int) -> tuple[int, int]:
        """tau^-j of the node ``mask``, its mask rotated up by j(n-1) bits,
        and the number of its bits that wrap: the node's turn when ``mask``
        is its representative."""
        size, low = self.n * (self.n - 1), (self.n - j) * (self.n - 1)  # bits from low up wrap
        return (mask << size - low | mask >> low) & (1 << size) - 1, (mask >> low).bit_count()

    @cached_property
    def edges(self) -> array:
        """Every node's block, written one orbit at a time."""
        n, d, nodes, blocks = self.n, self.n - 1, self.nodes, self.blocks
        size = n * d
        full = (1 << size) - 1
        number = dict(zip(nodes, range(len(nodes))))
        # each orbit's node numbers, by the power of tau
        members = [
            [number[(r << s | r >> size - s) & full] for s in range(0, size, d)]
            for r in self.reps
        ]
        del number  # before the edges are allocated: a lower peak
        edges = array("l", [0]) * (len(nodes) * d)
        # each node's block is packed straight into the array's buffer, so
        # no array is made per node
        write, step = Struct(f"{d}l").pack_into, edges.itemsize * d
        for o, r in enumerate(self.reps):
            targets = []  # each target's orbit, from the target on
            for x in blocks[o * d : o * d + d]:
                orbit, j = members[x // n], x % n
                targets.append(orbit[j:] + orbit[:j] if j else orbit)
            targets += targets  # so that each turn is one slice
            for i, block, s in zip(members[o], zip(*targets), range(size, 0, -d)):
                w = (r >> s).bit_count()  # r's bits that wrap when rotated by size - s
                write(edges, i * step, *block[d - w : 2 * d - w])
        return edges


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
    an error's text.  The exchange graph and
    :func:`~clustertube.mutation.exchange` call it."""
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


@lru_cache(maxsize=None)
def rigid_table(n: int) -> RigidTable:
    """The integer table of rank ``n``.

    Ext is swept once, for the objects of socle 1, and rotated from
    there (:func:`tau_swept`): Ext is invariant under tau, which the row of
    index n-1, the top of socle 2, computed from Ext as well, must confirm.
    In a 2-Calabi-Yau category Ext-compatibility is symmetric, so each
    swept row must equal its column, bit i of every row: that also checks
    every rotated row against Ext, and certifies that a clique of
    ``compat`` is pairwise compatible, as :func:`maximal_rigid_reps` takes
    it to be.  Last, rotating by n-1 bits must carry each top's wing to
    the next top's, so tau is an automorphism of the table: of ``compat``
    by the sweep, and of the tops, top ``(a, n-1)`` being index
    ``(a-1)(n-1)``.  So a rotation of a maximal rigid mask is one.
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
    (:func:`maximal_rigid_reps`), and :func:`enumerate_maximal_rigid`
    makes every node of its orbit unchecked, since :func:`rigid_table`
    certifies that its rotations pass too.  It compares and hashes as the
    record ``(n, mask)``, and copies and pickles by its rank and
    summands, through the constructor, which checks them again.
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


def _checked(table: RigidTable, mask: int) -> MaximalRigid | str:
    """The :class:`MaximalRigid` of ``mask``, checked as construction
    checks it, without parsing its summands back into a mask; or, if the
    check fails, the summands and the defect."""
    return _defect(table, mask) or _nodes(table.n, [mask])[0]


def _of_mask(table: RigidTable, mask: int) -> MaximalRigid:
    """:func:`_checked`, for a mask that was computed, not read, so a
    defect falsifies the computation."""
    t = _checked(table, mask)
    if isinstance(t, str):
        raise TheoremViolationError(t)
    return t


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
def maximal_rigid_reps(n: int) -> tuple[int, ...]:
    """The masks of the maximal rigid objects through the lowest top, one
    per tau-orbit, sorted by their bit indices: the maximal cliques of
    ``compat`` through that top.

    Each is a clique of the symmetric ``compat`` that :func:`rigid_table`
    certifies, so its summands are pairwise compatible, and it is checked
    by whole-mask tests alone, in :meth:`RigidTable.defect`'s order: n-1
    summands, the lowest top its only top, which keeps an orbit from
    being listed twice, and no summand outside that top's wing.  A mask
    that fails raises ``defect``'s text.  A second search, every top
    excluded, must find no maximal clique at all.  A table built by hand
    with an asymmetric ``compat`` is not checked for rigidity here;
    ``counts/tilting-roundtrip`` runs the full ``defect``."""
    table = rigid_table(n)
    tops, low = table.tops, table.tops & -table.tops
    wing = table.wings[low.bit_length() - 1]
    reps = maximal_cliques(table.compat, seed=low)
    for mask in reps + maximal_cliques(table.compat, excluded=tops)[:1]:
        if not mask & tops:
            raise TheoremViolationError(
                f"maximal rigid object without a top: {table.objects_of(mask)}"
            )
        if mask.bit_count() != n - 1 or mask & tops != low or mask & ~wing:
            raise TheoremViolationError(_defect(table, mask))
    _sort_by_indices(reps, len(table.objects))
    return tuple(reps)


@lru_cache(maxsize=None)
def maximal_rigid_masks(n: int) -> tuple[int, ...]:
    """The masks of all maximal rigid objects, sorted by their bit
    indices: the orbits of :func:`maximal_rigid_reps`."""
    return orbit_nodes(maximal_rigid_reps(n), n)


def enumerate_maximal_rigid(n: int) -> tuple[MaximalRigid, ...]:
    """All maximal rigid objects, in :func:`maximal_rigid_masks` order.

    Each tau-orbit's representative, through the lowest top, was checked
    by the search (:func:`maximal_rigid_reps`: a clique of the symmetric
    ``compat``, of n-1 summands, with one top and inside its wing), and
    its rotations pass as it does, since :func:`rigid_table` certifies
    tau an automorphism of the table.  So each node is made from its mask
    unchecked, its summands unread."""
    return tuple(_nodes(n, maximal_rigid_masks(n)))


def tilting_datum_of(table: RigidTable, mask: int) -> tuple[int, int]:
    """The tilting datum of the maximal rigid ``mask``, on indices: the
    index ``t`` of its top, and its other summands rotated down by ``t``
    bits.  That rotation is tau^(t/(n-1)), taking the top to socle 1, so
    bit ``j`` of the second stands for the object ``table.objects[j]``,
    whose coordinates ``(offset + 1, quasi_length)`` give the wing
    position ``(offset, quasi_length)``."""
    top = mask & table.tops
    t = top.bit_length() - 1
    return t, rotate(mask ^ top, -t, len(table.objects))


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
    if not is_rigid_set(tbar):
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
