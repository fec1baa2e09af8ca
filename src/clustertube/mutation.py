"""Exchange matrices, Fomin-Zelevinsky mutation, and the exchange graph.

The B-matrix of the zig-zag initial object is written down explicitly;
every other B-matrix is defined operationally by mutation along the
exchange graph.  Tau acts freely on the seeds and mutation commutes
with permuting positions, so :class:`ExchangeGraph` keeps the graph as
its tau-quotient, from :func:`~clustertube.rigid.orbit_graph`, walks the
quotient once from the seed's orbit, and mutates only at each orbit's
representative; the reverse of each step holds because mutation is an
involution, so finishing the walk without a mismatch, with every node
reached (every orbit, and voltages that generate Z_n), certifies that the
assignment is path independent.
The graph's ``nodes`` are masks, in enumeration order, as the flip
graph's are.  It stores one matrix per tau-orbit, as a tuple of ids into
one :class:`RowTable` of distinct rows, and the walk mutates these id
tuples: few rows are distinct, so a memo per row k and step maps each row
id to its mutated row's id, and the arithmetic of :func:`_mutate_rows`
runs once per miss.  The views are built only when they are read: the
expanded ``edges`` and ``order``, every node's rows by ``rows``, and one
node's, its representative's turned back by the node's turn, by
:meth:`ExchangeGraph.b_matrix`, the one lookup from an object to its
matrix.
The entry bound and sign-skew symmetry of every node's matrix are
checked once, by the ``mutation`` suite of :mod:`clustertube.verify`, on
the stored ``rep_ids``, since a node's matrix is its representative's
turned, a simultaneous permutation: no :class:`ExchangeMatrix` is built
there, and sign-skew symmetry alone forces a zero diagonal
(``b_ii = -b_ii``).
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property, lru_cache, partial
from itertools import starmap
from operator import itemgetter, neg
from struct import Struct

from .errors import StructuralError, TheoremViolationError
from .rigid import (
    MaximalRigid,
    QuotientGraph,
    _of_mask,
    cover_walk,
    exchanges,
    maximal_rigid_masks,
    maximal_rigid_reps,
    orbit_graph,
    rigid_table,
)
from .tube import FrozenRecord, TubeObject, check_rank

Rows = tuple[tuple[int, ...], ...]


class ExchangeMatrix(FrozenRecord):
    """Square integer matrix indexed by an ordered summand list."""

    __slots__ = _fields = ("order", "entries")

    def __init__(self, order: tuple[TubeObject, ...], entries: Rows) -> None:
        self._set(order, entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        k = len(self.order)
        if len(self.entries) != k or any(len(r) != k for r in self.entries):
            raise StructuralError("entries do not match the summand order")
        if any(self.entries[i][i] != 0 for i in range(k)):
            raise StructuralError("nonzero diagonal entry")


class Seed(FrozenRecord):
    __slots__ = _fields = ("object", "matrix")

    def __init__(self, object: MaximalRigid, matrix: ExchangeMatrix) -> None:
        self._set(object, matrix)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.matrix.order != self.object.summands:
            raise StructuralError("matrix order differs from the summand list")


def _getter(bits: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The items at ``bits`` of a sequence, as a tuple: ``itemgetter(*bits)``,
    which would return one item bare and cannot take none."""
    return itemgetter(*bits) if len(bits) > 1 else lambda seq: tuple(seq[i] for i in bits)


def _getters(size: int, k: int, p: int, w: int) -> tuple:
    """What mutation at ``k`` of a ``size``-square matrix, with index ``k``
    written at position ``p``, the others kept in order around it, and
    turned by ``w`` as :func:`_turn` does, reads off any of its rows:
    ``move``, all positions in new order, ``others``, all but ``k``, and
    ``slot``, row k's new position."""
    perm = [*range(k), *range(k + 1, size)]
    perm.insert(p, k)
    perm = perm[w:] + perm[:w]
    return _getter(perm), _getter([i for i in perm if i != k]), (p - w) % size


def _mutate_rows(b: Rows, k: int, p: int, w: int = 0) -> Rows:
    """Fomin-Zelevinsky mutation at ``k`` of a square matrix of rows, with
    index ``k`` written at position ``p``, the others kept in order around
    it, and turned by ``w`` as :func:`_turn` does, in one step."""
    move, others, slot = _getters(len(b), k, p, w)
    new = []
    for row in others(b):
        c = row[k]
        row = [v + (abs(c) * x + c * abs(x)) // 2 for v, x in zip(row, b[k])]
        row[k] = -c
        new.append(move(row))
    new.insert(slot, tuple(map(neg, move(b[k]))))
    return tuple(new)


class _RowMemo(dict):
    """The row ids of one memo record of :meth:`RowTable.mutate`, for the
    matrices whose row k is one row: each maps to the id of that row
    mutated, moved and turned.  A miss computes it, from row k's
    ``nonzero`` entries ``(j, b_kj, |b_kj|)``, moves it and interns it in
    ``table``, in one call.  A row equal to row k at another position
    has ``b_ik = b_kk = 0``, so it only moves, as any other."""

    __slots__ = ("table", "k", "nonzero", "move")

    def __missing__(self, i: int) -> int:
        rows, known, k = self.table.rows, self.table._ids, self.k
        row = rows[i]
        c = row[k]
        if c:
            row, a = list(row), abs(c)
            for j, v, av in self.nonzero:
                row[j] += (a * v + c * av) // 2
            row[k] = -c
        row = self.move(row)
        new = known.get(row)
        if new is None:
            new = known[row] = len(rows)
            rows.append(row)
        self[i] = new
        return new


class RowTable:
    """Each distinct row once, in ``rows``, numbered by its id, and
    mutation on matrices stored as tuples of row ids.  :meth:`mutate` keys
    ``memos`` by ints packed in base ``size``: a step ``s = (k, p, w)``'s
    :func:`_getters` by ``~s``, and its record ``(get, others, slot,
    k_row)`` for row-k id ``r`` by ``s + r*size³``, ``get`` reading a
    :class:`_RowMemo` and ``k_row`` the id of row k's new row."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self.memos: dict[int, tuple] = {}

    def intern(self, row: tuple[int, ...]) -> int:
        """The id of ``row``, added if it is new."""
        i = self._ids.get(row)
        if i is None:
            i = self._ids[row] = len(self.rows)
            self.rows.append(row)
        return i

    def decode(self, ids: Iterable[int]) -> Rows:
        return tuple(map(self.rows.__getitem__, ids))

    def mutate(self, ids: tuple[int, ...], k: int, p: int, w: int) -> tuple[int, ...]:
        """:func:`_mutate_rows` on the matrix of row ids ``ids``, through
        its memo record."""
        size, memos = len(ids), self.memos
        key = ((ids[k] * size + k) * size + p) * size + w
        record = memos.get(key)
        if record is None:
            step, memo, bk = ~((k * size + p) * size + w), _RowMemo(), self.rows[ids[k]]
            move, others, slot = memos.get(step) or memos.setdefault(step, _getters(size, k, p, w))
            memo.table, memo.k, memo.move = self, k, move
            memo.nonzero = [(j, v, abs(v)) for j, v in enumerate(bk) if v]
            k_row = self.intern(tuple(map(neg, move(bk))))
            record = memos[key] = (memo.__getitem__, others, slot, k_row)
        get, others, slot, k_row = record
        new = list(map(get, others(ids)))
        new.insert(slot, k_row)
        return tuple(new)


def _turn(b: Rows, w: int) -> Rows:
    """The square matrix ``b`` with every position moved cyclically
    down by ``w``: entry ``(p, q)`` is ``b[p+w][q+w]``, indices mod size."""
    return tuple([row[w:] + row[:w] for row in b[w:] + b[:w]])


def fz_mutate(mat: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Fomin-Zelevinsky matrix mutation at index ``k`` (0-based).

    The order list is unchanged; the caller substitutes the exchanged
    summand afterwards.
    """
    size = len(mat.order)
    if not 0 <= k < size:
        raise IndexError(f"mutation index {k} out of range for size {size}")
    return ExchangeMatrix(mat.order, _mutate_rows(mat.entries, k, k))


def cartan_counterpart(mat: ExchangeMatrix) -> Rows:
    """2 on the diagonal, -|b_ij| off it."""
    return tuple(
        tuple(2 if i == j else -abs(v) for j, v in enumerate(row))
        for i, row in enumerate(mat.entries)
    )


def initial_seed(n: int) -> Seed:
    """The zig-zag maximal rigid object and its explicitly known matrix.

    Summand j (1-based, quasi-length n-j) is (ceil(j/2), n-j); the matrix
    has b_12 = -2, b_21 = 1 and alternating +-1 off-diagonal pairs below.
    """
    check_rank(n)
    summands = tuple(TubeObject((j + 1) // 2, n - j, n) for j in range(1, n))
    table = rigid_table(n)
    obj = _of_mask(table, table.mask_of(summands))  # computed: a defect falsifies a theorem
    size = n - 1
    rows = [[0] * size for _ in range(size)]
    if size >= 2:
        rows[0][1], rows[1][0] = -2, 1
    for j in range(1, size - 1):
        rows[j][j + 1] = (-1) ** (j + 1)
        rows[j + 1][j] = (-1) ** j
    mat = ExchangeMatrix(summands, tuple(tuple(r) for r in rows))
    return Seed(obj, mat)


def exchange(t: MaximalRigid, k: int) -> tuple[MaximalRigid, int]:
    """Swap summand ``k`` for its unique complement, by the graph's kernel
    :func:`~clustertube.rigid.exchanges` on ``t``'s mask; returns the new
    object and the index the new summand occupies in canonical order."""
    if not 0 <= k < t.n - 1:
        raise IndexError(f"summand index {k} out of range")
    table = rigid_table(t.n)
    mask = exchanges(table.compat, t.mask)[k]
    new = mask & ~t.mask
    return _of_mask(table, mask), (mask & (new - 1)).bit_count()


class ExchangeGraph(QuotientGraph):
    """All seeds at rank n, with B-matrices propagated by mutation on the
    tau-quotient during one walk from the seed.

    The graph is its tau-quotient, ``reps`` and ``blocks`` from
    :func:`~clustertube.rigid.orbit_graph`, with the tops marked, as the
    flip graph's is.  Built on first read: ``nodes``, each node's mask in
    :func:`~clustertube.rigid.maximal_rigid_masks` order, the orbits
    rotated shift-major and sorted (:func:`~clustertube.rigid.orbit_nodes`),
    as :attr:`FlipGraph.nodes <clustertube.polygon.FlipGraph.nodes>` are;
    ``edges`` (see :class:`~clustertube.rigid.QuotientGraph`); ``order``,
    the BFS pop order of the nodes from the seed; and ``rows``, each node's
    canonical-order matrix as a tuple of rows.  :meth:`b_matrix` is the one
    lookup from a :class:`MaximalRigid` to its :class:`ExchangeMatrix`.

    The walk is a BFS of the quotient from the seed's orbit
    (:func:`~clustertube.rigid.cover_walk`), which must reach every node:
    every orbit, with voltages that generate Z_n.  It is checked first, so
    a graph that is not connected fails before any mutation.  Each orbit's
    representative mutates its exchanges, in k order, and each result is
    turned by its target's turn before it is stored for the target's orbit
    or compared.  A step into an orbit already popped was mutated and
    compared from there; a step into the representative's own orbit is
    always mutated and compared.  A node's turn moves canonical positions
    cyclically, and mutation commutes with rotation, so these comparisons
    cover every tau-image of every edge.

    Only the representatives' matrices are stored, ``rep_ids[o]`` for
    orbit ``o``, each a tuple of ids into ``row_table``, and the walk
    compares id tuples.  Each step is one :meth:`RowTable.mutate`, through
    a memo record per id of row k, k, position and turn, sharing getters
    per k, position and turn, all in ``memos``, which the walk frees at
    its end; at rank 8 its 1504 steps mutate 9024 rows other than row k,
    2617 of them by the arithmetic, one call each.  A node's
    rows are decoded from its representative's ids and turned back by its
    own turn when ``rows`` or :meth:`b_matrix` first reads them.  Equal
    rows are one tuple, the table's (234 among 24 024 at rank 8), and so
    are the matrices of one representative's rotations with equal turn
    (1716 among 3432).
    """

    def __init__(self, n: int):
        self.n = n
        table = rigid_table(n)
        seed = initial_seed(n)
        self.marked, self._seed = table.tops, seed.object.mask
        reps = maximal_rigid_reps(n)
        self.reps, self.blocks = orbit_graph(
            table.tops, n, reps, map(partial(exchanges, table.compat), reps), "exchange graph"
        )
        ((first, w),) = self.locate([self._seed])
        steps, reached = cover_walk(self.blocks, n, first)
        if reached != n * len(reps):
            raise TheoremViolationError(
                f"exchange graph at rank {n} reaches {reached} objects, "
                f"the enumeration has {n * len(reps)}"
            )
        self.row_table = row_table = RowTable()
        # rep_ids[o]: orbit o's representative's row ids.  The walk reaches
        # an orbit by a step from one it popped before, so every orbit has
        # rows by the time its own steps are taken.
        self.rep_ids = stored = [None] * len(reps)
        stored[first] = tuple(map(row_table.intern, _turn(seed.matrix.entries, w)))
        self._turned: dict[tuple[int, int], Rows] = {}  # (o, w): orbit o's rows turned back by w
        blocks, d, mutate, tau_power = self.blocks, n - 1, row_table.mutate, self.tau_power
        for step in steps:
            (o, k), (o2, j2) = divmod(step, d), divmod(blocks[step], n)
            mask, mask2, w2 = reps[o], reps[o2], 0
            if j2:  # the top was swapped: the target is tau^-j2 of its representative
                mask2, w2 = tau_power(mask2, j2)
            p = (mask2 & (mask2 & ~mask) - 1).bit_count()  # the new summand's position
            ids = mutate(stored[o], k, p, w2)
            seen = stored[o2]
            if seen is None:
                stored[o2] = ids
            elif seen != ids:
                raise TheoremViolationError(
                    f"path-independence failure at {table.objects_of(mask2)}: "
                    f"{_turn(row_table.decode(seen), -w2)} vs {_turn(row_table.decode(ids), -w2)}"
                )
        row_table.memos.clear()  # they serve the walk only

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        """Every node's mask: the rank's one cached :func:`maximal_rigid_masks`."""
        return maximal_rigid_masks(self.n)

    @cached_property
    def order(self) -> array:
        """The BFS pop order of the nodes from the seed, over ``edges``."""
        edges, d = self.edges, self.n - 1
        block, step = Struct(f"{d}l").unpack_from, edges.itemsize * d  # node i's, at i*step
        first = self.nodes.index(self._seed)
        reached = bytearray(len(self.nodes))
        reached[first] = 1
        order = array("l", [first])
        for i in order:  # the queue: read as it grows
            for j in block(edges, i * step):
                if not reached[j]:
                    reached[j] = 1
                    order.append(j)
        return order

    def _rows_of(self, o: int, w: int) -> Rows:
        """The rows of the node of orbit ``o`` with turn ``w``: the
        representative's turned back by ``w``, one tuple per orbit and
        turn, each of its rows the one in ``row_table``."""
        b = self._turned.get((o, w))
        if b is None:
            b = self.row_table.decode(self.rep_ids[o])
            if w:
                b = self.row_table.decode(map(self.row_table.intern, _turn(b, -w)))
            self._turned[o, w] = b
        return b

    @cached_property
    def rows(self) -> tuple[Rows, ...]:
        """Every node's rows, in ``nodes`` order."""
        return tuple(starmap(self._rows_of, self.locate(self.nodes)))

    def b_matrix(self, t: MaximalRigid) -> ExchangeMatrix:
        """The matrix of node ``t``, built from its rows alone.  Every
        :class:`MaximalRigid` of rank n is a node, whose orbit and turn
        its own mask gives (:meth:`locate`)."""
        if not (isinstance(t, MaximalRigid) and t.n == self.n):
            raise StructuralError(f"unknown node {t}")
        return ExchangeMatrix(t.summands, self._rows_of(*next(self.locate([t.mask]))))


@lru_cache(maxsize=None)
def build_exchange_graph(n: int) -> ExchangeGraph:
    return ExchangeGraph(n)
