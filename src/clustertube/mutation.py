"""Exchange matrices, Fomin-Zelevinsky mutation, and the exchange graph.

The B-matrix of the zig-zag initial object is written down explicitly;
every other B-matrix is defined operationally by mutation along the
exchange graph.  Tau acts freely on the seeds and mutation commutes
with permuting positions, so :class:`ExchangeGraph` walks the graph of
:func:`~clustertube.rigid.orbit_graph` once, from the seed, and mutates
only at each tau-orbit's representative, when the walk first pops a node
of that orbit; the reverse of each step holds because mutation is an
involution, so finishing the walk without a mismatch, with every node
reached, certifies that the assignment is path independent.
The graph's ``nodes`` are masks, in enumeration order, as the flip
graph's are, and its ``rows`` the matrices in the same order;
:meth:`ExchangeGraph.b_matrix` is the one lookup from an object to its
matrix.
The entry bound and sign-skew symmetry of every node's matrix are
checked once, by the ``mutation`` suite of :mod:`clustertube.verify`, on
the graph's raw ``rows``: no :class:`ExchangeMatrix` is built there, and
sign-skew symmetry alone forces a zero diagonal (``b_ii = -b_ii``).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from operator import itemgetter, neg

from .errors import StructuralError, TheoremViolationError
from .rigid import (
    MaximalRigid,
    _of_mask,
    bit_indices,
    maximal_rigid_masks,
    orbit_graph,
    rigid_table,
    swap,
)
from .tube import FrozenRecord, TubeObject

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

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]


class Seed(FrozenRecord):
    __slots__ = _fields = ("object", "matrix")

    def __init__(self, object: MaximalRigid, matrix: ExchangeMatrix) -> None:
        self._set(object, matrix)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.matrix.order != self.object.summands:
            raise StructuralError("matrix order differs from the summand list")


class MiddleTerms(FrozenRecord):
    """Middle-term multiplicities of the two exchange triangles at one
    summand, read off the B-matrix row: U from the negative entries,
    U' from the positive ones, so they never share a summand."""

    __slots__ = _fields = ("u", "u_prime")

    def __init__(self, u: tuple[TubeObject, ...], u_prime: tuple[TubeObject, ...]) -> None:
        self._set(u, u_prime)


def _mutate_rows(b: Rows, k: int, p: int) -> Rows:
    """Fomin-Zelevinsky mutation at ``k`` of a square matrix of rows,
    with index ``k`` written at position ``p`` and the others kept in
    order around it.

    Row and column k change sign; another row changes only where its
    column-k entry and row k are both nonzero.
    """
    perm = [*range(k), *range(k + 1, len(b))]
    perm.insert(p, k)
    move = itemgetter(*perm) if len(b) > 1 else lambda row: (row[0],)
    bk = b[k]
    nonzero = [(j, v, abs(v)) for j, v in enumerate(bk) if v]
    new = []
    for row in move(b):
        c = row[k]
        if c == 0:
            new.append(move(row))
        else:
            row, a = list(row), abs(c)
            for j, v, w in nonzero:
                row[j] += (a * v + c * w) // 2
            row[k] = -c
            new.append(move(row))
    new[p] = tuple(map(neg, move(bk)))
    return tuple(new)


def _turn(b: Rows, w: int) -> Rows:
    """The square matrix ``b`` with every position moved cyclically
    down by ``w``: entry ``(p, q)`` is ``b[p+w][q+w]``, indices mod size."""
    return tuple(row[w:] + row[:w] for row in b[w:] + b[:w])


def fz_mutate(mat: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Fomin-Zelevinsky matrix mutation at index ``k`` (0-based).

    The order list is unchanged; the caller substitutes the exchanged
    summand afterwards.
    """
    size = len(mat.order)
    if not 0 <= k < size:
        raise IndexError(f"mutation index {k} out of range for size {size}")
    return ExchangeMatrix(mat.order, _mutate_rows(mat.entries, k, k))


def cartan_counterpart(mat) -> Rows:
    """2 on the diagonal, -|b_ij| off it."""
    rows = mat.entries if isinstance(mat, ExchangeMatrix) else mat
    k = len(rows)
    return tuple(
        tuple(2 if i == j else -abs(rows[i][j]) for j in range(k)) for i in range(k)
    )


def initial_seed(n: int) -> Seed:
    """The zig-zag maximal rigid object and its explicitly known matrix.

    Summand j (1-based, quasi-length n-j) is (ceil(j/2), n-j); the matrix
    has b_12 = -2, b_21 = 1 and alternating +-1 off-diagonal pairs below.
    """
    summands = tuple(TubeObject((j + 1) // 2, n - j, n) for j in range(1, n))
    obj = MaximalRigid(n, summands)
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
    """Swap summand ``k`` for its unique complement, by
    :func:`~clustertube.rigid.swap` on ``t``'s mask; returns the new
    object and the index the new summand occupies in canonical order."""
    if not 0 <= k < len(t.summands):
        raise IndexError(f"summand index {k} out of range")
    table = rigid_table(t.n)
    mask = swap(table.compat, t.mask, bit_indices(t.mask)[k])
    new = mask & ~t.mask
    return _of_mask(table, mask), (mask & (new - 1)).bit_count()


class ExchangeGraph:
    """All seeds at rank n, with B-matrices propagated by mutation on the
    tau-quotient during one BFS from the seed.

    ``nodes`` holds each node's mask, in
    :func:`~clustertube.rigid.maximal_rigid_masks` order, as
    :attr:`FlipGraph.nodes <clustertube.polygon.FlipGraph.nodes>` does, and
    ``rows`` each one's canonical-order matrix as a tuple of rows;
    ``edges[i*(n-1)+k]``, one flat array, is the node reached by exchanging
    summand ``k`` (bit order) of node ``i``, and ``order`` the BFS pop
    order from the seed.  :meth:`b_matrix` is the one lookup from a
    :class:`MaximalRigid` to its :class:`ExchangeMatrix`.

    The edges, each node's representative (the tau-image with its top at
    bit 0), its turn and the node numbering come from
    :func:`~clustertube.rigid.orbit_graph`, as the flip graph's edges do.
    A node's turn moves canonical positions cyclically.  The BFS runs in
    k order; the first node it pops from an orbit mutates the exchanges
    of the orbit's representative, and each result is turned by its
    target's turn before it is stored for the target's orbit or compared.
    A step into an orbit whose representative was already mutated was
    mutated and compared from there; a step into the representative's own
    orbit is always mutated and compared.  Mutation commutes with
    rotation, so these comparisons cover every tau-image of every edge.
    Every popped node takes its representative's rows turned back by its
    own turn, and the BFS must reach every node, which certifies
    connectivity.  Equal rows are one tuple (234 among 24 024 at rank 8),
    and so are the matrices of one representative's rotations with equal
    turn (1716 among 3432).
    """

    def __init__(self, n: int):
        self.n = n
        table = rigid_table(n)
        seed = initial_seed(n)
        self.nodes: tuple[int, ...] = maximal_rigid_masks(n)
        nodes, d = self.nodes, n - 1
        self.edges, rep, turn, self._number = orbit_graph(
            table.compat, table.tops, n, nodes, "exchange graph"
        )
        edges, first = self.edges, self._number[seed.object.mask]
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}

        def share(b: Rows) -> Rows:
            return tuple(shared.setdefault(row, row) for row in b)

        # turned[r]: the rows of representative r's orbit by turn, r's own
        # at turn 0.  The node that first reaches an orbit was popped
        # before it, when its own representative's exchanges, which reach
        # a rotation of every orbit the node's do, were mutated and stored;
        # so every node's orbit has rows by the time the node is popped.
        turned = {rep[first]: [share(_turn(seed.matrix.entries, turn[first]))] + [None] * (d - 1)}
        mutated, reached = bytearray(len(nodes)), bytearray(len(nodes))
        reached[first] = 1
        self.order = order = array("l", [first])
        rows: list[Rows | None] = [None] * len(nodes)
        for i in order:  # the queue: read as it grows
            r, w = rep[i], turn[i]
            cell = turned[r]
            if not mutated[r]:
                mutated[r] = 1
                b, mask = cell[0], nodes[r]
                for k, t in enumerate(edges[r * d : r * d + d]):
                    r2, mask2, w2 = rep[t], nodes[t], turn[t]
                    if mutated[r2] and r2 != r:
                        continue
                    p = (mask2 & (mask2 & ~mask) - 1).bit_count()  # the new summand's position
                    b2 = _turn(_mutate_rows(b, k, p), w2)
                    seen = turned.get(r2)
                    if seen is None:
                        turned[r2] = [share(b2)] + [None] * (d - 1)
                    elif seen[0] != b2:
                        raise TheoremViolationError(
                            f"path-independence failure at {table.objects_of(mask2)}: "
                            f"{_turn(seen[0], -w2)} vs {_turn(b2, -w2)}"
                        )
            if cell[w] is None:
                cell[w] = share(_turn(cell[0], -w))
            rows[i] = cell[w]
            for j in edges[i * d : i * d + d]:
                if not reached[j]:
                    reached[j] = 1
                    order.append(j)
        if len(order) != len(nodes):
            raise TheoremViolationError(
                f"exchange graph at rank {n} reaches {len(order)} objects, "
                f"the enumeration has {len(nodes)}"
            )
        self.rows: tuple[Rows, ...] = tuple(rows)

    def b_matrix(self, t: MaximalRigid) -> ExchangeMatrix:
        """The matrix of node ``t``, built from its ``rows``."""
        i = None
        if isinstance(t, MaximalRigid) and t.n == self.n:
            i = self._number.get(t.mask)
        if i is None:
            raise StructuralError(f"unknown node {t}")
        return ExchangeMatrix(t.summands, self.rows[i])

    def middle_terms(self, t: MaximalRigid, i: int) -> MiddleTerms:
        mat = self.b_matrix(t)
        if not 0 <= i < len(mat.order):
            raise IndexError(f"summand index {i} out of range")
        row = mat.entries[i]
        u: list[TubeObject] = []
        u_prime: list[TubeObject] = []
        for j, v in enumerate(row):
            u.extend([mat.order[j]] * max(-v, 0))
            u_prime.extend([mat.order[j]] * max(v, 0))
        return MiddleTerms(tuple(u), tuple(u_prime))


@lru_cache(maxsize=None)
def build_exchange_graph(n: int) -> ExchangeGraph:
    return ExchangeGraph(n)
