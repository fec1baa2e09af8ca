"""Exchange matrices, Fomin-Zelevinsky mutation, and the exchange graph.

The B-matrix of the zig-zag initial object is written down explicitly;
every other B-matrix is defined operationally by mutation along the
exchange graph.  BFS mutates and compares the matrix once on each
undirected edge; the reverse direction holds because mutation is an
involution, so finishing without a mismatch certifies that the
assignment is path independent.
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
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, neg

from .errors import StructuralError, TheoremViolationError
from .rigid import (
    MaximalRigid,
    complements,
    exchanges,
    maximal_rigid_masks,
    rigid_table,
)
from .tube import TubeObject

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ExchangeMatrix:
    """Square integer matrix indexed by an ordered summand list."""

    order: tuple[TubeObject, ...]
    entries: Rows

    def __post_init__(self) -> None:
        k = len(self.order)
        if len(self.entries) != k or any(len(r) != k for r in self.entries):
            raise StructuralError("entries do not match the summand order")
        if any(self.entries[i][i] != 0 for i in range(k)):
            raise StructuralError("nonzero diagonal entry")

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]


@dataclass(frozen=True)
class Seed:
    object: MaximalRigid
    matrix: ExchangeMatrix

    def __post_init__(self) -> None:
        if self.matrix.order != self.object.summands:
            raise StructuralError("matrix order differs from the summand list")


@dataclass(frozen=True)
class MiddleTerms:
    """Middle-term multiplicities of the two exchange triangles at one
    summand, read off the B-matrix row: U from the negative entries,
    U' from the positive ones."""

    u: tuple[TubeObject, ...]
    u_prime: tuple[TubeObject, ...]

    def __post_init__(self) -> None:
        if set(self.u) & set(self.u_prime):
            raise TheoremViolationError(
                f"exchange triangle middle terms share a summand: {self}"
            )


def is_sign_skew_symmetric(rows) -> bool:
    """sign(b_ij) == -sign(b_ji) for all i, j."""
    if isinstance(rows, ExchangeMatrix):
        rows = rows.entries
    signs = [tuple((v > 0) - (v < 0) for v in row) for row in rows]
    return all(
        row == tuple(-v for v in col) for row, col in zip(signs, zip(*signs))
    )


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
    """Swap summand ``k`` for its unique complement; returns the new
    object and the index the new summand occupies in canonical order."""
    if not 0 <= k < len(t.summands):
        raise IndexError(f"summand index {k} out of range")
    removed = t.summands[k]
    tbar = t.summands[:k] + t.summands[k + 1 :]
    first, second = complements(tbar, t.n)
    other = second if first == removed else first
    t2 = MaximalRigid(t.n, tbar + (other,))
    return t2, t2.summands.index(other)


class ExchangeGraph:
    """All seeds at rank n, with B-matrices propagated by BFS.

    ``nodes`` holds each node's mask, in
    :func:`~clustertube.rigid.maximal_rigid_masks` order, as
    :attr:`FlipGraph.nodes <clustertube.polygon.FlipGraph.nodes>` does, and
    ``rows`` each one's canonical-order matrix as a tuple of rows;
    ``edges[i*(n-1)+k]``, one flat array, is the node reached by exchanging
    summand ``k`` (bit order) of node ``i``, and ``order`` the pop order.
    :meth:`b_matrix` is the one lookup from a :class:`MaximalRigid` to its
    :class:`ExchangeMatrix`.  Canonical order is bit order, so each
    mutation step writes the new summand straight into its position: the
    number of kept bits below its index.  The masks reached must be
    exactly the enumeration's.

    An edge into a node already popped was mutated and compared from that
    node, so it is recorded without a step: one mutation per undirected
    edge.  One :func:`~clustertube.rigid.exchanges` call gives a node's
    n-1 exchanges, and equal rows are one tuple (234 among 24 024 at
    rank 8): rank 10 takes about 3.8 s after the mask enumeration and
    peaks at 43 MB (2 vCPU, Python 3.11.7).
    """

    def __init__(self, n: int):
        self.n = n
        table = rigid_table(n)
        seed = initial_seed(n)
        start = table.mask_of(seed.object.summands)
        self.nodes: tuple[int, ...] = maximal_rigid_masks(n)
        self._number = number = {mask: i for i, mask in enumerate(self.nodes)}
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        rows = {start: tuple(shared.setdefault(r, r) for r in seed.matrix.entries)}
        popped: set[int] = set()
        order, found = array("l"), array("l")  # node numbers, -1 if not enumerated
        queue = deque([start])
        while queue:
            mask = queue.popleft()
            popped.add(mask)
            order.append(number.get(mask, -1))
            b = rows[mask]
            for k, (removed, new) in enumerate(exchanges(table.compat, mask)):
                mask2 = mask ^ 1 << removed | 1 << new
                found.append(number.get(mask2, -1))
                if mask2 in popped:
                    continue
                b2 = _mutate_rows(b, k, (mask2 & ((1 << new) - 1)).bit_count())
                seen = rows.get(mask2)
                if seen is None:
                    rows[mask2] = tuple(shared.setdefault(r, r) for r in b2)
                    queue.append(mask2)
                elif seen != b2:
                    raise TheoremViolationError(
                        f"path-independence failure at {table.objects_of(mask2)}: "
                        f"{seen} vs {b2}"
                    )
        if number.keys() != rows.keys():
            raise TheoremViolationError(
                f"exchange graph at rank {n} reaches {len(rows)} objects, "
                f"the enumeration has {len(number)}"
            )
        self.rows: tuple[Rows, ...] = tuple(rows[mask] for mask in self.nodes)
        # each popped node's block of n-1 neighbours, moved to node order
        self.order, d = order, n - 1
        self.edges = array("l", [0]) * len(found)
        for pos, i in enumerate(order):
            self.edges[i * d : i * d + d] = found[pos * d : pos * d + d]

    def b_matrix(self, t: MaximalRigid) -> ExchangeMatrix:
        """The matrix of node ``t``, built from its ``rows``."""
        i = None
        if isinstance(t, MaximalRigid) and t.n == self.n:
            i = self._number.get(rigid_table(self.n).mask_of(t.summands))
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
