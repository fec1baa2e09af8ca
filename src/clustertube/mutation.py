"""Exchange matrices, Fomin-Zelevinsky mutation, and the exchange graph.

The B-matrix of the zig-zag initial object is written down explicitly;
every other B-matrix is defined operationally by mutation along the
exchange graph.  BFS re-checks the matrix on every revisit, so finishing
without a mismatch certifies that the assignment is path independent.
The entry bound and sign-skew symmetry of every node's matrix are
checked once, by the ``mutation`` suite of :mod:`clustertube.verify`.
"""

from __future__ import annotations

from bisect import bisect
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import StructuralError, TheoremViolationError
from .rigid import (
    MaximalRigid,
    bit_indices,
    complements,
    enumerate_maximal_rigid,
    rigid_table,
    swap,
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


def _mutate_rows(b: Rows, k: int) -> Rows:
    """Fomin-Zelevinsky mutation at ``k`` of a square matrix of rows.

    Row and column k change sign; another row changes only where its
    column-k entry is nonzero.
    """
    bk = b[k]
    new = []
    for i, row in enumerate(b):
        c = row[k]
        if i == k:
            new.append(tuple(-v for v in row))
        elif c == 0:
            new.append(row)
        else:
            changed = [v + (abs(c) * w + c * abs(w)) // 2 for v, w in zip(row, bk)]
            changed[k] = -c
            new.append(tuple(changed))
    return tuple(new)


def _move(seq: tuple, k: int, p: int) -> tuple:
    """``seq`` with its item at position ``k`` moved to position ``p``."""
    if p >= k:
        return seq[:k] + seq[k + 1 : p + 1] + seq[k : k + 1] + seq[p + 1 :]
    return seq[:p] + seq[k : k + 1] + seq[p:k] + seq[k + 1 :]


def fz_mutate(mat: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Fomin-Zelevinsky matrix mutation at index ``k`` (0-based).

    The order list is unchanged; the caller substitutes the exchanged
    summand afterwards.
    """
    size = len(mat.order)
    if not 0 <= k < size:
        raise IndexError(f"mutation index {k} out of range for size {size}")
    return ExchangeMatrix(mat.order, _mutate_rows(mat.entries, k))


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
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
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

    ``nodes`` maps each maximal rigid object to its canonical-order
    matrix; ``edges`` holds every directed triple (t, k, t').  The
    search runs on the masks of :func:`~clustertube.rigid.rigid_table`,
    where canonical order is ascending index order.  The masks reached
    must be exactly those of :func:`enumerate_maximal_rigid`, whose
    objects become the nodes.
    """

    def __init__(self, n: int):
        self.n = n
        table = rigid_table(n)
        seed = initial_seed(n)
        start = table.mask_of(seed.object.summands)
        rows: dict[int, Rows] = {start: seed.matrix.entries}
        edges: list[tuple[int, int, int]] = []
        queue = deque([start])
        while queue:
            mask = queue.popleft()
            order = bit_indices(mask)
            b = rows[mask]
            for k, removed in enumerate(order):
                mask2 = swap(table.compat, mask, removed)
                new = (mask2 & ~mask).bit_length() - 1
                # canonical order of the new seed: the new summand's index
                # sorts into position p among the indices kept
                p = bisect(order, new) - (removed < new)
                mutated = _mutate_rows(b, k)
                b2 = _move(tuple(_move(row, k, p) for row in mutated), k, p)
                seen = rows.get(mask2)
                if seen is None:
                    rows[mask2] = b2
                    queue.append(mask2)
                elif seen != b2:
                    raise TheoremViolationError(
                        f"path-independence failure at {table.objects_of(mask2)}: "
                        f"{seen} vs {b2}"
                    )
                edges.append((mask, k, mask2))
        objects = {table.mask_of(t.summands): t for t in enumerate_maximal_rigid(n)}
        if objects.keys() != rows.keys():
            raise TheoremViolationError(
                f"exchange graph at rank {n} reaches {len(rows)} objects, "
                f"the enumeration has {len(objects)}"
            )
        self.nodes: dict[MaximalRigid, ExchangeMatrix] = {
            objects[m]: ExchangeMatrix(objects[m].summands, b) for m, b in rows.items()
        }
        self.edges: list[tuple[MaximalRigid, int, MaximalRigid]] = [
            (objects[m], k, objects[m2]) for m, k, m2 in edges
        ]

    def b_matrix(self, t: MaximalRigid) -> ExchangeMatrix:
        if t not in self.nodes:
            raise StructuralError(f"unknown node {t}")
        return self.nodes[t]

    def middle_terms(self, t: MaximalRigid, i: int) -> MiddleTerms:
        mat = self.b_matrix(t)
        row = mat.entries[i]
        u: list[TubeObject] = []
        u_prime: list[TubeObject] = []
        for j, v in enumerate(row):
            u.extend([mat.order[j]] * max(-v, 0))
            u_prime.extend([mat.order[j]] * max(v, 0))
        return MiddleTerms(tuple(u), tuple(u_prime))

    def undirected_edges(self) -> set[frozenset[MaximalRigid]]:
        return {frozenset((t, t2)) for t, _, t2 in self.edges}


@lru_cache(maxsize=None)
def build_exchange_graph(n: int) -> ExchangeGraph:
    return ExchangeGraph(n)
