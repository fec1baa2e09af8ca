"""Nilpotent quiver representations: the independent Hom-dimension oracle.

An indecomposable ``(a, b)`` is realised as the uniserial representation
of the cyclic quiver on ``n`` vertices with basis ``v_a, ..., v_{a+b-1}``
(vertex of ``v_j`` is ``j`` mod ``n``), where the arrow at each vertex
sends ``v_j`` to ``v_{j-1}`` and kills ``v_a``.  Hom dimensions are then
solution-space dimensions of the intertwiner equations, computed with
exact integer arithmetic.  This never consults the closed formula in
:mod:`clustertube.tube`, so agreement between the two is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import integer_rank
from .tube import TubeObject, _mod_coord, _same_rank

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class NilpotentRep:
    """Representation of the cyclic quiver with nilpotent arrow action.

    ``dims[v-1]`` is the dimension at vertex ``v``; ``arrow_maps[v-1]``
    is the matrix of the arrow ``v -> v-1`` (cyclically), acting on
    column vectors, of shape ``dims[v-2] x dims[v-1]``.
    """

    n: int
    dims: tuple[int, ...]
    arrow_maps: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != self.n or len(self.arrow_maps) != self.n:
            raise ValueError("need one dimension and one arrow map per vertex")
        for v in range(1, self.n + 1):
            mat = self.arrow_maps[v - 1]
            rows, cols = self.dims[v - 2], self.dims[v - 1]
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(f"arrow map at vertex {v} has wrong shape")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def cycle_is_nilpotent(self) -> bool:
        """Composite of n consecutive arrows, iterated, eventually zero:
        from each vertex, the path of n * (total_dim + 1) arrows is zero."""
        for start in range(1, self.n + 1):
            d = self.dims[start - 1]
            m = [[int(i == j) for j in range(d)] for i in range(d)]
            v = start
            for _ in range(self.n * (self.total_dim + 1)):
                m = _compose(self.arrow_maps[v - 1], m, d)
                v = _mod_coord(v - 1, self.n)
            if any(any(row) for row in m):
                return False
        return True


def _compose(a, b, cols: int) -> list[list[int]]:
    """The product ``a @ b`` of integer matrices, ``b`` having ``cols``
    columns (kept explicit, since ``b`` may have no rows)."""
    return [
        [sum(x * b[t][j] for t, x in enumerate(row) if x) for j in range(cols)]
        for row in a
    ]


# one ``suite_hom`` sweep at rank 6 visits 2n² = 72 objects
@lru_cache(maxsize=72)
def build_rep(x: TubeObject) -> NilpotentRep:
    """Explicit uniserial representation of the indecomposable ``x``;
    cached, since the oracle asks for it once per pair it is in."""
    n = x.n
    # basis index j runs a .. a+b-1; per vertex, basis ordered by j
    per_vertex: list[list[int]] = [[] for _ in range(n)]
    for j in range(x.a, x.a + x.b):
        per_vertex[_mod_coord(j, n) - 1].append(j)
    dims = tuple(len(basis) for basis in per_vertex)
    maps = []
    for v in range(1, n + 1):
        src = per_vertex[v - 1]
        dst = per_vertex[_mod_coord(v - 1, n) - 1]
        mat = [[0] * len(src) for _ in dst]
        for col, j in enumerate(src):
            if j > x.a:  # v_a is the socle and maps to zero
                mat[dst.index(j - 1)][col] = 1
        maps.append(tuple(tuple(r) for r in mat))
    return NilpotentRep(n, dims, tuple(maps))


def hom_dim_oracle(x: TubeObject, y: TubeObject) -> int:
    """dim Hom in the tube via the intertwiner equations.

    Unknowns are the per-vertex blocks f_v of a morphism build_rep(x) ->
    build_rep(y); each arrow contributes Y_v f_v - f_{v-1} X_v = 0.
    """
    n = _same_rank(x, y)
    rx, ry = build_rep(x), build_rep(y)

    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += rx.dims[v] * ry.dims[v]

    def var(v: int, row: int, col: int) -> int:
        # entry (row, col) of f_{v+1}: row indexes y's basis, col x's
        return offsets[v] + row * rx.dims[v] + col

    # {column: entry} rows; blocks f_v and f_{v-1} differ as n >= 2
    rows: list[dict[int, int]] = []
    for v in range(1, n + 1):
        w = _mod_coord(v - 1, n)
        xa = rx.arrow_maps[v - 1]
        ya = ry.arrow_maps[v - 1]
        for i in range(ry.dims[w - 1]):
            for j in range(rx.dims[v - 1]):
                eq = {var(v - 1, t, j): e for t, e in enumerate(ya[i]) if e}
                for s in range(rx.dims[w - 1]):
                    if xa[s][j]:
                        eq[var(w - 1, i, s)] = -xa[s][j]
                if eq:
                    rows.append(eq)
    return total - integer_rank(rows)


