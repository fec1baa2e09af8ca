"""Nilpotent quiver representations: the independent Hom-dimension oracle.

An indecomposable ``(a, b)`` is realised as the uniserial representation
of the cyclic quiver on ``n`` vertices with basis ``v_a, ..., v_{a+b-1}``
(vertex of ``v_j`` is ``j`` mod ``n``), where the arrow at each vertex
sends ``v_j`` to ``v_{j-1}`` and kills ``v_a``.  Hom dimensions are then
solution-space dimensions of the intertwiner equations.  Every arrow map
is a 0/1 partial permutation, so every equation reads ``u = w`` or
``u = 0``, and the dimension is counted exactly by union-find over the
unknowns.  This never consults the closed formula in
:mod:`clustertube.tube`, so agreement between the two is a real check.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .tube import FrozenRecord, TubeObject, _mod_coord, _same_rank

Matrix = tuple[tuple[int, ...], ...]


class NilpotentRep(FrozenRecord):
    """Representation of the cyclic quiver with nilpotent arrow action.

    ``dims[v-1]`` is the dimension at vertex ``v``; ``arrow_maps[v-1]``
    is the matrix of the arrow ``v -> v-1`` (cyclically), acting on
    column vectors, of shape ``dims[v-2] x dims[v-1]``.
    """

    _fields = ("n", "dims", "arrow_maps")
    # an instance dict holds the cached arrow_lines
    __slots__ = (*_fields, "__dict__")

    def __init__(self, n: int, dims: tuple[int, ...], arrow_maps: tuple[Matrix, ...]) -> None:
        self._set(n, dims, arrow_maps)
        self.__post_init__()

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

    @cached_property
    def arrow_lines(self) -> tuple[tuple[tuple[int | None, ...], ...], ...]:
        """Per vertex, the arrow map read as a 0/1 partial permutation:
        the column of each row's 1 and the row of each column's 1, or
        ``None`` where a line has no 1.  Built once per representation;
        any other entry, or two 1s in one line, is a ``ValueError``."""
        lines = []
        for v, mat in enumerate(self.arrow_maps, 1):
            col_of: list[int | None] = [None] * len(mat)
            row_of: list[int | None] = [None] * self.dims[v - 1]
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if not entry:
                        continue
                    if entry != 1 or col_of[r] is not None or row_of[c] is not None:
                        raise ValueError(
                            f"arrow map at vertex {v} is not a 0/1 partial permutation"
                        )
                    col_of[r], row_of[c] = c, r
            lines.append((tuple(col_of), tuple(row_of)))
        return tuple(lines)

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


# one ``suite_hom`` sweep visits 2n² objects: 128 at verify's ``_MAX_RANK``, 8
@lru_cache(maxsize=128)
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

    Unknowns are the entries of the per-vertex blocks f_v of a morphism
    build_rep(x) -> build_rep(y); each arrow contributes Y_v f_v = f_{v-1} X_v,
    one equation per entry.  With partial-permutation arrows each side
    is a single unknown or zero.
    """
    n = _same_rank(x, y)
    rx, ry = build_rep(x), build_rep(y)
    dx = rx.dims

    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += dx[v] * ry.dims[v]

    # entry (row, col) of f_{v+1} is unknown offsets[v] + row * dx[v] + col,
    # row indexing y's basis and col x's; unknown ``total`` stands for 0.
    # Index -1 is vertex n, and blocks f_v and f_{v-1} differ as n >= 2.
    equations = []
    for v in range(n):
        w = v - 1
        x_rows = rx.arrow_lines[v][1]
        for i, t in enumerate(ry.arrow_lines[v][0]):
            # at (i, j), Y_v f_v is f_v[t][j] and f_{v-1} X_v is f_{v-1}[i][s]
            left = None if t is None else offsets[v] + t * dx[v]
            right = offsets[w] + i * dx[w]
            for j, s in enumerate(x_rows):
                lhs = total if left is None else left + j
                rhs = total if s is None else right + s
                if lhs != rhs:
                    equations.append((lhs, rhs))
    return _free_classes(total, equations)


def _free_classes(size: int, equations) -> int:
    """The number of classes of the unknowns ``0 .. size-1`` under the
    equations ``(u, w)``, each meaning ``u = w``, that hold no unknown
    equal to the zero unknown ``size``: the dimension of the solution
    space.  Each union of two classes drops that number by one."""
    parent = list(range(size + 1))
    free = size
    for u, w in equations:
        # find both roots, halving the path: each step skips a parent
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        if u != w:
            parent[u] = w
            free -= 1
    return free
