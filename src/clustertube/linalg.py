"""Exact rank computation for integer matrices.

Sparse, gcd-normalised elimination on Python ints, which are exact and
cannot overflow.  No floating point is used anywhere.  The Hom oracle in
:mod:`clustertube.reps` needs only union-find; this general elimination is
the second route the tests hold that union-find against.
"""

from __future__ import annotations

from math import gcd


def integer_rank(rows) -> int:
    """Rank over the rationals of an integer matrix, given as its rows,
    each a ``{column: entry}`` dict (zero entries may be left out).

    Each row's nonzeros are reduced against the echelon rows kept so
    far, keyed by their first column: cross-multiplying clears that
    column, then the row is divided by the gcd of its entries.  Row
    scaling keeps the rank, so this is exact.
    """
    echelon: dict[int, dict[int, int]] = {}
    for given in rows:
        row = {c: v for c, v in given.items() if v}
        while row:
            col = min(row)
            top = echelon.get(col)
            if top is None:
                echelon[col] = row
                break
            p, c = top[col], row[col]
            row = {k: p * v for k, v in row.items()}
            for k, w in top.items():
                row[k] = row.get(k, 0) - c * w
            g = gcd(*row.values())
            row = {k: v // g for k, v in row.items() if v}
    return len(echelon)
