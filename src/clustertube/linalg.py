"""Exact rank computation for integer matrices.

Fraction-free (Bareiss) elimination on Python ints, which are exact and
cannot overflow.  No floating point is used anywhere.
"""

from __future__ import annotations


def integer_rank(rows) -> int:
    """Rank over the rationals of an integer matrix (list of rows).

    After each pivot the rows below are cross-multiplied by it and divided
    by the previous pivot; Bareiss' identity makes that division exact.
    """
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[col]
        for r in range(rank + 1, len(a)):
            c = a[r][col]
            a[r] = [(v * p - c * w) // prev for v, w in zip(a[r], top)]
        prev = p
        rank += 1
        if rank == len(a):
            break
    return rank
