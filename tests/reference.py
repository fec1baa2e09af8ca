"""Full searches kept as references for the rotation-quotient code, and
the naive checks the tests hold the package's own against."""

from clustertube import ExchangeMatrix, TheoremViolationError
from clustertube.rigid import bit_indices, maximal_cliques


def clusters(adj, n):
    """Every maximal clique of ``adj``, by the full Bron-Kerbosch search,
    sorted by their bit indices; at rank ``n`` every one must have
    exactly n-1 vertices."""
    cliques = maximal_cliques(adj)
    for clique in cliques:
        if clique.bit_count() != n - 1:
            raise TheoremViolationError(
                f"maximal clique of size {clique.bit_count()} at rank {n}: "
                f"{bit_indices(clique)}"
            )
    return sorted(cliques, key=bit_indices)


def is_sign_skew_symmetric(rows):
    """sign(b_ij) == -sign(b_ji) for all i, j."""
    if isinstance(rows, ExchangeMatrix):
        rows = rows.entries
    signs = [tuple((v > 0) - (v < 0) for v in row) for row in rows]
    return all(row == tuple(-v for v in col) for row, col in zip(signs, zip(*signs)))
