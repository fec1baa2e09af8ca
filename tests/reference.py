"""Full searches kept as references for the rotation-quotient code."""

from clustertube import TheoremViolationError
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
