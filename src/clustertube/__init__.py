"""Combinatorics of cluster tubes and the type B polygon model.

``from clustertube import X`` imports only the module that defines ``X``
(PEP 562), and what it imports, so a cold process compiles only the
layers it uses.
"""

from importlib import import_module

_EXPORTS = {
    name: module
    for module, names in {
        "errors": "RankMismatchError StructuralError TheoremViolationError",
        "mutation": "ExchangeGraph Seed build_exchange_graph fz_mutate initial_seed",
        "polygon": "FlipGraph all_cs_pairs delta_inv flip flip_graph graphs_isomorphic_via_delta",
        "polygon_model": "CsPair CsTriangulation Diagonal crossing_points delta diagonals_cross"
        " triangulation_of",
        "reps": "NilpotentRep build_rep hom_dim_oracle",
        "rigid": "complements enumerate_maximal_rigid is_rigid_set",
        "rigid_model": "ExchangeMatrix MaximalRigid cartan_counterpart enumerate_rigid_indecs"
        " exchange",
        "tube": "TubeObject canonical_key ext_dim_cluster hom_dim_cluster hom_dim_tube"
        " is_rigid_indec tau wing_contains",
    }.items()
    for name in names.split()
}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # an AttributeError here lets ``from clustertube import rigid`` fall
    # back to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
