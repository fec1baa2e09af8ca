"""Combinatorics of cluster tubes and the type B polygon model.

``from clustertube import X`` imports only the module listed for ``X``
(PEP 562), and what it imports, so a cold process compiles only the
layers it uses.
"""

from importlib import import_module

_EXPORTS = {
    name: module
    for module, names in {
        "errors": "RankMismatchError StructuralError TheoremViolationError",
        "mutation": "ExchangeGraph ExchangeMatrix Seed build_exchange_graph cartan_counterpart"
        " exchange fz_mutate initial_seed",
        "polygon": "CsPair CsTriangulation Diagonal FlipGraph all_cs_pairs crossing_points"
        " delta delta_inv diagonals_cross flip flip_graph graphs_isomorphic_via_delta"
        " triangulation_of",
        "reps": "NilpotentRep build_rep hom_dim_oracle",
        "rigid": "MaximalRigid complements enumerate_maximal_rigid enumerate_rigid_indecs"
        " is_rigid_set",
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
