"""Combinatorics of cluster tubes and the type B polygon model."""

from .errors import RankMismatchError, StructuralError, TheoremViolationError
from .mutation import (
    ExchangeGraph,
    ExchangeMatrix,
    MiddleTerms,
    Seed,
    build_exchange_graph,
    cartan_counterpart,
    exchange,
    fz_mutate,
    initial_seed,
)
from .polygon import (
    CsPair,
    CsTriangulation,
    Diagonal,
    FlipGraph,
    all_cs_pairs,
    crossing_points,
    delta,
    delta_inv,
    diagonals_cross,
    flip,
    flip_graph,
    graphs_isomorphic_via_delta,
    triangulation_of,
)
from .reps import NilpotentRep, build_rep, hom_dim_oracle
from .rigid import (
    MaximalRigid,
    TiltingDatum,
    cluster_tilting_witness,
    complements,
    enumerate_maximal_rigid,
    enumerate_rigid_indecs,
    from_tilting_datum,
    is_rigid_set,
    to_tilting_datum,
)
from .tube import (
    TubeObject,
    canonical_key,
    ext_dim_cluster,
    hom_dim_cluster,
    hom_dim_tube,
    is_rigid_indec,
    tau,
    tau_inv,
    wing_contains,
)

__version__ = "0.1.0"
