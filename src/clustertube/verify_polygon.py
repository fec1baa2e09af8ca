"""The ``polygon`` suite: the 2n-gon model of :mod:`.polygon` against the
tube, object by object and graph against graph.  Crossing and Ext are
tau-invariant, so pairs are checked once per tau-orbit, on ``x`` of
socle 1, as :func:`.polygon.polygon_table` builds them.  Its process
compiles ``rigid``, ``mutation`` and ``polygon`` and their model layers,
``rigid_model`` and ``polygon_model``, beyond the core :mod:`.verify`."""

from __future__ import annotations

from .errors import TheoremViolationError
from .mutation import build_exchange_graph
from .polygon import all_cs_pairs, delta_inv, flip_graph, graphs_isomorphic_via_delta
from .polygon_model import crossing_points, delta
from .rigid_model import enumerate_rigid_indecs
from .tube import ext_dim_cluster
from .verify import CheckResult, _counterexample


def suite_polygon(n: int) -> list[CheckResult]:
    checks = []
    rigids = enumerate_rigid_indecs(n)
    pair = {x: delta(x) for x in rigids}

    image = set(pair.values())
    pairs = set(all_cs_pairs(n))
    inv_ok = all(delta_inv(p) == x for x, p in pair.items())
    checks.append(
        CheckResult(
            "delta-bijection",
            len(image) == len(rigids) and image == pairs and inv_ok,
            f"{len(image)} images of {len(rigids)} objects, {len(pairs)} pairs",
        )
    )

    bad = next(
        (
            (x, y)
            for x in rigids[: n - 1]  # socle 1, in canonical order
            for y in rigids
            if crossing_points(pair[x], pair[y]) != 2 * ext_dim_cluster(x, y)
        ),
        None,
    )
    checks.append(_counterexample("crossing-equals-twice-ext", bad))

    try:
        eg, fg = build_exchange_graph(n), flip_graph(n)
    except TheoremViolationError as exc:  # both graph checks fail, the above stand
        names = ("triangulation-bijection", "flip-graph-isomorphism")
        return checks + [CheckResult(name, False, str(exc)) for name in names]
    # cs pair i is delta of rigid indecomposable i, so a node's image is
    # its own mask, and each orbit's representative is its image's
    checks.append(
        CheckResult(
            "triangulation-bijection",
            eg.reps == fg.reps,
            f"{n * len(fg.reps)} triangulations of {n * len(eg.reps)} objects",
        )
    )
    checks.append(CheckResult("flip-graph-isomorphism", graphs_isomorphic_via_delta(eg, fg)))
    return checks
