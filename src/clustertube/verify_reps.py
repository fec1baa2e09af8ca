"""The ``hom`` suite: the closed Hom and Ext formulas of :mod:`.tube`
against the intertwiner oracle of :mod:`.reps`, on every pair of
quasi-length up to 2n.  Its process compiles ``reps`` and no other
layer beyond the core :mod:`.verify`."""

from __future__ import annotations

from operator import lt

from .reps import hom_dim_oracle
from .tube import TubeObject, ext_dim_cluster, hom_dim_cluster, hom_dim_tube
from .verify import CheckResult, _counterexample, _first_pair


def suite_hom(n: int) -> list[CheckResult]:
    """Every pair of quasi-length up to 2n, each formula once per ordered
    pair, into tables that the checks share.  Hom is tau-invariant, so the
    oracle runs once per tau-orbit of pairs, on ``x`` of socle 1."""
    checks = []
    m = 2 * n  # objects per socle: objs[i] has socle i // m + 1
    objs = [TubeObject(a, b, n) for a in range(1, n + 1) for b in range(1, m + 1)]
    tube = [[hom_dim_tube(x, y) for y in objs] for x in objs]
    ext = [[ext_dim_cluster(x, y) for y in objs] for x in objs]
    oracle = [[hom_dim_oracle(x, y) for y in objs] for x in objs[:m]]
    # (x, y) against the oracle with both shifted down by x.a - 1: x's
    # row of the oracle is its socle-1 row turned by x.a - 1 socles
    wants = [row[-s:] + row[:-s] for s in range(0, len(objs), m) for row in oracle]
    bad = _first_pair(objs, tube, wants)
    checks.append(_counterexample("formula-vs-oracle", bad, "disagree on"))

    bad = next((x for i, x in enumerate(objs) if (ext[i][i] == 0) != (x.b <= n - 1)), None)
    checks.append(_counterexample("rigidity-boundary", bad))

    checks.append(_counterexample("ext-symmetry", _first_pair(objs, ext, zip(*ext))))
    cluster = [[hom_dim_cluster(x, y) for y in objs] for x in objs]
    bad = _first_pair(objs, cluster, tube, lt)
    checks.append(_counterexample("cluster-hom-contains-tube-hom", bad))

    # row b - 1 of ext is (1, b)'s, and column (c - 1)m + d - 1 is (c, d)'s
    bad = next(
        (
            (objs[b - 1], objs[(c - 1) * m + d - 1])
            for b in range(1, n)
            for c in range(1, n + 1)
            for d in range(1, n)
            if ext[b - 1][(c - 1) * m + d - 1]
            != int(1 < c < b + 2 and c + d > b + 1)
            + int(1 < c + d + 1 - n < b + 2 and 1 < c < n + 1)
        ),
        None,
    )
    checks.append(_counterexample("hammock-consistency", bad))
    return checks
