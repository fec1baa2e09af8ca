"""The ``counts`` and ``no-ct`` suites, on the tau-quotient of the
maximal rigid objects that :mod:`.rigid` enumerates: each representative
stands for its orbit.  Their process compiles ``rigid`` and
``rigid_model`` and no other layer beyond the core :mod:`.verify`."""

from __future__ import annotations

from itertools import chain
from math import comb

from .rigid import maximal_rigid_reps, tilting_datum_of, tilting_witness
from .rigid_model import bit_indices, enumerate_rigid_indecs, rigid_table, rotate
from .tube import TubeObject, ext_dim_cluster, hom_dim_cluster
from .verify import CheckResult, _bad_node, _counterexample


def suite_counts(n: int) -> list[CheckResult]:
    """Counts and tilting data on the tau-quotient: each representative is
    validated in full once, by :meth:`RigidTable.defect` in
    ``tilting-roundtrip``, the one check that does not take the search's
    premise, a symmetric ``compat``, on trust; and with its one top its
    orbit has n nodes, one through each top."""
    checks = []
    rigids = enumerate_rigid_indecs(n)
    checks.append(
        CheckResult(
            "rigid-count",
            len(rigids) == n * (n - 1),
            f"got {len(rigids)}, want {n * (n - 1)}",
        )
    )
    table, reps = rigid_table(n), maximal_rigid_reps(n)
    want = comb(2 * n - 2, n - 1)
    checks.append(
        CheckResult(
            "maximal-rigid-count",
            n * len(reps) == want,
            f"got {n * len(reps)}, want {want}",
        )
    )

    # an orbit meets each top once per top of its representative; the
    # tops are listed by the lowest index in their wing
    found = sum((mask & table.tops).bit_count() for mask in reps)
    tops = sorted(bit_indices(table.tops), key=lambda i: table.wings[i] & -table.wings[i])
    per_top = {table.objects[i].a: found for i in tops}
    checks.append(
        CheckResult(
            "per-top-catalan",
            found == want // n,  # Catalan(n-1)
            f"per-top counts {per_top}, want {want // n} each",
        )
    )

    # every representative's only top is the lowest, bit 0, so its datum
    # is (0, r ^ 1) on indices; the first one's turns have every other t,
    # and their wing bits j, read as (objects[j].a - 1, objects[j].b), are
    # the node's other summands as socle distances from its top
    def wrong_datum(mask: int) -> bool:
        t, wing = tilting_datum_of(table, mask)
        top = mask & table.tops
        a = table.objects[top.bit_length() - 1].a
        return 1 << t != top or {(x.a - 1, x.b) for x in table.objects_of(wing)} != {
            ((x.a - a) % n, x.b) for x in table.objects_of(mask ^ top)
        }

    turns = [rotate(r, j * (n - 1), len(table.objects)) for r in reps[:1] for j in range(1, n)]
    on_indices = (r for r in reps if table.defect(r) or tilting_datum_of(table, r) != (0, r ^ 1))
    on_objects = (m for m in turns if table.defect(m) or wrong_datum(m))
    bad = next(chain(on_indices, on_objects), None)
    checks.append(_bad_node("tilting-roundtrip", table, bad))

    # keyed by the top's bit: a node without exactly one top has no loop;
    # Hom is tau-invariant, so the representatives' tops stand for all
    objs = table.objects
    loops = {1 << i: hom_dim_cluster(objs[i], objs[i]) for i in bit_indices(table.tops)}
    bad = next((mask for mask in reps if loops.get(mask & table.tops) != 2), None)
    checks.append(_bad_node("top-loop-dimension", table, bad))
    return checks


def suite_no_ct(n: int) -> list[CheckResult]:
    """Every node's two witnesses, on the tau-quotient: each witness of
    the lowest top, with its Ext-orthogonal mask computed once, against
    every representative; the other tops' witnesses must be its turns."""
    table, reps = rigid_table(n), maximal_rigid_reps(n)
    low, d = table.tops & -table.tops, n - 1
    witnesses = []
    for k in (2, 3):
        w = tilting_witness(table, low.bit_length() - 1, k)
        orthogonal = sum(
            1 << j for j, s in enumerate(table.objects) if ext_dim_cluster(s, w) == 0
        )
        summand = 1 << table.index[w] if w in table.index else 0
        witnesses.append((k, w, orthogonal, summand, ext_dim_cluster(w, w) == 0))

    def failures():
        for mask in reps:
            if mask & table.tops != low:  # not exactly the lowest top: no witness
                yield table.checked(mask)
            for k, w, orthogonal, summand, rigid in witnesses:
                if mask & ~orthogonal or mask & summand or rigid:
                    yield table.checked(mask), k, w
        # turning by i bits adds i/(n-1) to every socle
        for rep in reps[:1]:
            for i in bit_indices(table.tops & ~low):
                for k, w, *_ in witnesses:
                    other = tilting_witness(table, i, k)
                    if other != TubeObject((w.a + i // d - 1) % n + 1, w.b, n):
                        yield table.checked(rotate(rep, i, len(table.objects))), k, other

    return [_counterexample("witnesses", next(failures(), None))]
