"""Full searches kept as references for the rotation-quotient code, the
record-built polygon model that the corner-integer one is held against,
the naive checks the tests hold the package's own against, the
node-by-node ``verify`` suites that the quotient suites are held against,
and Ext in the tube by the Euler form, the second route for cluster Ext
and Hom."""

from collections import Counter, deque
from math import comb

from clustertube import (
    CsPair,
    Diagonal,
    ExchangeMatrix,
    TheoremViolationError,
    build_rep,
    delta,
    enumerate_rigid_indecs,
)
from clustertube.linalg import integer_rank
from clustertube.mutation import ExchangeGraph, build_exchange_graph, initial_seed
from clustertube.polygon import (
    PolygonTable,
    all_cs_pairs,
    delta_inv,
    flip_graph,
    graphs_isomorphic_via_delta,
)
from clustertube.polygon_model import crossing_points
from clustertube.reps import hom_dim_oracle
from clustertube.rigid import (
    maximal_cliques,
    maximal_rigid_masks,
    tilting_datum_of,
    tilting_witness,
)
from clustertube.rigid_model import (
    bit_indices,
    cartan_counterpart,
    completions,
    rigid_table,
    rotate,
)
from clustertube.tube import (
    TubeObject,
    _mod_coord,
    _same_rank,
    ext_dim_cluster,
    hom_dim_cluster,
    hom_dim_tube,
)
from clustertube.verify import _ENTRY_BOUND, CheckResult, _bad_node, _counterexample


def swap(adj, mask, i):
    """Reference for exchange (``rigid.exchanges``), one vertex at a time:
    the maximal clique ``mask`` of ``adj`` with vertex ``i`` exchanged
    for the other completion of the rest."""
    rest = mask & ~(1 << i)
    return rest | completions(adj, rest) & ~(1 << i)


def rep_by_picks(table, picks):
    """A maximal rigid object through the lowest top, grown from it by
    ``picks``: each pick chooses, modulo their number, one of the vertices
    compatible with every summand so far, until none is left.  Any maximal
    clique through that top is a representative, so this draws one
    without enumerating any."""
    mask = low = table.tops & -table.tops
    common = table.compat[low.bit_length() - 1]
    for pick in picks:
        if not common:
            break
        bits = bit_indices(common)
        v = bits[pick % len(bits)]
        mask |= 1 << v
        common &= table.compat[v]
    assert not common and mask & table.tops == low
    return mask


def wrong_datum(table, mask, datum=None):
    """Reference for ``counts/tilting-roundtrip``'s datum test, on objects:
    is ``datum`` (by default ``rigid.tilting_datum_of`` of ``mask``) not
    the top of ``mask`` and its other summands' socle distances from that
    top?  The wing bits ``j`` read as ``(objects[j].a - 1, objects[j].b)``."""
    t, wing = tilting_datum_of(table, mask) if datum is None else datum
    n, top = table.n, mask & table.tops
    a = table.objects[top.bit_length() - 1].a
    return 1 << t != top or {(x.a - 1, x.b) for x in table.objects_of(wing)} != {
        ((x.a - a) % n, x.b) for x in table.objects_of(mask ^ top)
    }


def cluster_of_tilting_datum(table, t, wing):
    """The mask whose tilting datum on indices is ``(t, wing)``: the
    inverse of ``rigid.tilting_datum_of``."""
    return 1 << t | rotate(wing, t, len(table.objects))


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


def orbit_graph_by_swaps(adj, marked, n, nodes):
    """Reference for the graphs' expanded ``edges`` and each node's orbit
    and turn (``rigid.QuotientGraph``), node by node: each node is
    rotated down by the distance from the lowest marked vertex to its own
    lowest marked bit, its bits below that distance are the ones that
    wrap, and its neighbours are found by ``swap`` at each of its bits.
    Returns ``edges``, ``rep`` and ``turn`` as lists, and ``number``."""
    size, low = len(adj), bit_indices(marked)[0]
    number = {mask: i for i, mask in enumerate(nodes)}
    edges, rep, turn = [], [], []
    for mask in nodes:
        t = bit_indices(mask & marked)[0] - low
        rep.append(number[rotate(mask, -t, size)])
        turn.append(len([v for v in bit_indices(mask) if v < t]))
        edges += [number[swap(adj, mask, v)] for v in bit_indices(mask)]
    return edges, rep, turn, number


def cover_reach(blocks, n, start):
    """Reference for the voltage certificate (``rigid.cover_walk``): a BFS
    over the nodes of the cover of the tau-quotient ``blocks``, where
    entry ``o2*n + j2`` of orbit ``o``'s block joins node ``(o, j)`` to
    ``(o2, j + j2 mod n)``; the number of nodes reached from ``(start, 0)``."""
    d = n - 1
    seen, queue = {(start, 0)}, deque([(start, 0)])
    while queue:
        o, j = queue.popleft()
        for x in blocks[o * d : o * d + d]:
            o2, j2 = divmod(x, n)
            node = (o2, (j + j2) % n)
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return len(seen)


def is_sign_skew_symmetric(rows):
    """sign(b_ij) == -sign(b_ji) for all i, j."""
    if isinstance(rows, ExchangeMatrix):
        rows = rows.entries
    signs = [tuple((v > 0) - (v < 0) for v in row) for row in rows]
    return all(row == tuple(-v for v in col) for row, col in zip(signs, zip(*signs)))


def oracle_by_elimination(x, y):
    """dim Hom from the same intertwiner equations as ``hom_dim_oracle``,
    each written as a ``{column: entry}`` dict of its nonzeros and
    reduced by the general integer elimination ``integer_rank``: no
    assumption on the shape of the arrow maps."""
    n = _same_rank(x, y)
    rx, ry = build_rep(x), build_rep(y)

    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += rx.dims[v] * ry.dims[v]

    def var(v, row, col):
        # entry (row, col) of f_{v+1}: row indexes y's basis, col x's
        return offsets[v] + row * rx.dims[v] + col

    rows = []
    for v in range(1, n + 1):
        w = _mod_coord(v - 1, n)
        xa = rx.arrow_maps[v - 1]
        ya = ry.arrow_maps[v - 1]
        for i in range(ry.dims[w - 1]):
            for j in range(rx.dims[v - 1]):
                eq = {var(v - 1, t, j): e for t, e in enumerate(ya[i]) if e}
                for s in range(rx.dims[w - 1]):
                    if xa[s][j]:
                        eq[var(w - 1, i, s)] = -xa[s][j]
                if eq:
                    rows.append(eq)
    return total - integer_rank(rows)


def euler_form(x, y):
    """The Euler form of the cyclic quiver, arrows ``v -> v-1``, on the
    dimension vectors of ``x`` and ``y``: ``sum d_v e_v - sum d_v e_{v-1}``."""
    d, e = build_rep(x).dims, build_rep(y).dims
    return sum(dv * ev for dv, ev in zip(d, e)) - sum(d[v] * e[v - 1] for v in range(len(d)))


def ext_tube(x, y):
    """dim Ext^1 in the tube from the oracle: the tube is hereditary, so
    it is dim Hom less the Euler form."""
    return hom_dim_oracle(x, y) - euler_form(x, y)


def crosses_by_sets(d, e):
    """Strict interior crossing of two ``Diagonal`` records, read off their
    corner sets: a shared corner is no crossing, and otherwise exactly one
    corner of ``e`` lies strictly between the corners of ``d``."""
    if {d.p, d.q} & {e.p, e.q}:
        return False
    return (d.p < e.p < d.q) != (d.p < e.q < d.q)


def crossings_by_sets(p1, p2):
    """Crossings of two cs pairs over the 2x2 grid of their members, a
    diameter counted twice, by :func:`crosses_by_sets`."""
    return sum(crosses_by_sets(d, e) for d in (p1.d1, p1.d2) for e in (p2.d1, p2.d2))


def _lower_corners(pair):
    return (pair.d1.p, pair.d1.q)


def diagonals(n):
    """Every diagonal of the 2n-gon, as a record."""
    return [
        Diagonal(p, q, n)
        for p in range(1, 2 * n + 1)
        for q in range(p + 2, 2 * n + 1)
        if q - p != 2 * n - 1
    ]


def cs_pairs_by_records(n):
    """Every cs pair of the 2n-gon, one record per diagonal,
    deduplicated and sorted by the corners of the lower member."""
    return tuple(sorted({CsPair.of(d) for d in diagonals(n)}, key=_lower_corners))


def polygon_table_by_records(n):
    """The rank-``n`` polygon table built on records: delta's images
    compared with :func:`cs_pairs_by_records`, each image turned by one
    corner as a new record, and non-crossing swept over every pair of
    pairs by :func:`crossings_by_sets`, with no rotation."""
    pairs = tuple(delta(x) for x in enumerate_rigid_indecs(n))
    cs_pairs = cs_pairs_by_records(n)
    if sorted(pairs, key=_lower_corners) != list(cs_pairs):
        missed = [p for p in cs_pairs if p not in pairs]
        raise TheoremViolationError(f"delta misses the cs pairs {missed} of the {2 * n}-gon")
    size, step = len(pairs), n - 1
    for i, a in enumerate(pairs):
        if pairs[(i + step) % size] != CsPair.of(Diagonal(a.d1.p + 1, a.d1.q + 1, n)):
            raise TheoremViolationError(
                f"delta does not commute with turning the {2 * n}-gon at {a}"
            )
    noncross = tuple(
        sum(1 << j for j, b in enumerate(pairs) if j != i and crossings_by_sets(a, b) == 0)
        for i, a in enumerate(pairs)
    )
    diameters = sum(1 << i for i, p in enumerate(pairs) if p.degenerate)
    return PolygonTable(n, tuple(_lower_corners(p) for p in pairs), noncross, diameters)


# --- the verify suites, node by node ----------------------------------------
# Every check runs on every node, edge, matrix and pair of the expanded
# graph and enumeration, as the suites did before they checked one
# representative per tau-orbit; the names, verdicts and detail texts are
# the ones the quotient suites must print.


def suite_hom_expanded(n):
    """The ``hom`` suite with the oracle on every pair."""
    objs = [TubeObject(a, b, n) for a in range(1, n + 1) for b in range(1, 2 * n + 1)]
    pairs = [(x, y) for x in objs for y in objs]
    checks = []
    bad = next(((x, y) for x, y in pairs if hom_dim_tube(x, y) != hom_dim_oracle(x, y)), None)
    checks.append(_counterexample("formula-vs-oracle", bad, "disagree on"))
    bad = next((x for x in objs if (ext_dim_cluster(x, x) == 0) != (x.b <= n - 1)), None)
    checks.append(_counterexample("rigidity-boundary", bad))
    bad = next(((x, y) for x, y in pairs if ext_dim_cluster(x, y) != ext_dim_cluster(y, x)), None)
    checks.append(_counterexample("ext-symmetry", bad))
    bad = next(((x, y) for x, y in pairs if hom_dim_cluster(x, y) < hom_dim_tube(x, y)), None)
    checks.append(_counterexample("cluster-hom-contains-tube-hom", bad))
    bad = next(
        (
            (TubeObject(1, b, n), TubeObject(c, d, n))
            for b in range(1, n)
            for c in range(1, n + 1)
            for d in range(1, n)
            if ext_dim_cluster(TubeObject(1, b, n), TubeObject(c, d, n))
            != int(1 < c < b + 2 and c + d > b + 1)
            + int(1 < c + d + 1 - n < b + 2 and 1 < c < n + 1)
        ),
        None,
    )
    checks.append(_counterexample("hammock-consistency", bad))
    return checks


def suite_polygon_expanded(n):
    """The ``polygon`` suite with crossing against Ext on every pair of
    rigid indecomposables."""
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
            for x in rigids
            for y in rigids
            if crossing_points(pair[x], pair[y]) != 2 * ext_dim_cluster(x, y)
        ),
        None,
    )
    checks.append(_counterexample("crossing-equals-twice-ext", bad))
    try:
        eg, fg = build_exchange_graph(n), flip_graph(n)
    except TheoremViolationError as exc:
        names = ("triangulation-bijection", "flip-graph-isomorphism")
        return checks + [CheckResult(name, False, str(exc)) for name in names]
    checks.append(
        CheckResult(
            "triangulation-bijection",
            eg.reps == fg.reps,
            f"{n * len(fg.reps)} triangulations of {n * len(eg.reps)} objects",
        )
    )
    checks.append(CheckResult("flip-graph-isomorphism", graphs_isomorphic_via_delta(eg, fg)))
    return checks


def suite_counts_expanded(n):
    """The ``counts`` suite on every node of ``maximal_rigid_masks``, its
    per-top counts in order of first appearance, and its tilting datum
    mapped back by ``cluster_of_tilting_datum``."""
    table, maximal = rigid_table(n), maximal_rigid_masks(n)
    want = comb(2 * n - 2, n - 1)
    rigids = len(enumerate_rigid_indecs(n))
    checks = [
        CheckResult("rigid-count", rigids == n * (n - 1), f"got {rigids}, want {n * (n - 1)}"),
        CheckResult("maximal-rigid-count", len(maximal) == want, f"got {len(maximal)}, want {want}"),
    ]
    per_top = {}
    for tops, count in Counter(mask & table.tops for mask in maximal).items():
        for i in bit_indices(tops):
            a = table.objects[i].a
            per_top[a] = per_top.get(a, 0) + count
    cat = want // n
    ok = sorted(per_top) == list(range(1, n + 1)) and all(v == cat for v in per_top.values())
    checks.append(CheckResult("per-top-catalan", ok, f"per-top counts {per_top}, want {cat} each"))
    bad = next(
        (
            mask
            for mask in maximal
            if table.defect(mask)
            or cluster_of_tilting_datum(table, *tilting_datum_of(table, mask)) != mask
        ),
        None,
    )
    checks.append(_bad_node("tilting-roundtrip", table, bad))
    loops = {
        1 << i: hom_dim_cluster(table.objects[i], table.objects[i])
        for i in bit_indices(table.tops)
    }
    bad = next((mask for mask in maximal if loops.get(mask & table.tops) != 2), None)
    checks.append(_bad_node("top-loop-dimension", table, bad))
    return checks


def suite_mutation_expanded(n):
    """The ``mutation`` suite on a fresh graph's expanded ``rows`` and
    ``edges``, and on every almost complete mask of every node."""
    graph = ExchangeGraph(n)
    table = rigid_table(n)
    checks = [CheckResult("path-independence", True)]
    bad = next(
        (
            mask
            for mask, rows in zip(graph.nodes, graph.rows)
            if not is_sign_skew_symmetric(rows)
            or max(abs(v) for row in rows for v in row) > _ENTRY_BOUND
        ),
        None,
    )
    checks.append(_bad_node("matrix-invariants", table, bad))
    nodes, edges, d = len(graph.nodes), graph.edges, n - 1
    blocks = [edges[i * d : i * d + d] for i in range(nodes)]
    shape_ok = (
        nodes == comb(2 * n - 2, n - 1)
        and len(edges) == nodes * d
        and 0 <= min(edges)
        and max(edges) < nodes
        and all(
            len(set(block)) == d and i not in block and all(i in blocks[j] for j in block)
            for i, block in enumerate(blocks)
        )
    )
    checks.append(CheckResult("graph-shape", shape_ok, f"{nodes} nodes, {len(edges) // 2} edges"))
    seed = initial_seed(n)
    stored = graph.b_matrix(seed.object)
    cartan_want = tuple(
        tuple(
            2 if i == j else (-2 if (i, j) == (0, 1) else -1 if abs(i - j) == 1 else 0)
            for j in range(n - 1)
        )
        for i in range(n - 1)
    )
    checks.append(
        CheckResult(
            "initial-seed",
            stored.entries == seed.matrix.entries
            and cartan_counterpart(stored) == cartan_want,
            f"stored {stored.entries}",
        )
    )
    found = Counter(c & ~(1 << i) for c in graph.nodes for i in bit_indices(c))
    bad = next((f"{table.objects_of(m)}: {k}" for m, k in found.items() if k != 2), None)
    checks.append(_counterexample("unique-exchange", bad, "completions of"))
    return checks


def suite_no_ct_expanded(n):
    """The ``no-ct`` suite with both witnesses of every top against every
    node of ``maximal_rigid_masks``."""
    table = rigid_table(n)
    witnesses = {}
    for i in bit_indices(table.tops):
        for k in (2, 3):
            w = tilting_witness(table, i, k)
            orthogonal = sum(
                1 << j for j, s in enumerate(table.objects) if ext_dim_cluster(s, w) == 0
            )
            summand = 1 << table.index[w] if w in table.index else 0
            witnesses[1 << i, k] = (w, orthogonal, summand, ext_dim_cluster(w, w) == 0)
    bad = None
    for mask in maximal_rigid_masks(n):
        top = mask & table.tops
        if (top, 2) not in witnesses:
            bad = table.checked(mask)
            break
        for k in (2, 3):
            w, orthogonal, summand, rigid = witnesses[top, k]
            if mask & ~orthogonal or mask & summand or rigid:
                bad = (table.checked(mask), k, w)
                break
        if bad:
            break
    return [_counterexample("witnesses", bad)]
