import gc
import re
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from clustertube import (
    MaximalRigid,
    StructuralError,
    TheoremViolationError,
    TubeObject,
    complements,
    enumerate_maximal_rigid,
    enumerate_rigid_indecs,
    ext_dim_cluster,
    is_rigid_set,
    tau,
    wing_contains,
)
from clustertube import mutation, polygon, rigid, rigid_model
from clustertube.cli import main
from clustertube.rigid import maximal_cliques, maximal_rigid_masks
from clustertube.rigid_model import bit_indices, rigid_table
from reference import (
    cluster_of_tilting_datum,
    clusters,
    orbit_graph_by_swaps,
    rep_by_picks,
    swap,
    wrong_datum,
)


def obj(a, b, n):
    return TubeObject(a, b, n)


def top_index(t):
    """The index of the one top of ``t``, read off its mask."""
    return (t.mask & rigid_table(t.n).tops).bit_length() - 1


def top_of(t):
    return rigid_table(t.n).objects[top_index(t)]


def mr(n, *pairs):
    return MaximalRigid(n, tuple(obj(a, b, n) for a, b in pairs))


class TestRigidSets:
    def test_compatible_pair(self):
        assert is_rigid_set([obj(1, 2, 3), obj(1, 1, 3)])

    def test_self_extension(self):
        assert not is_rigid_set([obj(1, 3, 3)])

    def test_empty(self):
        assert is_rigid_set([])


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 12)])
    def test_rigid_indec_count(self, n, count):
        assert len(enumerate_rigid_indecs(n)) == count

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 20)])
    def test_maximal_rigid_count(self, n, count):
        assert len(enumerate_maximal_rigid(n)) == count

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_rank_below_two(self, n):
        with pytest.raises(ValueError, match=f"^rank must be >= 2, got {n}$"):
            enumerate_rigid_indecs(n)
        with pytest.raises(ValueError, match=f"^rank must be >= 2, got {n}$"):
            enumerate_maximal_rigid(n)

    def test_rank_two_objects(self):
        assert {t.summands for t in enumerate_maximal_rigid(2)} == {
            (obj(1, 1, 2),),
            (obj(2, 1, 2),),
        }

    def test_structure(self):
        for n in (3, 4, 5):
            for t in enumerate_maximal_rigid(n):
                assert len(t.summands) == n - 1
                top = top_of(t)
                assert top.b == n - 1
                assert all(wing_contains(top, x) for x in t.summands)


def full_maximal_cliques(adj):
    """Every maximal clique of ``adj``, by brute force over vertex sets."""
    v = len(adj)
    cliques = [
        sum(1 << i for i in s)
        for r in range(1, v + 1)
        for s in combinations(range(v), r)
        if all(adj[i] >> j & 1 for i, j in combinations(s, 2))
    ]
    return {c for c in cliques if not any(c != d and c & d == c for d in cliques)}


class TestOrbitEnumeration:
    """``maximal_rigid_masks`` searches only through the lowest top and
    rotates; the full search ``clusters`` is the reference."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_the_full_search(self, n):
        assert maximal_rigid_masks(n) == tuple(clusters(rigid_table(n).compat, n))

    @given(
        st.integers(1, 132).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.integers(0, size).flatmap(
                    lambda k: st.lists(
                        st.sets(st.integers(0, size - 1), min_size=k, max_size=k).map(
                            lambda bits: sum(1 << i for i in bits)
                        ),
                        max_size=30,
                    )
                ),
            )
        )
    )
    def test_sort_key_is_the_index_order(self, case):
        size, masks = case
        rigid._sort_by_indices(masks, size)
        assert masks == sorted(masks, key=bit_indices)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rotating_up_one_socle_is_tau_inverse(self, n):
        """Rotating up by n-1 bits takes ``(a, b)`` to ``(a+1, b)``, which
        is tau^-1; ``tube.tau`` is the rotation down."""
        table = rigid_table(n)
        size, index = len(table.objects), table.index
        for i, x in enumerate(table.objects):
            assert rigid.rotate(1 << i, n - 1, size) == 1 << index[obj(x.a % n + 1, x.b, n)]
            assert rigid.rotate(1 << i, 1 - n, size) == 1 << index[tau(x)]

    # a 4-cycle 0-1-2-3 with the chord 0-2, and a pendant vertex 4 at 3
    GRAPH = (0b01110, 0b00101, 0b01011, 0b10101, 0b01000)

    def test_the_synthetic_graph(self):
        assert full_maximal_cliques(self.GRAPH) == {0b00111, 0b01101, 0b11000}

    @pytest.mark.parametrize("seed", [0, 0b1, 0b1000, 0b0101, 0b10000, 0b11000])
    def test_seed_gives_the_cliques_that_contain_it(self, seed):
        found = maximal_cliques(self.GRAPH, seed=seed)
        assert len(found) == len(set(found))
        assert set(found) == {c for c in full_maximal_cliques(self.GRAPH) if c & seed == seed}

    @pytest.mark.parametrize("excluded", [0, 0b1, 0b100, 0b101, 0b1000, 0b11111])
    def test_excluded_gives_the_cliques_that_avoid_it(self, excluded):
        found = maximal_cliques(self.GRAPH, excluded=excluded)
        assert len(found) == len(set(found))
        assert set(found) == {c for c in full_maximal_cliques(self.GRAPH) if not c & excluded}

    @given(st.data())
    def test_seeded_and_excluded_searches_on_random_graphs(self, data):
        v = data.draw(st.integers(0, 9))
        pairs = list(combinations(range(v), 2))
        edges = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        adj = [0] * v
        for (i, j), edge in zip(pairs, edges):
            if edge:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        # a clique from the wanted vertices, taken in a random order
        wanted, seed = data.draw(st.integers(0, (1 << v) - 1)), 0
        for i in data.draw(st.permutations(range(v))):
            if wanted >> i & 1 and not seed & ~adj[i]:
                seed |= 1 << i
        excluded = data.draw(st.integers(0, (1 << v) - 1)) & ~seed
        found = maximal_cliques(adj, seed, excluded)
        assert len(found) == len(set(found))
        assert set(found) == {
            c for c in full_maximal_cliques(adj) if c & seed == seed and not c & excluded
        }

    @pytest.mark.parametrize("n, seeded, excluded", [(8, 916, 22), (10, 10341, 37)])
    def test_search_tree_sizes(self, n, seeded, excluded, monkeypatch):
        """The nodes of both searches' trees, which repeat exactly: a pivot
        that covers less of the candidates, or an excluded search that
        does not start from a marked vertex, grows them."""
        calls, real = [0], rigid._expand

        def counted(*args):
            calls[0] += 1
            real(*args)

        monkeypatch.setattr(rigid, "_expand", counted)
        table, sizes = rigid_table(n), []
        for search in ({"seed": table.tops & -table.tops}, {"excluded": table.tops}):
            calls[0] = 0
            maximal_cliques(table.compat, **search)
            sizes.append(calls[0])
        assert sizes == [seeded, excluded]

    def test_searches_leave_no_reference_cycle(self):
        # a cycle would keep each search's clique list alive until the
        # cyclic collector runs
        table = rigid_table(7)
        gc.collect()
        gc.disable()
        try:
            clusters(table.compat, 7)
            assert gc.collect() == 0
            maximal_rigid_masks.__wrapped__(7)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOrbitGraph:
    """``orbit_graph`` exchanges only the representatives and keeps the
    quotient; the expanded ``edges`` are written by rotation, one orbit at
    a time.  The node-by-node build is the reference."""

    @pytest.mark.parametrize("model", ["exchange", "flip"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_build_by_swaps(self, n, model):
        if model == "exchange":
            g, table = mutation.ExchangeGraph(n), rigid_table(n)
            adj = table.compat
        else:
            g, table = polygon.FlipGraph(n), polygon.polygon_table(n)
            adj = table.noncross
        edges, rep, turn, number = orbit_graph_by_swaps(adj, g.marked, n, g.nodes)
        assert list(g.edges) == edges
        reps, d, size = list(g.reps), n - 1, n * (n - 1)
        located = list(g.locate(g.nodes))
        assert [number[reps[o]] for o, _ in located] == rep
        assert [w for _, w in located] == turn
        # each block entry is its representative's swap, as orbit and power
        assert len(g.blocks) == len(reps) * d
        for o, r in enumerate(reps):
            for k, v in enumerate(bit_indices(r)):
                o2, j2 = divmod(g.blocks[o * d + k], n)
                assert rigid.rotate(reps[o2], j2 * d, size) == swap(adj, r, v), (o, k)

    def test_holds_no_block_per_node(self):
        # calibrated on per-node block writes, which peak at 2.43 MiB
        # (CPython 3.11); the expansion on first read, packing each block
        # into the array, peaks at 1.44 MiB, and a build that kept every
        # block as a tuple until one array was made of them all at the end
        # peaks at 3.86 MiB
        g = polygon.FlipGraph(9)
        gc.collect()
        tracemalloc.start()
        try:
            len(g.edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2.43 * 2**20


def top_dropped(table):
    """The highest top, not the lowest, left out of ``tops``: its
    cliques have no top left, which only the completeness check sees."""
    tops = table.tops ^ 1 << table.tops.bit_length() - 1
    return rigid.RigidTable(table.n, table.objects, table.index, table.compat, tops, table.wings)


def non_top_added(table):
    """A non-top compatible with the lowest top counted as a top: the
    representatives through both have two tops."""
    t0 = table.tops & -table.tops
    extra = table.compat[t0.bit_length() - 1] & ~table.tops
    tops = table.tops | extra & -extra
    return rigid.RigidTable(table.n, table.objects, table.index, table.compat, tops, table.wings)


def wing_shrunk(table):
    """The lowest top's wing without its lowest other member."""
    t0 = (table.tops & -table.tops).bit_length() - 1
    rest = table.wings[t0] & ~(1 << t0)
    wings = {**table.wings, t0: table.wings[t0] ^ rest & -rest}
    return rigid.RigidTable(table.n, table.objects, table.index, table.compat, table.tops, wings)


class TestDoctoredTables:
    """A doctored table makes the enumeration raise, never shrink."""

    @pytest.mark.parametrize("edit", [top_dropped, non_top_added, wing_shrunk])
    def test_raises(self, monkeypatch, capsys, edit):
        text = {
            top_dropped: r"^maximal rigid object without a top: \(",
            non_top_added: r"\) has 2 summands of quasi-length 4$",
            wing_shrunk: r"\) has \(.*\) outside the wing of its top$",
        }[edit]
        real = rigid.rigid_table
        monkeypatch.setattr(rigid, "rigid_table", lambda n: edit(real(n)))
        rigid.maximal_rigid_reps.cache_clear()
        maximal_rigid_masks.cache_clear()
        try:
            with pytest.raises(TheoremViolationError, match=text):
                maximal_rigid_masks(5)
            assert main(["verify", "--rank", "5", "--suite", "counts"]) == 1
        finally:
            rigid.maximal_rigid_reps.cache_clear()
            maximal_rigid_masks.cache_clear()
        assert capsys.readouterr().err.startswith("verification failure: ")


class TestDoctoredEnumeration:
    def test_computed_mask_with_a_defect_is_a_theorem_violation(self, monkeypatch):
        # the last rank-3 representative the search finds, with one more
        # summand: the search computed it, so its defect falsifies the
        # computation
        real = rigid.maximal_cliques

        def doctored(adj, seed=0, excluded=0):
            found = real(adj, seed, excluded)
            return found[:-1] + [found[-1] | 1 << len(adj) - 1] if seed else found

        monkeypatch.setattr(rigid, "maximal_cliques", doctored)
        rigid.maximal_rigid_reps.cache_clear()
        maximal_rigid_masks.cache_clear()
        text = "((1,2)@3, (2,1)@3, (3,1)@3) has 3 summands, expected 2"
        try:
            with pytest.raises(TheoremViolationError, match=f"^{re.escape(text)}$"):
                enumerate_maximal_rigid(3)
        finally:
            rigid.maximal_rigid_reps.cache_clear()
            maximal_rigid_masks.cache_clear()

    @pytest.mark.parametrize("n,bits", [(3, "1"), (4, "1, 2")])
    def test_exchange_outside_the_enumeration(self, n, bits):
        # the first exchange of each representative drops its vertex and
        # adds none: n-2 bits, no node
        table, reps = rigid_table(n), rigid.maximal_rigid_reps(n)
        targets = [rigid_model.exchanges(table.compat, mask) for mask in reps]
        for out, mask in zip(targets, reps):
            out[0] = mask & mask - 1
        with pytest.raises(
            TheoremViolationError,
            match=rf"^exchange graph at rank {n} reaches \[{bits}\], "
            rf"outside the enumeration of {len(maximal_rigid_masks(n))}$",
        ):
            rigid.orbit_graph(table.tops, n, reps, targets, "exchange graph")


class TestOrbitBuilds:
    """``enumerate_maximal_rigid`` builds each tau-orbit from the
    representative the search checked; checking every node is the
    reference."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_the_check_of_every_node(self, n):
        table = rigid_table(n)
        checked = tuple(rigid_model._of_mask(table, mask) for mask in maximal_rigid_masks(n))
        built = enumerate_maximal_rigid(n)
        assert built == checked
        assert [t.mask for t in built] == [t.mask for t in checked]
        assert [t.summands for t in built] == [t.summands for t in checked]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_checks_each_orbit_once(self, n, monkeypatch, clear_package_caches):
        # from cold caches, the search checks each representative by its
        # whole-mask tests, a clique of the certified symmetric compat
        # being rigid; the seed's own construction is the one defect call
        real, checked = rigid.RigidTable.defect, []
        monkeypatch.setattr(
            rigid.RigidTable, "defect", lambda self, m: checked.append(m) or real(self, m)
        )
        clear_package_caches()
        maximal_rigid_masks(n)
        enumerate_maximal_rigid(n)
        mutation.build_exchange_graph(n)
        polygon.flip_graph(n)
        calls = list(checked)  # before initial_seed below checks its mask again
        assert calls == [mutation.initial_seed(n).object.mask]

    @pytest.mark.parametrize("n", range(2, 12))
    def test_every_representative_passes_the_full_check(self, n):
        # the reference route: defect's own walk, pairwise rigidity included
        table, reps = rigid_table(n), rigid.maximal_rigid_reps(n)
        assert len(reps) == comb(2 * n - 2, n - 1) // n  # Catalan(n-1): 429 at n=8
        assert [mask for mask in reps if table.defect(mask)] == []

    def test_reads_no_summands(self, monkeypatch, clear_package_caches):
        # a node is its mask: no summand tuple is built until one is read,
        # and none is kept
        real, read = rigid.RigidTable.objects_of, []
        monkeypatch.setattr(
            rigid.RigidTable, "objects_of", lambda self, m: read.append(m) or real(self, m)
        )
        clear_package_caches()
        nodes = enumerate_maximal_rigid(8)
        assert len(nodes) == comb(14, 7) and read == []
        assert MaximalRigid.__slots__ == ("n", "mask")
        t = nodes[-1]
        assert t.summands == t.summands and read == [t.mask, t.mask]  # one call a read

    def test_set_and_equality_read_no_summands(self, monkeypatch, clear_package_caches):
        # a node compares and hashes as the record (n, mask)
        real, read = rigid.RigidTable.objects_of, []
        monkeypatch.setattr(
            rigid.RigidTable, "objects_of", lambda self, m: read.append(m) or real(self, m)
        )
        clear_package_caches()
        nodes = enumerate_maximal_rigid(8)
        assert len(set(nodes)) == len(nodes) == comb(14, 7)
        assert not any(s == t for s, t in zip(nodes, nodes[1:]))
        assert all(hash(t) == hash((t.n, t.mask)) for t in nodes)
        assert read == []

    @pytest.mark.parametrize("edit", ["other_wing_shrunk", "other_wing_grown"])
    def test_table_that_tau_does_not_preserve(
        self, monkeypatch, capsys, clear_package_caches, edit
    ):
        # the second top's wing, one member short or one too many: no
        # representative has that top, so the representatives pass, and
        # the table itself must refuse to be built.  Its compat rows and
        # tops cannot be edited so: the sweep makes the rows, and the tops
        # are fixed by canonical order
        real, top = rigid_model.wing_contains, obj(2, 4, 5)
        edited = obj(2, 3, 5) if edit == "other_wing_shrunk" else obj(1, 1, 5)

        def doctored(t, y):
            return real(t, y) != (t == top and y == edited)

        monkeypatch.setattr(rigid_model, "wing_contains", doctored)
        clear_package_caches()
        text = "tau is not an automorphism of the rank-5 table"
        try:
            with pytest.raises(TheoremViolationError, match=f"^{text}$"):
                rigid_table(5)
            with pytest.raises(TheoremViolationError, match=f"^{text}$"):
                enumerate_maximal_rigid(5)
            assert main(["verify", "--rank", "5", "--suite", "all"]) == 1
        finally:
            clear_package_caches()
        assert capsys.readouterr().err == f"verification failure: {text}\n"

    @pytest.mark.parametrize("pair", [((1, 4), (3, 1)), ((2, 4), (4, 1)), ((2, 4), (2, 2))])
    def test_ext_that_tau_does_not_preserve(
        self, monkeypatch, capsys, clear_package_caches, pair
    ):
        # Ext flipped on one ordered pair: of the top of socle 1, whose row
        # the sweep turns onto the top of socle 2's, or of that top, whose
        # row is also computed; the table itself must not be built
        real = rigid_model.ext_dim_cluster
        x, y = (obj(a, b, 5) for a, b in pair)

        def flipped(s, t):
            return int(not real(s, t)) if (s, t) == (x, y) else real(s, t)

        monkeypatch.setattr(rigid_model, "ext_dim_cluster", flipped)
        clear_package_caches()
        text = r"^Ext is not tau-invariant at rank 5: \(2,4\)@5's row$"
        try:
            with pytest.raises(TheoremViolationError, match=text):
                rigid_table(5)
            assert main(["verify", "--rank", "5", "--suite", "counts"]) == 1
        finally:
            clear_package_caches()
        assert capsys.readouterr().err.startswith("verification failure: ")


class TestSymmetryCertificate:
    """``rigid_table`` certifies ``compat`` symmetric, on the rows it
    computes from Ext, so the search may take its cliques as rigid."""

    @staticmethod
    def flip(monkeypatch, a, b):
        """Ext flipped on the one ordered pair ``(a, b)`` of rank 5."""
        real = rigid_model.ext_dim_cluster
        x, y = (obj(*c, 5) for c in (a, b))

        def flipped(s, t):
            return int(not real(s, t)) if (s, t) == (x, y) else real(s, t)

        monkeypatch.setattr(rigid_model, "ext_dim_cluster", flipped)

    def test_ext_that_is_not_symmetric(self, monkeypatch, capsys, clear_package_caches):
        # the row of (1,1) is swept from Ext, and its column holds
        # Ext((3,1),(1,1)) as the rotation of an unflipped row carries it
        self.flip(monkeypatch, (1, 1), (3, 1))
        clear_package_caches()
        text = "Ext-compatibility is not symmetric at rank 5: (1,1)@5 and (3,1)@5"
        try:
            with pytest.raises(TheoremViolationError, match=f"^{re.escape(text)}$"):
                rigid_table(5)
            assert main(["verify", "--rank", "5", "--suite", "counts"]) == 1
        finally:
            clear_package_caches()
        assert capsys.readouterr().err == f"verification failure: {text}\n"

    def test_ext_read_only_through_rotation(self, monkeypatch, clear_package_caches):
        # the row of (3,1) is the row of (1,1) turned twice: the flipped
        # value is never read, and the table is the true one
        want = rigid_table(5)
        self.flip(monkeypatch, (3, 1), (1, 1))
        clear_package_caches()
        try:
            table = rigid_table(5)
            assert table is not want and table == want
            assert len(rigid.maximal_rigid_reps(5)) == 14  # Catalan(4)
        finally:
            clear_package_caches()


class TestMaximalRigidType:
    def test_canonical_order(self):
        t = mr(3, (1, 1), (1, 2))
        assert t.summands == (obj(1, 2, 3), obj(1, 1, 3))

    def test_top(self):
        assert top_of(mr(3, (1, 2), (1, 1))) == obj(1, 2, 3)
        assert top_of(mr(4, (1, 3), (1, 2), (1, 1))) == obj(1, 3, 4)

    def test_rejects_incompatible(self):
        with pytest.raises(StructuralError):
            mr(3, (1, 1), (2, 1))

    def test_rejects_summand_of_other_rank(self):
        with pytest.raises(StructuralError):
            MaximalRigid(3, (obj(1, 2, 3), obj(1, 1, 4)))

    def test_rejects_repeated_summand(self):
        with pytest.raises(StructuralError):
            MaximalRigid(3, (obj(1, 2, 3), obj(1, 2, 3)))

    def test_rejects_wrong_count(self):
        with pytest.raises(StructuralError):
            mr(4, (1, 3), (1, 1))


def datum(t):
    """The tilting datum of ``t`` as coordinates, decoded from
    ``tilting_datum_of``: the top's socle, and ``(offset, quasi_length)``
    for each wing bit ``j``, where ``table.objects[j]`` is
    ``(offset + 1, quasi_length)``."""
    table = rigid.rigid_table(t.n)
    top, wing = rigid.tilting_datum_of(table, t.mask)
    return table.objects[top].a, frozenset((x.a - 1, x.b) for x in table.objects_of(wing))


class TestTiltingDatum:
    def test_encoding(self):
        assert datum(mr(3, (1, 2), (1, 1))) == (1, frozenset({(0, 1)}))

    def test_roundtrip(self):
        for n in (2, 3, 4, 5):
            table = rigid.rigid_table(n)
            for t in enumerate_maximal_rigid(n):
                a, positions = datum(t)
                summands = [obj(a, n - 1, n)]
                summands += [obj((a - 1 + offset) % n + 1, b, n) for offset, b in positions]
                assert table.mask_of(summands) == t.mask

    def test_per_top_is_catalan(self):
        tops = [datum(t)[0] for t in enumerate_maximal_rigid(4)]
        assert tops.count(2) == 5


class TestTiltingDatumOnIndices:
    """``tilting_datum_of``, the map the ``counts`` suite runs on masks,
    and its inverse ``cluster_of_tilting_datum``."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_positions_are_socle_distances_from_the_top(self, n):
        # the object definition: socle distance from the top, cyclically
        for t in enumerate_maximal_rigid(n):
            top = top_of(t)
            want = frozenset(((x.a - top.a) % n, x.b) for x in t.summands if x != top)
            assert datum(t) == (top.a, want)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_index_maps_are_inverse_and_agree_with_the_object_maps(self, n):
        table = rigid.rigid_table(n)
        for mask, t in zip(rigid.maximal_rigid_masks(n), enumerate_maximal_rigid(n)):
            top, wing = rigid.tilting_datum_of(table, mask)
            assert top == top_index(t) and not wing & 1
            assert cluster_of_tilting_datum(table, top, wing) == mask == t.mask

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(10, 13),
        st.lists(st.integers(0, 2**16), min_size=12, max_size=12),
        st.lists(st.integers(0, 2**16), min_size=12, max_size=12),
        st.integers(0, 12),
    )
    def test_index_datum_agrees_with_the_object_datum(self, n, picks, other_picks, j):
        """``counts/tilting-roundtrip`` tests each representative's datum
        on indices, as ``(0, r ^ 1)``, and the first one's turns on
        objects: both agree with the object-level reference, also on
        another representative's datum."""
        table = rigid_table(n)
        r, other = rep_by_picks(table, picks), rep_by_picks(table, other_picks)
        assert table.tops & -table.tops == 1
        assert rigid.tilting_datum_of(table, r) == (0, r ^ 1)
        assert not wrong_datum(table, r)
        datum = rigid.tilting_datum_of(table, other)
        assert (datum != (0, r ^ 1)) == wrong_datum(table, r, datum) == (other != r)
        turned = rigid.rotate(r, j % n * (n - 1), len(table.objects))
        assert rigid.tilting_datum_of(table, turned) == (j % n * (n - 1), r ^ 1)
        assert not wrong_datum(table, turned)

    def test_witness_on_indices(self):
        table = rigid.rigid_table(4)
        for t in enumerate_maximal_rigid(4):
            for k in (2, 3, 5):
                w = rigid.tilting_witness(table, top_index(t), k)
                assert w == obj(top_of(t).a, 4 * k - 1, 4)
        with pytest.raises(ValueError, match="^witness index must be >= 2, got 1$"):
            rigid.tilting_witness(table, 0, 1)


class TestComplements:
    def test_single_simple(self):
        assert set(complements([obj(1, 1, 3)])) == {obj(1, 2, 3), obj(3, 2, 3)}

    def test_single_top(self):
        assert set(complements([obj(1, 2, 3)])) == {obj(1, 1, 3), obj(2, 1, 3)}

    def test_empty_at_rank_two(self):
        assert set(complements([], n=2)) == {obj(1, 1, 2), obj(2, 1, 2)}

    def test_summand_not_rigid(self):
        with pytest.raises(StructuralError):
            complements((obj(1, 3, 3),), 3)

    def test_summand_of_other_rank(self):
        with pytest.raises(StructuralError):
            complements((obj(1, 1, 4),), 3)

    def test_repeated_summand(self):
        with pytest.raises(StructuralError):
            complements((obj(1, 1, 4), obj(1, 1, 4)), 4)

    def test_almost_complete_not_rigid(self):
        with pytest.raises(StructuralError):
            complements((obj(1, 1, 4), obj(2, 1, 4)), 4)

    def test_wrong_number_of_summands(self):
        with pytest.raises(
            StructuralError, match="^almost complete object at rank 4 needs 2 summands, got 1$"
        ):
            complements((obj(1, 1, 4),))

    def test_empty_without_rank(self):
        with pytest.raises(
            ValueError, match="^rank is required for an empty almost complete object$"
        ):
            complements(())

    @pytest.mark.parametrize(
        "n,text",
        [
            (3.0, "rank must be an int, got 3.0"),
            ("3", "rank must be an int, got '3'"),
            (True, "rank must be an int, got True"),
            (1, "rank must be >= 2, got 1"),
            (0, "rank must be >= 2, got 0"),
        ],
    )
    def test_explicit_rank_is_checked(self, n, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            complements((), n)

    def test_always_exactly_two(self):
        for n in (2, 3, 4):
            for t in enumerate_maximal_rigid(n):
                for k in range(n - 1):
                    tbar = t.summands[:k] + t.summands[k + 1 :]
                    pair = complements(tbar, n)
                    assert len(set(pair)) == 2
                    assert t.summands[k] in pair


def witness(t, k):
    table = rigid.rigid_table(t.n)
    return rigid.tilting_witness(table, top_index(t), k)


class TestWitnesses:
    def test_example_rank_three(self):
        t = mr(3, (1, 2), (1, 1))
        w = witness(t, 2)
        assert w == obj(1, 5, 3)
        assert all(ext_dim_cluster(s, w) == 0 for s in t.summands)
        assert ext_dim_cluster(w, w) > 0

    def test_coordinates(self):
        t = mr(4, (2, 3), (2, 2), (3, 1))
        assert witness(t, 2) == obj(2, 7, 4)
        assert witness(mr(3, (1, 2), (1, 1)), 3) == obj(1, 8, 3)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="^witness index must be >= 2, got 1$"):
            witness(mr(3, (1, 2), (1, 1)), 1)
