import math
import random
import re
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from locirr.enumerate import GraphClassFilter, enumerate_graphs
from locirr.graph import (
    Graph,
    Graph6Error,
    GraphError,
    canon_adjacency,
    complete_graph,
    cube_graph,
    cycle_graph,
    distance_split,
    equitable_partition,
    fully_subdivide,
    parse_graph6,
    path_graph,
    root_partition,
    star_graph,
    write_graph6,
)
from locirr.graph import _refine, _vertices


def _from_nx(h: nx.Graph) -> Graph:
    h = nx.convert_node_labels_to_integers(h)
    return Graph(h.number_of_nodes(), tuple(sorted(tuple(sorted(e)) for e in h.edges())))


def _relabeled(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def _label(g: Graph) -> tuple[int, ...]:
    return canon_adjacency(g.adjacency_masks)[0]


@st.composite
def graphs(draw, n_max=9):
    n = draw(st.integers(1, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(p for p, take in zip(pairs, picks) if take))


@st.composite
def multigraphs(draw, n_max=7, m_max=14):
    """Loopless multigraphs: endpoint pairs drawn with repetition, so
    parallel edges occur."""
    n = draw(st.integers(2, n_max))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    return Graph(n, tuple(draw(st.lists(pair, max_size=m_max))), multigraph=True)


class TestGraphInvariants:
    def test_no_self_loops(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 0),))

    def test_duplicate_edge_needs_multigraph_flag(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 1), (1, 0)))
        g = Graph(2, ((0, 1), (1, 0)), multigraph=True)
        assert g.m == 2

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 2),))

    def test_negative_vertex_count(self):
        with pytest.raises(GraphError):
            Graph(-2, ())
        assert Graph(0, ()).n == 0

    def test_degree_sum(self):
        for g in (path_graph(3), cycle_graph(5), complete_graph(5), cube_graph(),
                  star_graph(4)):
            assert sum(g.degrees) == 2 * g.m

    def test_components_and_connectivity(self):
        g = Graph(5, ((0, 1), (1, 2), (3, 4)))
        assert g.components() == [(0, 1, 2), (3, 4)]
        assert not g.is_connected()
        assert cycle_graph(4).is_connected()

    def test_bipartition(self):
        sides = cycle_graph(6).bipartition()
        assert sides is not None and sorted(map(len, sides)) == [3, 3]
        assert cycle_graph(5).bipartition() is None

    def test_json_round_trip(self):
        g = Graph(3, ((0, 1), (0, 1), (1, 2)), multigraph=True)
        assert Graph.from_json(g.to_json()) == g

    @given(multigraphs())
    @settings(max_examples=200, deadline=None)
    def test_incidence_rows_ascend_by_edge_id(self, g):
        # Graph.incidence does not sort its rows: it fills them in edge-id
        # order, and _pair_component relies on the rows ascending
        rows = [[] for _ in range(g.n)]
        for e, (u, v) in enumerate(g.edges):
            rows[u].append((e, v))
            rows[v].append((e, u))
        for v, row in enumerate(g.incidence):
            ids = [e for e, _ in row]
            assert ids == sorted(set(ids))
            assert row == tuple(sorted(row)) == tuple(sorted(rows[v]))


class TestGraph6:
    def test_single_edge(self):
        g = parse_graph6("A_")
        assert (g.n, g.edges) == (2, ((0, 1),))
        assert write_graph6(g) == "A_"

    def test_k4(self):
        g = parse_graph6("C~")
        assert g == complete_graph(4)
        assert write_graph6(complete_graph(4)) == "C~"

    def test_empty_input(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_errors_carry_byte_offset(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("C~~~")  # trailing garbage
        assert exc.value.offset == 2
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("C")  # truncated body
        assert exc.value.offset >= 0
        with pytest.raises(Graph6Error):
            parse_graph6("C\x01")  # out-of-range byte

    @pytest.mark.parametrize("text, offset", [("Cé", 1), ("é", 0), ("C~\u2603", 2)])
    def test_non_ascii_rejected(self, text, offset):
        # never replaced by "?", which is itself a graph6 byte
        with pytest.raises(Graph6Error, match="non-ASCII") as exc:
            parse_graph6(text)
        assert exc.value.offset == offset

    def test_multigraph_rejected(self):
        g = Graph(2, ((0, 1), (1, 0)), multigraph=True)
        with pytest.raises(GraphError):
            write_graph6(g)

    @pytest.mark.parametrize("n", [63, 64, 300])
    def test_four_byte_size_field(self, n):
        # n >= 63 takes the size field "~" plus 3 bytes
        h = nx.gnp_random_graph(n, 0.05, seed=n)
        g = _from_nx(h)
        text = write_graph6(g)
        assert text.encode() + b"\n" == nx.to_graph6_bytes(h, header=False)
        assert text[0] == "~" and parse_graph6(text) == g

    def test_large_graph_written_in_linear_time(self):
        # C_10001 has 50M adjacency bits; each edge sets one, which a sparse
        # decode of the non-zero bytes finds again
        g = cycle_graph(10_001)
        start = time.perf_counter()
        text = write_graph6(g)
        assert time.perf_counter() - start < 1.0
        body = text.encode()[4:]
        assert len(body) == (g.n * (g.n - 1) // 2 + 5) // 6
        edges = set()
        for hit in re.finditer(rb"[^?]", body):
            i = hit.start()
            for b in range(6):
                if (body[i] - 63) >> (5 - b) & 1:
                    pos = 6 * i + b  # column v holds positions v(v-1)/2 .. v(v+1)/2 - 1
                    v = (1 + math.isqrt(1 + 8 * pos)) // 2
                    edges.add((pos - v * (v - 1) // 2, v))
        assert edges == set(g.edges)

    def test_header(self):
        assert parse_graph6(">>graph6<<C~") == complete_graph(4)
        with pytest.raises(Graph6Error, match="unsupported header"):
            parse_graph6(">>sparse6<<:Bc")

    @pytest.mark.parametrize("text", ["~~", "~~?????", "~A"], ids=["8a", "8b", "4"])
    def test_truncated_size_field(self, text):
        with pytest.raises(Graph6Error, match="truncated size field"):
            parse_graph6(text)

    def test_eight_byte_size_field(self):
        # "~~" plus 6 bytes; the writer never needs it, the reader takes it
        assert parse_graph6("~~?????B_") == parse_graph6("B_") == Graph(3, ((0, 1),))

    def test_writer_rejects_too_many_vertices(self):
        # the 4-byte size field ends at 258047; the check comes before the
        # n(n-1)/2 adjacency bits are built
        with pytest.raises(GraphError, match="n=258048 beyond supported graph6 range"):
            write_graph6(Graph(258048, ()))

    @given(graphs(n_max=12))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random(self, g):
        assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_enumerated(self):
        flt = GraphClassFilter(connected=True)
        for n in range(1, 8):
            for g in enumerate_graphs(n, flt):
                assert parse_graph6(write_graph6(g)) == g


class TestSubdivision:
    def test_cycle_doubles(self):
        assert oracles.isomorphic(fully_subdivide(cycle_graph(3)), cycle_graph(6))

    def test_claw_becomes_spider(self):
        s = fully_subdivide(star_graph(3))
        assert (s.n, s.m) == (7, 6)
        assert sorted(s.degrees) == [1, 1, 1, 2, 2, 2, 3]

    def test_k4_counts(self):
        s = fully_subdivide(complete_graph(4))
        assert (s.n, s.m) == (10, 12)
        assert s.bipartition() is not None
        assert sorted(s.degrees) == [2] * 6 + [3] * 4

    def test_half_edge_ids(self):
        # edge e splits into halves 2e (at the smaller endpoint) and 2e+1,
        # through subdivision vertex n+e
        g = path_graph(2)
        s = fully_subdivide(g)
        for e, (u, v) in enumerate(g.edges):
            assert s.edges[2 * e] == tuple(sorted((u, g.n + e)))
            assert s.edges[2 * e + 1] == tuple(sorted((v, g.n + e)))

    @given(graphs(n_max=8))
    @settings(max_examples=100, deadline=None)
    def test_always_simple_bipartite(self, g):
        s = fully_subdivide(g)
        assert not s.multigraph
        assert (s.n, s.m) == (g.n + g.m, 2 * g.m)
        assert s.bipartition() is not None

    def test_multigraph_subdivision_is_simple(self):
        theta = Graph(2, ((0, 1), (0, 1), (0, 1)), multigraph=True)
        s = fully_subdivide(theta)
        assert not s.multigraph and (s.n, s.m) == (5, 6)


class TestCanonicalForm:
    def test_permutation_invariance(self):
        c4 = cycle_graph(4)
        shuffled = Graph(4, ((2, 0), (0, 3), (3, 1), (1, 2)))
        assert _label(c4) == _label(shuffled)

    def test_distinguishes_c4_p4(self):
        assert _label(cycle_graph(4)) != _label(path_graph(3))

    def test_eleven_classes_on_four_vertices(self):
        assert len({_label(g) for g in oracles.all_labeled_graphs(4)}) == 11

    @given(graphs(n_max=6), graphs(n_max=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_vf2(self, a, b):
        if a.n != b.n:
            return
        assert (_label(a) == _label(b)) == oracles.isomorphic(a, b)

    @given(graphs(n_max=7), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_equal_after_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert _label(g) == _label(_relabeled(g, perm))

    def test_trivial_graphs(self):
        assert canon_adjacency([]) == ((), (), ())
        assert canon_adjacency([0]) == ((0,), (0,), ())

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(12),
            Graph(12, ()),
            Graph(12, tuple((u, v) for u in range(6) for v in range(6, 12))),
        ],
        ids=["k12", "empty12", "k66"],
    )
    def test_large_automorphism_group_is_fast(self, g):
        # 12! leaves without automorphism pruning; a few milliseconds with it
        start = time.perf_counter()
        _label(g)
        assert time.perf_counter() - start < 1.0


class TestRootPartition:
    @given(graphs(n_max=9))
    @settings(max_examples=150, deadline=None)
    def test_equitable(self, g):
        # every vertex of a cell has the same number of neighbors in each cell
        masks = g.adjacency_masks
        cells = root_partition(masks)
        assert sorted(v for c in cells for v in range(g.n) if c >> v & 1) == list(range(g.n))
        for c in cells:
            counts = {
                tuple((masks[v] & d).bit_count() for d in cells)
                for v in range(g.n)
                if c >> v & 1
            }
            assert len(counts) == 1

    @given(graphs(n_max=9), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_follows_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        cells = root_partition(g.adjacency_masks)
        moved = [sum(1 << perm[v] for v in range(g.n) if c >> v & 1) for c in cells]
        assert root_partition(_relabeled(g, perm).adjacency_masks) == moved

    @given(graphs(n_max=9))
    @settings(max_examples=150, deadline=None)
    def test_refines_equitable_in_cell_order(self, g):
        # enumeration rejects on the equitable partition's cell order first,
        # which is sound only if the root cells refine it in the same order
        masks = g.adjacency_masks
        eq = equitable_partition(masks)
        root = root_partition(masks)
        assert distance_split(masks, list(eq)) == root
        owner = [next(i for i, c in enumerate(eq) if c & r == r) for r in root]
        assert owner == sorted(owner)


def _after(cells, k):
    """The vertices in later cells than ``k``'s."""
    at = next(i for i, c in enumerate(cells) if c >> k & 1)
    return sum(cells[at + 1 :])


# regular graphs: one degree cell, which distance profiles split
REGULAR = [
    _from_nx(nx.random_regular_graph(d, n, seed=seed))
    for d in (3, 4)
    for n in (8, 10, 12, 14)
    for seed in range(3)
]


class TestRefine:
    # the refinement skips the cells a splitter cannot touch and stops once
    # a watched vertex falls after k; the reference splits every cell by
    # global count classes and refines to the end

    @given(graphs(n_max=14), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, g, data):
        masks = g.adjacency_masks
        full = (1 << g.n) - 1
        eq = oracles.reference_refine(masks, [full], [full])
        assert _refine(masks, [full], [full]) == eq
        assert equitable_partition(masks) == eq
        # individualizing a vertex of the equitable partition
        tied = [t for t, c in enumerate(eq) if c & (c - 1)]
        if tied:
            t = data.draw(st.sampled_from(tied))
            bit = 1 << data.draw(st.sampled_from(_vertices(eq[t])))
            start = eq[:t] + [bit, eq[t] ^ bit] + eq[t + 1 :]
            want = oracles.reference_refine(masks, list(start), [bit])
            assert _refine(masks, list(start), [bit]) == want

    @given(st.one_of(graphs(n_max=14), st.sampled_from(REGULAR)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_watch_decides_like_the_full_partition(self, g, data):
        masks = g.adjacency_masks
        full = (1 << g.n) - 1
        k = data.draw(st.integers(0, g.n - 1))
        watch = data.draw(st.integers(0, full)) & ~(1 << k)
        if data.draw(st.booleans()):
            # only vertices of k's degree, as enumeration's ties are
            watch &= sum(1 << v for v in range(g.n) if masks[v].bit_count() == masks[k].bit_count())
        eq = oracles.reference_refine(masks, [full], [full])
        want = None if _after(eq, k) & watch else eq
        assert equitable_partition(masks, k, watch) == want
        root = oracles.reference_distance_split(masks, list(eq))
        want = None if _after(root, k) & watch else root
        assert distance_split(masks, list(eq), k, watch) == want


# vertex-transitive graphs with large groups, plus disconnected and
# asymmetric ones, which reach the labeler's pruning and jump-back branches
SYMMETRIC = [
    ("petersen", Graph(10, tuple(sorted(nx.petersen_graph().edges())))),
    ("q3", cube_graph()),
    ("k33", Graph(6, tuple((u, v) for u in range(3) for v in range(3, 6)))),
    ("c8", cycle_graph(8)),
    ("k8", complete_graph(8)),
    ("empty8", Graph(8, ())),
    ("k44", Graph(8, tuple((u, v) for u in range(4) for v in range(4, 8)))),
    ("q4", _from_nx(nx.hypercube_graph(4))),
    ("heawood", _from_nx(nx.heawood_graph())),
    ("moebius_kantor", _from_nx(nx.moebius_kantor_graph())),
    ("pappus", _from_nx(nx.pappus_graph())),
    ("desargues", _from_nx(nx.desargues_graph())),
    ("dodecahedron", _from_nx(nx.dodecahedral_graph())),
    ("3k3", _from_nx(nx.disjoint_union_all([nx.complete_graph(3)] * 3))),
    ("2c5_k1", _from_nx(nx.disjoint_union_all([nx.cycle_graph(5)] * 2 + [nx.empty_graph(1)]))),
    ("frucht", _from_nx(nx.frucht_graph())),
]


def _orbit_partition(g: Graph) -> set[frozenset[int]]:
    classes: dict[int, set[int]] = {}
    _, orbit, _ = canon_adjacency(g.adjacency_masks)
    for v, o in enumerate(orbit):
        classes.setdefault(o, set()).add(v)
    return {frozenset(c) for c in classes.values()}


class TestOrbits:
    def test_atlas_up_to_six_vertices(self):
        for n in range(1, 7):
            for h in oracles.atlas(n):
                g = Graph(n, tuple(sorted(h.edges())))
                assert _orbit_partition(g) == oracles.automorphism_orbits(g), g.edges

    def test_generators_generate_the_group(self):
        # enumeration tries one subset per orbit of these generators, which
        # is exact only if they generate the whole automorphism group
        for n in range(1, 8):
            for h in oracles.atlas(n):
                g = Graph(n, tuple(sorted(h.edges())))
                _, _, gens = canon_adjacency(g.adjacency_masks)
                group = {tuple(range(n))}
                todo = list(group)
                while todo:
                    p = todo.pop()
                    for q in gens:
                        pq = tuple(q[p[v]] for v in range(n))
                        if pq not in group:
                            group.add(pq)
                            todo.append(pq)
                assert len(group) == oracles.automorphism_count(g), g.edges

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in SYMMETRIC])
    def test_vertex_transitive(self, g):
        assert _orbit_partition(g) == oracles.automorphism_orbits(g)

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in SYMMETRIC])
    def test_key_after_relabeling(self, g):
        perm = list(range(g.n))
        random.Random(g.n * 1000 + g.m).shuffle(perm)
        key, orbit, _ = canon_adjacency(g.adjacency_masks)
        key_h, orbit_h, _ = canon_adjacency(_relabeled(g, perm).adjacency_masks)
        assert key_h == key
        assert all(orbit_h[perm[v]] == orbit[v] for v in range(g.n))

    @given(graphs(n_max=8), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_orbit_ids_follow_relabeling(self, g, rng):
        # an orbit's id is a canonical position, so relabeling keeps it
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))
        key_g, orbit_g, _ = canon_adjacency(g.adjacency_masks)
        key_h, orbit_h, _ = canon_adjacency(h.adjacency_masks)
        assert key_g == key_h
        assert all(orbit_h[perm[v]] == orbit_g[v] for v in range(g.n))
