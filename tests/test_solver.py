import hashlib
import random
import time
from collections import namedtuple

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import triangle_chain
from locirr.decompose import (
    Decomposition,
    Element,
    _component_graph,
    _edge_components,
    enumerate_two_path_decompositions,
    non_decomposable_reason,
    strongly_pertinent_decomposition,
    two_path_decomposition,
)
from locirr.enumerate import CUBIC, SUBCUBIC_MIN2, GraphClassFilter, enumerate_graphs
from locirr.graph import (
    Graph,
    GraphError,
    canon_adjacency,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from locirr.irregularity import verify_coloring
from locirr.solver import (
    COLORED,
    EXCEEDED_BUDGET,
    NOT_DECOMPOSABLE,
    REFUTED,
    _Budget,
    _pair_rule,
    backtrack,
    central_pair_ok,
    chi_irr,
    edge_order,
    element_uniform_search,
    in_edge_order,
    is_decomposable,
    search_groups,
    shared_vertices,
)


@st.composite
def multigraphs(draw, n_max=9, m_max=None):
    """Loopless multigraphs, edges in drawn order, often disconnected."""
    n = draw(st.integers(1, n_max))
    ends = st.integers(0, n - 1)
    size = 3 * n if m_max is None else m_max
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), max_size=size))
    return Graph(n, tuple(pairs), multigraph=True)


class TestEdgeOrder:
    @staticmethod
    def check_blocks_grow_connected(g):
        order = edge_order(g)
        assert sorted(order) == list(range(g.m))
        # each component's edges form one block, blocks ordered by least
        # vertex, and every prefix of a block is a connected edge set
        comp_of = {v: i for i, comp in enumerate(g.components()) for v in comp}
        blocks = [comp_of[g.edges[e][0]] for e in order]
        assert blocks == sorted(blocks)
        touched = set()
        for i, e in enumerate(order):
            u, v = g.edges[e]
            if i and blocks[i] == blocks[i - 1]:
                assert u in touched or v in touched
            touched.update((u, v))

    @given(multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_component_blocks_grow_connected(self, g):
        self.check_blocks_grow_connected(g)

    def test_vertex_completion(self):
        # C6 from vertex 0: both edges at 0; then 1, 2, 3 and 4 in turn, each
        # with one edge emitted and one left, the least index winning
        assert edge_order(cycle_graph(6)) == [0, 5, 1, 2, 3, 4]

    def test_fewest_edges_left_breaks_ties(self):
        # after vertex 0, vertices 1 and 2 each have one edge emitted; 2 has
        # one edge left and 1 two, so 2 goes first, then its leaf 5 (no edge
        # left), then 1
        g = Graph(6, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5)))
        assert edge_order(g) == [0, 1, 4, 2, 3]

    @given(multigraphs(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_component_order_is_whole_order_restricted(self, g, rng):
        # each edge component on its own renumbered graph (as the decomposer
        # decides odd components) orders its edges as the whole graph does;
        # parts: random edge groups inside the component, standing in for
        # decomposition elements
        Part = namedtuple("Part", "edges")
        whole = edge_order(g)
        rank = {e: i for i, e in enumerate(whole)}
        for comp in _edge_components(g, range(g.m)):
            h = _component_graph(g, comp)
            own = set(comp)
            assert [comp[e] for e in edge_order(h)] == [e for e in whole if e in own]
            es = rng.sample(range(h.m), h.m)  # edge j of h is edge comp[j] of g
            cuts = sorted(rng.sample(range(1, h.m), rng.randint(0, h.m - 1)))
            parts = [Part(tuple(es[a:b])) for a, b in zip([0, *cuts], [*cuts, h.m])]
            lifted = [Part(tuple(comp[e] for e in p.edges)) for p in parts]
            expected = sorted(lifted, key=lambda p: min(rank[e] for e in p.edges))
            assert in_edge_order(g, lifted) == expected
            assert [lifted[parts.index(p)] for p in in_edge_order(h, parts)] == expected

    def test_long_path_past_recursion_limit(self):
        assert edge_order(path_graph(10_000)) == list(range(10_000))

    def test_large_cubic_past_recursion_limit(self):
        h = nx.random_regular_graph(3, 6_666, seed=0)
        assert nx.is_connected(h)
        g = Graph(h.number_of_nodes(), tuple(sorted(tuple(sorted(e)) for e in h.edges())))
        assert g.m == 9_999
        self.check_blocks_grow_connected(g)


def _random_hooks(seed: int, p: float):
    """``place``/``unplace`` hooks that accept color c at position i with
    probability p, by a coin seeded with (seed, the colors placed so far,
    c): the same partial assignment gets the same answer in any engine.
    The hooks also check the engine's contract: placements and undos come
    in stack order."""
    placed: list[int] = []

    def place(i, c):
        assert len(placed) == i
        ok = random.Random(repr((seed, placed, c))).random() < p
        if ok:
            placed.append(c)
        return ok

    def unplace(i, c):
        assert len(placed) == i + 1 and placed[-1] == c
        placed.pop()

    return place, unplace


class TestBacktrack:
    @given(
        st.integers(0, 8),
        st.integers(0, 4),
        st.integers(0, 2**32),
        st.floats(0, 1),
        st.none() | st.integers(0, 2_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_recursive_reference(self, n, k, seed, p, node_budget):
        # equal (assignment, nodes), or both engines out of budget
        outcomes = []
        for search in (backtrack, oracles.reference_backtrack):
            try:
                outcomes.append(search(n, k, *_random_hooks(seed, p), node_budget))
            except _Budget:
                outcomes.append("budget")
        assert outcomes[0] == outcomes[1]


@st.composite
def grouped_searches(draw):
    """A multigraph, some of its edges in drawn order cut into groups (single
    edges or a random partition), a random pair rule over incident groups,
    k and a node budget."""
    g = draw(multigraphs())
    order = draw(st.permutations(range(g.m)))[: draw(st.integers(0, g.m))]
    groups: list[tuple[int, ...]] = []
    single = draw(st.booleans())
    for e in order:
        if groups and not single and draw(st.booleans()):
            groups[-1] += (e,)
        else:
            groups.append((e,))
    pair_ok = None
    if draw(st.booleans()):
        ends = [{v for e in grp for v in g.edges[e]} for grp in groups]
        pair_ok = {
            (i, j): draw(st.booleans())
            for i in range(len(groups))
            for j in range(i + 1, len(groups))
            if ends[i] & ends[j]
        }
    return g, groups, draw(st.integers(1, 4)), pair_ok, draw(st.integers(0, 3_000))


def _outcome(search, g, groups, k, pair_ok, node_budget):
    try:
        return search(g, groups, k, pair_ok=pair_ok, node_budget=node_budget)
    except _Budget:
        return "budget"


class TestSearchGroups:
    @given(grouped_searches())
    @settings(max_examples=300, deadline=None)
    def test_fixed_closure_matches_run_time_closure(self, case):
        # closure checks placed when the search is built give the search
        # tree of checks found as it runs: equal (assignment, nodes), and
        # the same budget overruns
        assert _outcome(search_groups, *case) == _outcome(oracles.reference_search_groups, *case)

    def test_node_totals_pinned(self):
        # chi_irr nodes summed over cubic n <= 10 and subcubic-min2 n <= 8;
        # a change to the branching order or to pruning must re-pin these
        totals = []
        for flt, n_max in ((CUBIC, 10), (SUBCUBIC_MIN2, 8)):
            graphs = [g for n in range(1, n_max + 1) for g in enumerate_graphs(n, flt)]
            totals.append(sum(chi_irr(g, max(3, g.m // 2)).nodes for g in graphs))
        assert totals == [8_712, 4_540]

    def test_solver_outputs_pinned(self):
        # one sha256 over (k, nodes, colors) of the same solves: the node
        # totals above can hold while the colorings found change
        h = hashlib.sha256()
        for flt, n_max in ((CUBIC, 10), (SUBCUBIC_MIN2, 8)):
            for n in range(1, n_max + 1):
                for g in enumerate_graphs(n, flt):
                    res = chi_irr(g, max(3, g.m // 2))
                    colors = res.coloring.colors if res.coloring else None
                    h.update(repr((res.k, res.nodes, colors)).encode())
        assert h.hexdigest() == "7230e12aba6f98e21281a87d48e60399844c4afa0d92f18546e2245c30eb72f4"

    def test_solver_colorings_pinned(self):
        # one sha256 over (status, k, colors) of the same solves, without
        # the node counts: what a solve answers, however it gets there
        h = hashlib.sha256()
        for flt, n_max in ((CUBIC, 10), (SUBCUBIC_MIN2, 8)):
            for n in range(1, n_max + 1):
                for g in enumerate_graphs(n, flt):
                    res = chi_irr(g, max(3, g.m // 2))
                    colors = res.coloring.colors if res.coloring else None
                    h.update(repr((res.status, res.k, colors)).encode())
        assert h.hexdigest() == "7fab65888bf4f3ce8c552a52ad27cb6f0f2229f807eae9f6c82599c8eb73a648"


class TestChiIrr:
    def test_claw(self):
        res = chi_irr(star_graph(3), 3)
        assert (res.status, res.k) == (COLORED, 1)

    def test_c4(self):
        res = chi_irr(cycle_graph(4), 3)
        assert (res.status, res.k) == (COLORED, 2)
        assert verify_coloring(cycle_graph(4), res.coloring).valid

    def test_c6(self):
        assert chi_irr(cycle_graph(6), 3).k == 3

    def test_p4_not_decomposable(self):
        assert chi_irr(path_graph(3), 3).status == NOT_DECOMPOSABLE

    def test_refuted_vs_not_decomposable(self):
        # k_max below the sound floor(m/2) bound cannot certify anything
        assert chi_irr(cycle_graph(6), 2).status == REFUTED
        assert chi_irr(cycle_graph(5), 2).status == NOT_DECOMPOSABLE

    def test_default_k_max_is_half_the_edges(self, connected_small):
        odd = [path_graph(m) for m in range(1, 12, 2)] + [cycle_graph(m) for m in range(3, 12, 2)]
        for g in connected_small + odd:
            default, explicit = chi_irr(g), chi_irr(g, max(1, g.m // 2))
            assert (default.status, default.k, default.nodes, default.coloring) == (
                explicit.status,
                explicit.k,
                explicit.nodes,
                explicit.coloring,
            )

    def test_edgeless(self):
        res = chi_irr(Graph(3, ()), 1)
        assert (res.status, res.k) == (COLORED, 0)

    def test_bad_k_max(self):
        with pytest.raises(GraphError):
            chi_irr(cycle_graph(4), 0)

    def test_negative_budget_rejected(self):
        with pytest.raises(GraphError):
            chi_irr(cycle_graph(4), 2, node_budget=-1)
        # 0 still means "no node may be spent"
        assert chi_irr(cycle_graph(4), 2, node_budget=0).status == EXCEEDED_BUDGET

    def test_budget_exhaustion_is_distinct(self):
        res = chi_irr(complete_graph(6), 4, node_budget=3)
        assert res.status == EXCEEDED_BUDGET
        assert res.k is None and res.coloring is None

    def test_budget_reports_nodes_spent(self):
        # the budget runs out partway through a level; every node counts
        res = chi_irr(complete_graph(7), 10, node_budget=100_000)
        assert res.status == EXCEEDED_BUDGET
        assert res.nodes >= 100_000

    def test_budget_covers_whole_call(self):
        # C6 is not locally irregular, so k = 1 takes no search; it spends 19
        # and 15 nodes on k = 2, 3: each level fits in 20 nodes on its own,
        # the two together do not
        assert chi_irr(cycle_graph(6), 3).nodes == 34
        assert chi_irr(cycle_graph(6), 3, node_budget=34).status == COLORED
        assert chi_irr(cycle_graph(6), 3, node_budget=20).status == EXCEEDED_BUDGET

    def test_random_cubic_tail_within_budget(self):
        # 2-colorable cubic graphs on which a degree-sum edge order needs up
        # to 141,179 nodes; vertex completion keeps each under 20,000
        for seed in range(20):
            h = nx.random_regular_graph(3, 18, seed=seed)
            if not nx.is_connected(h):
                continue
            g = Graph(18, tuple(sorted(tuple(sorted(e)) for e in h.edges())))
            res = chi_irr(g, 4, node_budget=20_000)
            assert res.status == COLORED, seed

    def test_long_path_past_recursion_limit(self):
        g = path_graph(1200)
        res = chi_irr(g, 2)
        assert res.status == COLORED and verify_coloring(g, res.coloring).valid

    def test_monotone_witness(self, connected_small):
        for g in connected_small:
            if g.m == 0 or g.m > 8:
                continue
            res = chi_irr(g, max(1, g.m // 2))
            if res.status != COLORED or res.k == 0:
                continue
            assert verify_coloring(g, res.coloring).valid
            assert len(set(res.coloring.colors)) == res.k
            if res.k > 1:
                below = chi_irr(g, res.k - 1)
                assert below.status in (REFUTED, NOT_DECOMPOSABLE)

    def test_oracle_sample(self):
        for g in (cycle_graph(7), cycle_graph(8), complete_graph(4),
                  star_graph(4), path_graph(6)):
            res = chi_irr(g, max(1, g.m // 2))
            want = oracles.naive_chi_irr(g)
            if want is None:
                assert res.status == NOT_DECOMPOSABLE
            else:
                assert res.k == want

    def test_deterministic(self):
        a = chi_irr(complete_graph(4), 3)
        b = chi_irr(complete_graph(4), 3)
        assert (a.k, a.coloring, a.nodes) == (b.k, b.coloring, b.nodes)


class TestDecomposability:
    def test_c5_refuted(self):
        cert = is_decomposable(cycle_graph(5))
        assert not cert.decomposable
        assert cert.refuted_up_to == 2 and cert.coloring is None

    def test_c4_witness(self):
        cert = is_decomposable(cycle_graph(4))
        assert cert.decomposable
        assert verify_coloring(cycle_graph(4), cert.coloring).valid

    def test_k4(self):
        assert is_decomposable(complete_graph(4)).decomposable


def _search_decomposable(g: Graph) -> bool:
    """Decomposability by the exhaustive single-edge search to floor(m/2)
    colors, the bound past which no coloring can exist."""
    groups = [(e,) for e in edge_order(g)]
    levels = range(1, g.m // 2 + 1)
    return g.m == 0 or any(search_groups(g, groups, k)[0] is not None for k in levels)


def _t_members(max_m: int):
    """The members of T with at most ``max_m`` edges, one per isomorphism
    class, built by the recursive rule: from a triangle, attach at a
    triangle vertex of degree 2 a path with an even number of edges, or an
    odd path that ends in a new triangle."""
    seen = set()
    stack = [(3, ((0, 1), (0, 2), (1, 2)), frozenset({0, 1, 2}))]  # (n, edges, triangle vertices)
    while stack:
        n, edges, tri = stack.pop()
        g = Graph(n, edges)
        key = canon_adjacency(g.adjacency_masks)[0]
        if key in seen:
            continue
        seen.add(key)
        yield g
        for v in sorted(tri):
            if g.degrees[v] != 2:
                continue
            for length in range(1, max_m - g.m + 1):
                path = [v, *range(n, n + length)]
                grown = edges + tuple(zip(path, path[1:]))
                if length % 2 == 0:
                    stack.append((n + length, grown, tri))
                elif g.m + length + 3 <= max_m:
                    end, a, b = path[-1], n + length, n + length + 1
                    stack.append((b + 1, grown + ((end, a), (end, b), (a, b)), tri | {end, a, b}))


class TestNonDecomposableRule:
    """``non_decomposable_reason`` against the exhaustive search, and
    ``chi_irr`` answering by it with no search."""

    @staticmethod
    def check(g: Graph) -> str | None:
        reason = non_decomposable_reason(g)
        decomposable = _search_decomposable(g)
        assert (reason is None) == decomposable
        res = chi_irr(g)
        assert (res.status == NOT_DECOMPOSABLE) == (not decomposable)
        if not decomposable:
            assert res.nodes == 0
        return reason

    def test_connected_graphs_to_7_vertices(self):
        flt = GraphClassFilter(connected=True)
        graphs = [g for n in range(1, 8) for g in enumerate_graphs(n, flt)]
        assert len(graphs) == 996
        assert sum(self.check(g) is not None for g in graphs) == 10

    def test_connected_subcubic_graphs_to_10_vertices(self):
        flt = GraphClassFilter(max_degree=3, connected=True)
        graphs = [g for n in range(1, 11) for g in enumerate_graphs(n, flt)]
        assert len(graphs) == 2_571
        assert sum(self.check(g) is not None for g in graphs) == 24

    def test_paths_and_cycles(self):
        for m in range(1, 16):
            assert self.check(path_graph(m)) == ("odd path" if m % 2 else None)
            if m >= 3:
                assert self.check(cycle_graph(m)) == ("odd cycle" if m % 2 else None)
        # 16 to 19 edges by parity alone, where the search would take up to
        # 1.2M nodes
        for m in range(16, 20):
            for g in (path_graph(m), cycle_graph(m)):
                res = chi_irr(g)
                if m % 2:
                    assert (res.status, res.nodes) == (NOT_DECOMPOSABLE, 0)
                else:
                    assert res.status == COLORED

    def test_members_of_t(self):
        sizes: dict[int, int] = {}
        for g in _t_members(15):
            sizes[g.m] = sizes.get(g.m, 0) + 1
            assert self.check(g) == ("odd cycle" if g.m == 3 else "member of T")
        assert sizes == {3: 1, 5: 1, 7: 3, 9: 5, 11: 10, 13: 17, 15: 36}

    def test_one_edge_more_or_less_leaves_t(self):
        # a triangle with a pendant 2-path is in T; with a 1- or 3-path, or
        # with two triangles sharing a vertex, it is not
        assert self.check(Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4)))) == "member of T"
        assert self.check(Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))) is None
        assert self.check(Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)))) is None
        assert self.check(Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))) is None

    def test_disjoint_unions(self):
        c4 = ((0, 1), (1, 2), (2, 3), (0, 3))
        c4_c5 = Graph(9, c4 + ((4, 5), (5, 6), (6, 7), (7, 8), (4, 8)))
        c4_c6 = Graph(10, c4 + ((4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (4, 9)))
        assert self.check(c4_c5) == "odd cycle"
        assert self.check(c4_c6) is None
        assert chi_irr(c4_c6).k == 3  # C6 needs three colors
        # an isolated vertex and a decomposable first component do not hide
        # the odd path after them
        assert self.check(Graph(7, ((1, 2), (2, 3), (1, 3), (1, 4), (5, 6)))) == "odd path"

    def test_multigraphs_keep_the_search(self):
        # the 2-cycle is not decomposable, though the simple-graph rule
        # passes it; so are a triple and a fivefold edge, which the search
        # refutes
        for mult in (2, 3, 5):
            g = Graph(2, ((0, 1),) * mult, multigraph=True)
            assert non_decomposable_reason(g) is None and oracles.naive_chi_irr(g) is None
            assert chi_irr(g).status == NOT_DECOMPOSABLE
        assert chi_irr(Graph(2, ((0, 1),) * 5, multigraph=True)).nodes > 0

    @given(multigraphs(n_max=6, m_max=7))
    @settings(max_examples=300, deadline=None)
    def test_multigraphs_against_naive_oracle(self, g):
        # the rule flags no component with parallel edges, so on
        # multigraphs it answers only where the simple-graph theorem holds
        want = oracles.naive_chi_irr(g)
        res = chi_irr(g)
        if want is None:
            assert (res.status, res.k) == (NOT_DECOMPOSABLE, None)
        else:
            assert (res.status, res.k) == (COLORED, want)
        for comp in _edge_components(g, range(g.m)):
            h = _component_graph(g, comp)
            if len(set(h.edges)) < h.m:
                assert non_decomposable_reason(h) is None

    def test_five_triangle_chain_needs_no_search(self):
        # 19 edges; the exhaustive search ran past 5M nodes here
        res = chi_irr(triangle_chain(5))
        assert (res.status, res.nodes) == (NOT_DECOMPOSABLE, 0)
        assert chi_irr(triangle_chain(5), 3).status == REFUTED

    @pytest.mark.parametrize(
        "g",
        [cycle_graph(10_001), path_graph(10_001), triangle_chain(2_501)],
        ids=["C10001", "P10002", "T-chain"],
    )
    def test_at_scale(self, g):
        assert g.m >= 10_000
        start = time.perf_counter()
        res = chi_irr(g)
        cert = is_decomposable(g)
        assert time.perf_counter() - start < 1.0
        assert (res.status, res.nodes) == (NOT_DECOMPOSABLE, 0)
        assert not cert.decomposable and cert.refuted_up_to == g.m // 2 and cert.nodes == 0

    def test_locally_irregular_graph_needs_no_search(self):
        g = star_graph(4)
        res = chi_irr(g, node_budget=0)
        assert (res.status, res.k, res.nodes, res.coloring.colors) == (COLORED, 1, 0, (1,) * 4)


class TestElementUniform:
    def test_c4_two_colors(self):
        g = cycle_graph(4)
        d = two_path_decomposition(g)
        res = element_uniform_search(g, d, 2)
        assert (res.status, res.k) == (COLORED, 2)
        for el in d.elements:
            assert len({res.coloring.colors[e] for e in el.edges}) == 1

    def test_c4_one_color_refuted(self):
        g = cycle_graph(4)
        res = element_uniform_search(g, two_path_decomposition(g), 1)
        assert res.status == REFUTED

    def test_property_ii_bites(self):
        # two claws sharing a leaf: the monochrome union is locally irregular
        # (the whole graph is), but the shared vertex is pendant for both
        # elements, so (ii) forces two colors
        g = Graph(7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)))
        d = Decomposition((Element.from_edges(g, (0, 1, 2)), Element.from_edges(g, (3, 4, 5))))
        strict = element_uniform_search(g, d, 4, enforce_property_ii=True)
        loose = element_uniform_search(g, d, 4, enforce_property_ii=False)
        assert strict.status == COLORED and loose.status == COLORED
        assert loose.k == 1 and strict.k == 2

    def test_invalid_decomposition_rejected(self):
        g = cycle_graph(4)
        el = Element.from_edges(g, (0, 1))
        with pytest.raises(GraphError):
            element_uniform_search(g, Decomposition((el,)), 2)


@pytest.fixture(scope="module")
def small_decompositions(subcubic_small):
    """Every decomposition of a connected subcubic graph with n <= 8: the
    strongly pertinent one and every one into 2-paths."""
    decompositions = []
    for g in subcubic_small:
        try:
            decompositions.append(strongly_pertinent_decomposition(g))
        except GraphError:
            pass
        if g.m % 2 == 0:
            decompositions.extend(enumerate_two_path_decompositions(g))
    assert len(decompositions) == 1206
    return decompositions


class TestCentralPairOk:
    def test_matches_all_pairs_reference(self, small_decompositions):
        for d in small_decompositions:
            got = central_pair_ok(d.elements)
            want = oracles.central_pair_ok_all_pairs(d.elements)
            assert list(got.items()) == list(want.items())

    def test_pair_rule_lists_the_non_central_shared_vertices(self, small_decompositions):
        # with one color on every edge, each non-central meeting of the
        # reference is a same-colored one
        for d in small_decompositions:
            table = shared_vertices(d.elements)
            rule = _pair_rule(d.elements, table)
            assert list(rule) == list(table)
            m = 1 + max((e for el in d.elements for e in el.edges), default=-1)
            want = oracles.non_central_meetings(d.elements, [1] * m)
            assert [(i, j, v) for (i, j), bad in rule.items() for v in bad] == want


class TestSharedVertices:
    def test_matches_all_pairs_reference(self, small_decompositions):
        two_shared = 0
        for d in small_decompositions:
            got = shared_vertices(d.elements)
            want = oracles.shared_vertices_all_pairs(d.elements)
            assert list(got.items()) == list(want.items())
            two_shared += sum(len(vs) == 2 for vs in got.values())
        assert two_shared > 0  # 2-paths on a triangle or a C4 share two vertices

    def test_two_paths_sharing_two_vertices(self):
        # C4 as two 2-paths: both ends of each are the other's ends
        g = cycle_graph(4)
        els = [Element.from_edges(g, (0, 1)), Element.from_edges(g, (2, 3))]
        assert shared_vertices(els) == {(0, 1): [0, 2]}
        assert _pair_rule(els, shared_vertices(els)) == {(0, 1): [0, 2]}
        assert central_pair_ok(els) == {(0, 1): False}
