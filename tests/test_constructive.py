import random
import sys
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from locirr import constructive, solver
from locirr.constructive import (
    Bipartition,
    ParityPair,
    SubcubicStats,
    color_balanced_4,
    color_balanced_forest_2,
    color_fully_subdivided_2,
    color_subcubic_4,
    element_properties_ok,
    proper_edge_color,
    vertex_parity_color,
)
from locirr.decompose import (
    CLAW,
    TWO_PATH,
    Decomposition,
    Element,
    enumerate_two_path_decompositions,
    strongly_pertinent_decomposition,
)
from locirr.graph import (
    Graph,
    GraphError,
    complete_graph,
    cube_graph,
    cycle_graph,
    fully_subdivide,
    parse_graph6,
    path_graph,
    star_graph,
)
from locirr.irregularity import EdgeColoring, VerificationReport, verify_coloring
from locirr.solver import COLORED, chi_irr

PETERSEN = Graph(
    10,
    ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)),
)


class TestParityPair:
    def test_p1_violation_named(self):
        p = ParityPair(path_graph(2), (0, 1, 1))  # vertex 0 has degree 1
        assert any(v.startswith("(P1) vertex 0") for v in p.violations())

    def test_p2_violation_named(self):
        p = ParityPair(cycle_graph(4), (0, 1, 0, 0))
        assert any(v.startswith("(P2)") for v in p.violations())

    def test_degree_parity_signature_is_proper(self, connected_small):
        for g in connected_small:
            sig = tuple(d % 2 for d in g.degrees)
            assert ParityPair(g, sig).is_proper

    def test_signature_length_checked(self):
        with pytest.raises(GraphError):
            ParityPair(path_graph(2), (0, 1))
        with pytest.raises(GraphError):
            ParityPair(path_graph(2), (0, 1, 2))


class TestVertexParity:
    def test_c4_all_even(self):
        col = vertex_parity_color(ParityPair(cycle_graph(4), (0, 0, 0, 0)))
        assert col.k == 1

    def test_claw_all_odd(self):
        col = vertex_parity_color(ParityPair(star_graph(3), (1, 1, 1, 1)))
        assert col.k == 1

    def test_p3_center_even(self):
        col = vertex_parity_color(ParityPair(path_graph(2), (1, 0, 1)))
        assert col.k == 1

    def test_improper_rejected(self):
        with pytest.raises(GraphError) as exc:
            vertex_parity_color(ParityPair(path_graph(2), (0, 0, 1)))
        assert "(P1)" in str(exc.value)

    def test_parity_table_matches_signature(self, connected_small):
        rng = random.Random(7)
        for g in connected_small:
            if g.m == 0 or g.m > 10:
                continue
            sigs = {tuple(d % 2 for d in g.degrees)}
            if g.n >= 2:
                sigs.add((1,) * g.n)
            for _ in range(3):
                sig = tuple(
                    rng.randint(0, 1) if g.degrees[v] % 2 == 0 else 1
                    for v in range(g.n)
                )
                if ParityPair(g, sig).is_proper:
                    sigs.add(sig)
            for sig in sigs:
                pair = ParityPair(g, sig)
                if not pair.is_proper:
                    continue
                col = vertex_parity_color(pair)
                assert oracles.parity_table_ok(g, col.colors, sig)
                limit = 4 if sum(sig) != 3 else 6
                assert col.k <= limit

    def test_long_path_past_recursion_limit(self):
        g = path_graph(2000)
        sig = tuple(d % 2 for d in g.degrees)
        col = vertex_parity_color(ParityPair(g, sig))
        assert oracles.parity_table_ok(g, col.colors, sig)

    def test_minimality(self):
        # C6 with alternating signature needs more than one color
        g = cycle_graph(6)
        sig = (1, 1, 1, 1, 1, 1)
        col = vertex_parity_color(ParityPair(g, sig))
        assert col.k == 2
        # exhaustive check that one color is indeed impossible: a single class
        # would give every vertex an even count 2
        assert not oracles.parity_table_ok(g, (1,) * 6, sig)


class TestBalancedForest:
    def test_star_center_even(self):
        g = star_graph(4)
        col = color_balanced_forest_2(g, Bipartition(frozenset({0}), frozenset({1, 2, 3, 4})))
        assert col.k == 1

    def test_p5_internal(self):
        g = path_graph(4)
        col = color_balanced_forest_2(g, Bipartition(frozenset({1, 3}), frozenset({0, 2, 4})))
        assert col.k == 2 and verify_coloring(g, col).valid
        assert col.colors[0] == col.colors[1] and col.colors[2] == col.colors[3]

    def test_p3(self):
        g = path_graph(2)
        col = color_balanced_forest_2(g, Bipartition(frozenset({1}), frozenset({0, 2})))
        assert col.k == 1

    def test_not_a_forest(self):
        with pytest.raises(GraphError):
            color_balanced_forest_2(
                cycle_graph(4), Bipartition(frozenset({0, 2}), frozenset({1, 3}))
            )

    def test_odd_even_side_rejected(self):
        with pytest.raises(GraphError):
            color_balanced_forest_2(
                path_graph(2), Bipartition(frozenset({0, 2}), frozenset({1}))
            )

    def test_monochromatic_on_subdivided_trees(self):
        import networkx as nx

        for seed in range(25):
            nxt = nx.random_labeled_tree(random.Random(seed).randint(2, 9), seed=seed)
            t = Graph(nxt.number_of_nodes(), tuple(nxt.edges()))
            s = fully_subdivide(t)
            even = frozenset(range(t.n, s.n))  # subdivision vertices, degree 2
            col = color_balanced_forest_2(s, Bipartition(even, frozenset(range(t.n))))
            assert col.k <= 2 and verify_coloring(s, col).valid
            for v in even:
                assert len({col.colors[e] for e, _ in s.incidence[v]}) == 1


class TestProperEdgeColoring:
    def test_star(self):
        assert proper_edge_color(star_graph(3)).k == 3

    def test_c4(self):
        assert proper_edge_color(cycle_graph(4)).k == 2

    def test_petersen_class_two(self):
        col = proper_edge_color(PETERSEN)
        assert col.k == 4
        assert not oracles.proper_k_colorable(PETERSEN, 3)

    def test_cube_class_one(self):
        assert proper_edge_color(cube_graph()).k == 3

    def test_long_cycle_past_recursion_limit(self):
        g = cycle_graph(2000)
        col = proper_edge_color(g)
        assert col.k == 2
        for v in range(g.n):
            assert len({col.colors[e] for e, _ in g.incidence[v]}) == 2

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_proper_within_vizing(self, rng):
        from conftest import random_graph

        g = random_graph(rng, n_max=9, p=0.5)
        col = proper_edge_color(g)
        delta = max(g.degrees, default=0)
        assert col.k <= delta + 1
        for v in range(g.n):
            seen = [col.colors[e] for e, _ in g.incidence[v]]
            assert len(seen) == len(set(seen))
        if col.k == delta + 1 and g.m <= 10:
            assert not oracles.proper_k_colorable(g, delta)


class TestFullySubdivided2:
    def check(self, base, expect_k=None):
        col = color_fully_subdivided_2(base)
        s = fully_subdivide(base)
        assert verify_coloring(s, col).valid
        assert col.k <= 2
        if expect_k is not None:
            assert col.k == expect_k
        return col

    def test_claw(self):
        self.check(star_graph(3), expect_k=1)

    def test_c4(self):
        self.check(cycle_graph(4), expect_k=2)

    def test_k4(self):
        self.check(complete_graph(4))

    def test_path(self):
        self.check(path_graph(3), expect_k=2)

    def test_long_path_past_recursion_limit(self):
        self.check(path_graph(1500))

    def test_multigraph_bases(self):
        two_cycle = Graph(2, ((0, 1), (0, 1)), multigraph=True)
        self.check(two_cycle)
        theta = Graph(2, ((0, 1), (0, 1), (0, 1)), multigraph=True)
        self.check(theta)
        figure_eight = Graph(3, ((0, 1), (0, 1), (0, 2), (0, 2)), multigraph=True)
        self.check(figure_eight)

    def test_odd_cycles_rejected(self):
        for m in (3, 5, 7):
            with pytest.raises(GraphError) as exc:
                color_fully_subdivided_2(cycle_graph(m))
            assert "odd cycle" in str(exc.value)

    def test_odd_cycle_component_rejected(self):
        g = Graph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)))
        with pytest.raises(GraphError):
            color_fully_subdivided_2(g)

    def test_random_cubic_base_with_10050_edges(self):
        # one pass over threads: linear time, no recursion
        h = nx.random_regular_graph(3, 6700, seed=0)
        base = Graph(6700, tuple(h.edges()))
        assert base.m == 10_050 and sys.getrecursionlimit() <= 1000
        start = time.perf_counter()
        col = color_fully_subdivided_2(base)
        assert time.perf_counter() - start < 2.0
        assert col.k <= 2 and verify_coloring(fully_subdivide(base), col).valid

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_random_bases(self, rng):
        base = _random_base(rng)
        mg = nx.MultiGraph(base.edges)
        mg.add_nodes_from(range(base.n))
        odd_cycle = any(
            len(comp) % 2 and all(mg.degree(v) == 2 for v in comp)
            for comp in nx.connected_components(mg)
        )
        s = fully_subdivide(base)
        if odd_cycle:
            with pytest.raises(GraphError, match="odd cycle"):
                color_fully_subdivided_2(base)
        else:
            col = self.check(base)
        if s.m <= 20:
            exact = chi_irr(s, 2)
            assert (exact.status == COLORED) == (not odd_cycle)
            if not odd_cycle:
                assert exact.k <= col.k


def _random_base(rng: random.Random) -> Graph:
    """A loopless multigraph with at most 14 vertices and 20 edges, built from
    random pieces: blobs of random edges (parallel ones included), cycles of
    length 2 to 5, and paths hanging off earlier vertices."""
    n, edges = 0, []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(2, 5)
        if n + size > 14:
            break
        new = list(range(n, n + size))
        kind = rng.choice(("blob", "cycle", "pendant"))
        if kind == "blob":
            piece = [tuple(rng.sample(new, 2)) for _ in range(rng.randint(1, 2 * size))]
        elif kind == "cycle":
            piece = list(zip(new, new[1:] + new[:1]))
        else:
            path = [rng.randrange(n)] + new if n else new
            piece = list(zip(path, path[1:]))
        if len(edges) + len(piece) > 20:
            break
        n += size
        edges += piece
    return Graph(n, tuple(edges), multigraph=True)


class TestBalanced4:
    def test_subdivided_claw(self):
        s = fully_subdivide(star_graph(3))
        b = Bipartition(frozenset(range(4, 7)), frozenset(range(4)))
        col = color_balanced_4(s, b)
        assert col.k == 1 and verify_coloring(s, col).valid

    def test_c4(self):
        b = Bipartition(frozenset({0, 2}), frozenset({1, 3}))
        col = color_balanced_4(cycle_graph(4), b)
        assert col.k <= 4 and verify_coloring(cycle_graph(4), col).valid

    def test_c6_gap_case(self):
        # three degree-2 vertices on the non-even side force the subdivision
        # route, whose base is an odd cycle; the run-pattern handler kicks in
        g = cycle_graph(6)
        b = Bipartition(frozenset({0, 2, 4}), frozenset({1, 3, 5}))
        col = color_balanced_4(g, b)
        assert verify_coloring(g, col).valid
        assert col.k == 3 == chi_irr(g, 3).k

    def test_unbalanced_rejected(self):
        g = path_graph(2)  # even side would need vertex degrees all even
        with pytest.raises(GraphError):
            color_balanced_4(g, Bipartition(frozenset({0, 2}), frozenset({1})))

    def test_non_bipartition_rejected(self):
        with pytest.raises(GraphError):
            color_balanced_4(
                cycle_graph(4), Bipartition(frozenset({0, 1}), frozenset({2, 3}))
            )

    @pytest.mark.parametrize(
        "edges, cause",
        [
            pytest.param(
                ((3, 0), (3, 0), (4, 0), (4, 1), (5, 1), (5, 2)),
                "vertex 3 has 2 edges to 1 distinct",
                id="both-edges-to-one-vertex",
            ),
            pytest.param(
                ((3, 0), (3, 0), (3, 1), (3, 1), (4, 1), (4, 2), (5, 2), (5, 0)),
                "vertex 3 has 4 edges to 2 distinct",
                id="two-parallel-pairs",
            ),
        ],
    )
    def test_multigraph_off_the_subdivision_route_rejected(self, edges, cause):
        # with 3 other-side vertices each even-side vertex needs 2 edges to
        # 2 distinct neighbors, which parallel edges break
        g = Graph(6, edges, multigraph=True)
        with pytest.raises(GraphError, match=cause):
            color_balanced_4(g, Bipartition(frozenset({3, 4, 5}), frozenset({0, 1, 2})))


def cubic_union(copies: int, n: int) -> Graph:
    """Disjoint union of random cubic graphs on n vertices, with seeds
    0, 1, ..., copies - 1."""
    edges = []
    for s in range(copies):
        h = nx.random_regular_graph(3, n, seed=s)
        edges.extend((s * n + u, s * n + v) for u, v in h.edges())
    return Graph(copies * n, tuple(edges))


class TestSubcubic4:
    def run(self, g, expect_max=4):
        d = strongly_pertinent_decomposition(g)
        stats = SubcubicStats()
        col = color_subcubic_4(g, d, stats=stats)
        assert col.k <= expect_max
        assert verify_coloring(g, col).valid
        ok, failures = element_properties_ok(g, d, col)
        assert ok, failures
        return col, stats

    def test_claw(self):
        col, _ = self.run(star_graph(3))
        assert col.k == 1

    def test_c4(self):
        col, _ = self.run(cycle_graph(4))
        assert col.k == 2

    def test_k4(self):
        self.run(complete_graph(4))

    def test_cube(self):
        self.run(cube_graph())

    def test_petersen(self):
        self.run(PETERSEN)

    def test_subdivided_claw_instance(self):
        g = Graph(6, ((0, 1), (0, 2), (0, 3), (2, 4), (3, 5)))
        col, _ = self.run(g)
        assert col.k == 1  # the whole element is one locally irregular graph

    def test_trace_names_rules(self):
        g = cube_graph()
        d = strongly_pertinent_decomposition(g)
        trace: list[str] = []
        color_subcubic_4(g, d, trace=trace)
        assert trace

    def test_non_subcubic_rejected(self):
        g = star_graph(4)
        with pytest.raises(GraphError):
            color_subcubic_4(g, strongly_pertinent_decomposition(g))

    def test_element_properties_detect_breakage(self):
        g = cycle_graph(4)
        d = strongly_pertinent_decomposition(g)
        # split an element across two colors: property (i) must fail
        bad = EdgeColoring((1, 2, 1, 2), 2)
        ok, failures = element_properties_ok(g, d, bad)
        assert not ok and failures

    def test_element_properties_match_all_pairs_reference(self, subcubic_small):
        # random two-color element-uniform colorings of every 2-path
        # decomposition: the pair failures found through the vertex index
        # are the all-pairs ones, in the same order
        rng = random.Random(7)
        for g in subcubic_small:
            if g.m % 2:
                continue
            for d in enumerate_two_path_decompositions(g):
                els = d.elements
                colors = [0] * g.m
                for el in els:
                    c = rng.randint(1, 2)
                    for e in el.edges:
                        colors[e] = c
                ok, failures = element_properties_ok(g, d, EdgeColoring(tuple(colors), 2))
                want = [
                    f"same-colored elements {els[i].edges} and {els[j].edges}"
                    f" meet at non-central vertex {v}"
                    for i, j, v in oracles.non_central_meetings(els, colors)
                ]
                assert list(failures) == want and ok == (not want)

    def test_random_cubic_1000_under_default_recursion_limit(self):
        # peeling and reinstating run in one loop, so no stack grows with n
        h = nx.random_regular_graph(3, 1000, seed=0)
        self.run(Graph(1000, tuple(tuple(sorted(e)) for e in h.edges())))

    @pytest.mark.parametrize("n", [6668, 6666])
    def test_random_cubic_at_ten_thousand_edges(self, n):
        # decompose + color + verify at m = 10,002 and m = 9,999 under the
        # default recursion limit; the odd size takes the claw path and the
        # decomposer's colorability check
        assert sys.getrecursionlimit() <= 1000
        h = nx.random_regular_graph(3, n, seed=0)
        g = Graph(n, tuple(h.edges()))
        assert g.m == 3 * n // 2 and g.is_connected()
        d = strongly_pertinent_decomposition(g)
        assert {el.kind for el in d.elements} == ({TWO_PATH, CLAW} if g.m % 2 else {TWO_PATH})
        col = color_subcubic_4(g, d)
        assert col.k <= 4 and verify_coloring(g, col).valid
        assert element_properties_ok(g, d, col)[0]

    def test_recolor_rule(self):
        # the one instance found where recoloring an incident element fires,
        # over all decomposable subcubic graphs with n <= 11 and random cubic
        # and subcubic graphs with n = 200..2000
        g = parse_graph6("GqI?yW")
        d = strongly_pertinent_decomposition(g)
        stats = SubcubicStats()
        trace: list[str] = []
        col = color_subcubic_4(g, d, stats=stats, trace=trace)
        assert verify_coloring(g, col).valid and element_properties_ok(g, d, col)[0]
        assert stats.recolor == 1
        assert trace == [
            "base case on 1 elements",
            "free-color 2 for element 2",
            "free-color 3 for element 4",
            "free-color 4 for element 3",
            "free-color 2 for element 1",
            "recolor element 2 -> 3",
        ]

    def test_full_neighborhood_recolors(self):
        # a hand-built decomposition where element 3 sees all four colors
        # around it when it is reinstated: recoloring element 1 frees one
        g = Graph(12, (
            (0, 8), (1, 4), (8, 11), (5, 11), (4, 10), (5, 9), (1, 7), (0, 6),
            (7, 9), (4, 9), (1, 5), (2, 11), (0, 3), (6, 10), (3, 7), (2, 10),
        ))
        pairs = ((0, 2), (1, 4), (3, 5), (6, 10), (7, 13), (8, 9), (11, 15), (12, 14))
        d = Decomposition(tuple(Element.from_edges(g, pr) for pr in pairs))
        stats = SubcubicStats()
        trace: list[str] = []
        col = color_subcubic_4(g, d, stats=stats, trace=trace)
        assert verify_coloring(g, col).valid and element_properties_ok(g, d, col)[0]
        assert (stats.recolor, stats.direct, stats.fallbacks) == (1, 0, 0)
        assert trace == [
            "endgame: proper coloring of the contracted base",
            "free-color 3 for element 5",
            "free-color 4 for element 7",
            "free-color 1 for element 3",
            "recolor element 1 -> 4",
        ]

    def test_fallback_colors_what_the_loop_cannot(self):
        # a strongly pertinent decomposition where the fourth 2-path to be
        # reinstated finds no free color and no single recoloring frees one:
        # the exhaustive element-uniform search colors the graph instead
        g = Graph(10, (
            (0, 1), (0, 2), (0, 8), (1, 3), (1, 7), (2, 4), (2, 9),
            (3, 5), (3, 9), (4, 6), (5, 8), (7, 8), (7, 9),
        ))
        parts = ((0, 3), (1, 2), (4, 11, 12), (5, 9), (6, 8), (7, 10))
        d = Decomposition(tuple(Element.from_edges(g, p) for p in parts))
        stats = SubcubicStats()
        trace: list[str] = []
        col = color_subcubic_4(g, d, stats=stats, trace=trace)
        assert verify_coloring(g, col).valid and element_properties_ok(g, d, col)[0]
        assert (stats.fallbacks, col.k) == (1, 4)
        assert trace == [
            "base case on 1 elements",
            "free-color 2 for element 4",
            "free-color 3 for element 5",
            "free-color 4 for element 0",
            "fallback: exhaustive element-uniform search",
        ]

    def test_base_case_on_many_claws(self, monkeypatch):
        # 9 odd-size components leave 9 disjoint claws for the base case,
        # which colors them all by first fit: neither the decomposer's check
        # nor the colorer runs an element search
        searches = []
        backtrack = solver.backtrack

        def counted(*args, **kwargs):
            searches.append(args[0])  # positions searched
            return backtrack(*args, **kwargs)

        monkeypatch.setattr(solver, "backtrack", counted)
        g = cubic_union(9, 14)
        _, stats = self.run(g)
        assert (stats.base_cases, stats.fallbacks) == (1, 0)
        assert not searches

    def test_many_odd_components_at_ten_thousand_edges(self):
        assert sys.getrecursionlimit() <= 1000
        g = cubic_union(120, 62)
        assert g.m == 11_160
        start = time.perf_counter()
        _, stats = self.run(g)  # decompose, color, verify, element properties
        assert time.perf_counter() - start < 5.0
        assert (stats.base_cases, stats.fallbacks) == (1, 0)


class TestReverification:
    """Every colorer re-verifies its coloring with an explicit check, which
    ``python -O`` keeps: a verifier that reports a violation must make each
    one raise, not return the coloring."""

    @pytest.fixture
    def broken_verifier(self, monkeypatch):
        broken = VerificationReport(False, ((1, 0, 1),))
        monkeypatch.setattr(constructive, "verify_coloring", lambda g, c: broken)
        monkeypatch.setattr(solver, "verify_coloring", lambda g, c: broken)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: color_subcubic_4(cube_graph(), strongly_pertinent_decomposition(cube_graph())),
            lambda: color_balanced_forest_2(
                path_graph(4), Bipartition(frozenset({1, 3}), frozenset({0, 2, 4}))
            ),
            lambda: color_fully_subdivided_2(cycle_graph(4)),
            lambda: color_balanced_4(
                cycle_graph(6), Bipartition(frozenset({0, 2, 4}), frozenset({1, 3, 5}))
            ),
            lambda: color_balanced_4(
                cycle_graph(4), Bipartition(frozenset({0, 2}), frozenset({1, 3}))
            ),
            lambda: chi_irr(cycle_graph(4), 2),
        ],
        ids=["subcubic", "forest", "subdivided", "cycle-runs", "parity", "exact"],
    )
    def test_reported_violation_raises(self, broken_verifier, call):
        with pytest.raises(GraphError, match=r"\(bug\)"):
            call()

    def test_broken_element_property_raises(self, monkeypatch):
        monkeypatch.setattr(
            constructive, "_element_failures", lambda els, table, colors: ["a failure"]
        )
        g = cube_graph()
        with pytest.raises(GraphError, match=r"a failure \(bug\)"):
            color_subcubic_4(g, strongly_pertinent_decomposition(g))
