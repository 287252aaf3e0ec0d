import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from locirr.graph import Graph, GraphError, cycle_graph, path_graph, star_graph
from locirr.irregularity import (
    EdgeColoring,
    VerificationReport,
    is_locally_irregular,
    kempe_component,
    swap,
    verify_coloring,
)

C4 = cycle_graph(4)
C4_1122 = EdgeColoring((1, 1, 2, 2), 2)  # edges of C4 are (01)(12)(23)(03)


class TestPredicate:
    def test_p3(self):
        assert is_locally_irregular(path_graph(2))

    def test_k2(self):
        assert not is_locally_irregular(path_graph(1))

    def test_regular_graphs(self):
        assert is_locally_irregular(star_graph(3))
        assert not is_locally_irregular(C4)

    def test_edgeless(self):
        assert is_locally_irregular(Graph(0, ()))
        assert is_locally_irregular(Graph(3, ()))


class TestVerify:
    def test_c4_split(self):
        # classes {01,12} and {23,03} are both 2-paths
        assert verify_coloring(C4, C4_1122).valid

    def test_c4_monochrome(self):
        report = verify_coloring(C4, EdgeColoring((1, 1, 1, 1), 1))
        assert not report.valid and len(report.violations) == 4

    def test_claw_monochrome(self):
        assert verify_coloring(star_graph(3), EdgeColoring((1, 1, 1), 1)).valid

    def test_partial_rejected(self):
        with pytest.raises(GraphError):
            verify_coloring(C4, EdgeColoring((1, 1, 2), 2))
        # a color outside 1..k is rejected when the coloring is made
        for colors, k in (((1, 1, 2, 3), 2), ((0, 1, 1, 1), 1)):
            with pytest.raises(GraphError, match="outside"):
                EdgeColoring(colors, k)

    def test_violations_sorted_and_deduplicated(self):
        report = verify_coloring(C4, EdgeColoring((1, 1, 1, 1), 1))
        assert list(report.violations) == sorted(set(report.violations))

    def test_memory_bounded_by_colors_used(self):
        # one huge color value: the per-vertex counts are keyed by color, so
        # memory follows the edges, not the largest color; the report keeps
        # the original color values
        g = Graph(4, ((0, 1), (1, 2)))
        tracemalloc.start()
        try:
            report = verify_coloring(g, EdgeColoring((1, 10**6), 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        small = verify_coloring(g, EdgeColoring((1, 2), 2))
        renamed = tuple((10**6 if c == 2 else c, u, v) for c, u, v in small.violations)
        assert report == VerificationReport(small.valid, renamed)
        assert report.violations == ((1, 0, 1), (10**6, 1, 2))

    def test_memory_linear_with_a_color_per_edge(self):
        # colors 1..m: lists indexed by color would take n * m entries
        h = nx.random_regular_graph(3, 1000, seed=0)
        g = Graph(1000, tuple(h.edges()))
        col = EdgeColoring(tuple(range(1, g.m + 1)), g.m)
        tracemalloc.start()
        try:
            report = verify_coloring(g, col)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.violations) == g.m  # every class is a lone edge
        assert peak < 2**20

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_renaming_colors_renames_violations(self, data):
        from conftest import random_graph

        g = random_graph(data.draw(st.randoms(use_true_random=False)))
        k = data.draw(st.integers(1, 4))
        colors = tuple(data.draw(st.integers(1, k)) for _ in range(g.m))
        # an injective renaming, values far above m included
        names = data.draw(
            st.lists(st.integers(1, 10**9), min_size=k, max_size=k, unique=True)
        )
        renamed = tuple(names[c - 1] for c in colors)
        before = verify_coloring(g, EdgeColoring(colors, k))
        after = verify_coloring(g, EdgeColoring(renamed, max(names)))
        assert after.valid == before.valid
        assert after.violations == tuple(
            sorted((names[c - 1], u, v) for c, u, v in before.violations)
        )

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_classwise_predicate(self, data):
        from conftest import random_graph

        g = random_graph(data.draw(st.randoms(use_true_random=False)))
        k = data.draw(st.integers(1, 3))
        colors = tuple(data.draw(st.integers(1, k)) for _ in range(g.m))
        col = EdgeColoring(colors, k)
        h = oracles.to_nx(g)
        classes = [
            h.edge_subgraph(e for e, ce in zip(g.edges, colors) if ce == c)
            for c in range(1, k + 1)
        ]
        expected = all(is_locally_irregular(Graph(g.n, tuple(s.edges()))) for s in classes)
        assert verify_coloring(g, col).valid == expected
        assert verify_coloring(g, col).valid == oracles.naive_valid(g, colors)


class TestKempe:
    def test_whole_cycle(self):
        comp = kempe_component(C4, C4_1122, 1, 2, 0)
        assert comp.edges == frozenset(range(4))

    def test_absent_colors_empty(self):
        assert kempe_component(C4, C4_1122, 3, 4, 0).edges == frozenset()

    def test_respects_connectivity(self):
        two_paths = Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
        col = EdgeColoring((1, 2, 1, 2), 2)
        comp = kempe_component(two_paths, col, 1, 2, 0)
        assert comp.edges == frozenset({0, 1})

    def test_equal_colors_rejected(self):
        with pytest.raises(GraphError):
            kempe_component(C4, C4_1122, 1, 1, 0)

    def test_components_partition_pair_edges(self):
        g = Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5), (2, 3)))
        col = EdgeColoring((1, 2, 1, 2, 3), 3)
        comps = set()
        for v in range(g.n):
            comps.add(kempe_component(g, col, 1, 2, v).edges)
        comps.discard(frozenset())
        pair_edges = {e for e in range(g.m) if col.colors[e] in (1, 2)}
        assert sorted(e for c in comps for e in c) == sorted(pair_edges)
        assert sum(len(c) for c in comps) == len(pair_edges)

    def test_swap_exchanges_colors(self):
        comp = kempe_component(C4, C4_1122, 1, 2, 0)
        assert swap(C4, C4_1122, comp).colors == (2, 2, 1, 1)

    def test_swap_is_involution(self):
        comp = kempe_component(C4, C4_1122, 1, 2, 0)
        once = swap(C4, C4_1122, comp)
        comp2 = kempe_component(C4, once, 1, 2, 0)
        assert swap(C4, once, comp2) == C4_1122

    def test_stale_component_rejected(self):
        comp = kempe_component(C4, C4_1122, 1, 2, 0)
        other = EdgeColoring((3, 3, 4, 4), 4)
        with pytest.raises(GraphError):
            swap(C4, other, comp)
