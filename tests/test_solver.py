import pytest

import oracles
from locirr.decompose import Decomposition, Element, two_path_decomposition
from locirr.graph import (
    Graph,
    GraphError,
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
    chi_irr,
    element_uniform_search,
    is_decomposable,
)


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

    def test_edgeless(self):
        res = chi_irr(Graph(3, ()), 1)
        assert (res.status, res.k) == (COLORED, 0)

    def test_bad_k_max(self):
        with pytest.raises(GraphError):
            chi_irr(cycle_graph(4), 0)

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
        # C6 spends 3, 19 and 15 nodes on k = 1, 2, 3: each level fits in 20
        # nodes on its own, the three together do not
        assert chi_irr(cycle_graph(6), 3).nodes == 37
        assert chi_irr(cycle_graph(6), 3, node_budget=37).status == COLORED
        assert chi_irr(cycle_graph(6), 3, node_budget=20).status == EXCEEDED_BUDGET

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
            assert len(res.coloring.used) == res.k
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
        d = Decomposition(
            (Element.from_edges(g, (0, 1, 2)), Element.from_edges(g, (3, 4, 5))), g
        )
        strict = element_uniform_search(g, d, 4, enforce_property_ii=True)
        loose = element_uniform_search(g, d, 4, enforce_property_ii=False)
        assert strict.status == COLORED and loose.status == COLORED
        assert loose.k == 1 and strict.k == 2

    def test_invalid_decomposition_rejected(self):
        g = cycle_graph(4)
        el = Element.from_edges(g, (0, 1))
        with pytest.raises(GraphError):
            element_uniform_search(g, Decomposition((el,), g), 2)
