import json
import sys
import time

import networkx as nx
import pytest

import oracles
from locirr import constructive, solver
from locirr.decompose import (
    CLAW,
    SUBDIVIDED_CLAW,
    TWO_PATH,
    Decomposition,
    DecompositionError,
    Element,
    enumerate_two_path_decompositions,
    pertinent_decomposition,
    strongly_pertinent_decomposition,
    two_path_decomposition,
    _claw_candidates,
    _claw_placements,
    _component_colorable,
    _pair_component,
    _subdivided_claw_placements,
    _two_path_partitions,
    validate_decomposition,
)
from locirr.enumerate import SUBCUBIC, enumerate_graphs
from locirr.graph import Graph, GraphError, complete_graph, cycle_graph, path_graph, star_graph
from locirr.solver import COLORED, chi_irr, element_uniform_search

BULL = Graph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4)))
# the smallest graph whose only pertinent decomposition uses K_{1,3}'':
# a claw at the single degree-3 vertex leaves two isolated edges behind
K13PP = Graph(6, ((0, 1), (0, 2), (0, 3), (2, 4), (3, 5)))
# a decomposable graph on which one claw placement defeats the 4-color
# element-uniform search; the builder must sidestep it
CLAW_TRAP = Graph(
    8,
    ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 6), (5, 7)),
)


class TestElement:
    def test_two_path(self):
        el = Element.from_edges(path_graph(2), (0, 1))
        assert (el.kind, el.central_vertices, el.pendant_vertices) == (
            TWO_PATH, (1,), (0, 2),
        )

    def test_claw(self):
        el = Element.from_edges(star_graph(3), (0, 1, 2))
        assert (el.kind, el.central_vertices) == (CLAW, (0,))
        assert el.pendant_vertices == (1, 2, 3)

    def test_subdivided_claw(self):
        el = Element.from_edges(K13PP, (0, 1, 2, 3, 4))
        assert el.kind == SUBDIVIDED_CLAW
        assert el.central_vertices == (0, 2, 3)
        assert el.pendant_vertices == (1, 4, 5)

    def test_rejects_other_shapes(self):
        with pytest.raises(DecompositionError):
            Element.from_edges(cycle_graph(3), (0, 1, 2))  # triangle
        with pytest.raises(DecompositionError):
            Element.from_edges(path_graph(3), (0, 2))  # disjoint edges
        with pytest.raises(DecompositionError):
            Element.from_edges(path_graph(3), (0, 1, 2))  # path of length 3

    def test_json_round_trip(self):
        d = pertinent_decomposition(BULL)
        assert Decomposition.from_json(BULL, d.to_json()) == d

    def test_contract_on_the_subcubic_corpus(self, subcubic_small):
        # ``vertices`` is fixed at construction and stays out of the
        # constructor, equality, hash and repr
        def check(g, el):
            assert el.vertices == tuple(sorted(el.central_vertices + el.pendant_vertices))
            twin = Element(el.kind, el.edges, el.central_vertices, el.pendant_vertices)
            assert twin == el and hash(twin) == hash(el)
            assert repr(el) == (
                f"Element(kind={el.kind!r}, edges={el.edges!r}, "
                f"central_vertices={el.central_vertices!r}, "
                f"pendant_vertices={el.pendant_vertices!r})"
            )
            assert Element.from_edges(g, el.edges) == el

        for g in subcubic_small:
            try:
                d = strongly_pertinent_decomposition(g)
            except DecompositionError:
                continue
            for el in d.elements:
                check(g, el)
            assert Decomposition.from_json(g, d.to_json()) == d
        built = ((path_graph(2), (1, 0)), (star_graph(3), (2, 0, 1)), (K13PP, (4, 3, 2, 1, 0)))
        for g, edges in built:
            check(g, Element.from_edges(g, edges))

    @pytest.mark.parametrize("edges", [[[0, 1]], [[0, 1], [0, 1], [2, 3]], [[0, 1], [2, 4]]])
    def test_json_must_partition(self, edges):
        text = json.dumps({"elements": [{"edges": e} for e in edges]})
        with pytest.raises(GraphError, match="partition"):
            Decomposition.from_json(cycle_graph(4), text)


class TestTwoPath:
    def test_p3(self):
        d = two_path_decomposition(path_graph(2))
        assert [el.kind for el in d.elements] == [TWO_PATH]

    def test_c4(self):
        d = two_path_decomposition(cycle_graph(4))
        assert len(d.elements) == 2
        assert validate_decomposition(cycle_graph(4), d, "pertinent").valid

    def test_k4(self):
        d = two_path_decomposition(complete_graph(4))
        assert len(d.elements) == 3
        assert validate_decomposition(complete_graph(4), d, "any").valid

    def test_odd_component_reported(self):
        with pytest.raises(DecompositionError) as exc:
            two_path_decomposition(cycle_graph(5))
        assert "odd size 5" in str(exc.value)

    def test_pairing_refuses_an_odd_edge_count(self):
        # every caller checks the parity first, so an odd count is a bug
        with pytest.raises(GraphError, match=r"odd edge count 5 .*\(bug\)"):
            _pair_component(cycle_graph(5), list(range(5)))

    def test_componentwise(self):
        g = Graph(7, ((0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)))
        d = two_path_decomposition(g)
        assert len(d.elements) == 3

    def test_succeeds_on_every_even_connected_graph(self, connected_small):
        for g in connected_small:
            if g.m % 2 or g.m == 0:
                continue
            d = two_path_decomposition(g)
            assert validate_decomposition(g, d, "any").valid
            assert all(el.kind == TWO_PATH for el in d.elements)


@pytest.mark.parametrize(
    "build", [two_path_decomposition, pertinent_decomposition, strongly_pertinent_decomposition]
)
def test_parallel_edges_refused(build):
    # the pairing would put the two parallel edges at 1 together, which form
    # no 2-path; an input error, not "no decomposition"
    g = Graph(3, ((0, 1), (0, 1), (1, 2), (1, 2)), multigraph=True)
    with pytest.raises(GraphError, match="simple graph") as exc:
        build(g)
    assert not isinstance(exc.value, DecompositionError)
    # a multigraph without parallel edges decomposes like the simple graph
    plain = Graph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))
    loose = Graph(4, plain.edges, multigraph=True)
    assert build(loose).to_json() == build(plain).to_json()


class TestPertinent:
    def test_claw_graph(self):
        d = pertinent_decomposition(star_graph(3))
        assert [el.kind for el in d.elements] == [CLAW]

    def test_bull(self):
        d = strongly_pertinent_decomposition(BULL)
        kinds = sorted(el.kind for el in d.elements)
        assert kinds == [TWO_PATH, CLAW]
        assert validate_decomposition(BULL, d, "strongly_pertinent").valid
        claw = next(el for el in d.elements if el.kind == CLAW)
        assert claw.central_vertices == (0,)

    def test_even_graph_gets_no_claw(self):
        d = pertinent_decomposition(cycle_graph(4))
        assert all(el.kind == TWO_PATH for el in d.elements)

    def test_subdivided_claw_golden_instance(self):
        d = strongly_pertinent_decomposition(K13PP)
        assert [el.kind for el in d.elements] == [SUBDIVIDED_CLAW]
        assert validate_decomposition(K13PP, d, "strongly_pertinent").valid

    def test_edge_count_law(self, subcubic_small):
        weight = {TWO_PATH: 2, CLAW: 3, SUBDIVIDED_CLAW: 5}
        for g in subcubic_small:
            if g.m == 0 or chi_irr(g, max(1, g.m // 2)).status != COLORED:
                continue
            d = pertinent_decomposition(g)
            assert sum(weight[el.kind] for el in d.elements) == g.m

    def test_strong_pertinence_means_colorable_here(self):
        g = CLAW_TRAP
        assert chi_irr(g, 2).status == COLORED
        d = strongly_pertinent_decomposition(g)
        assert validate_decomposition(g, d, "strongly_pertinent").valid
        res = element_uniform_search(g, d, 4, enforce_property_ii=True)
        assert res.status == COLORED


class TestValidate:
    def test_wrong_shape(self):
        g = cycle_graph(4)
        bogus = Element(TWO_PATH, (0, 1, 2, 3), (0,), (1, 2, 3))
        report = validate_decomposition(g, Decomposition((bogus,)))
        assert not report.valid

    def test_partition_failure(self):
        g = cycle_graph(4)
        el = Element.from_edges(g, (0, 1))
        report = validate_decomposition(g, Decomposition((el,)))
        assert not report.valid
        assert any("partition" in f for f in report.failures)

    def test_mislabeled_roles(self):
        g = path_graph(2)
        bogus = Element(TWO_PATH, (0, 1), (0,), (1, 2))
        report = validate_decomposition(g, Decomposition((bogus,)))
        assert not report.valid

    def test_two_claws_in_one_component(self):
        g = Graph(7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)))
        d = Decomposition((Element.from_edges(g, (0, 1, 2)), Element.from_edges(g, (3, 4, 5))))
        assert validate_decomposition(g, d, "any").valid
        assert not validate_decomposition(g, d, "pertinent").valid

    def test_avoidable_subdivided_claw_flagged(self):
        # a plain claw at vertex 0 leaves an even residual, so the pertinent
        # decomposition built around a K_{1,3}'' at vertex 3 is not strong
        g = Graph(8, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (4, 6), (5, 7)))
        d = Decomposition((Element.from_edges(g, (2, 3, 4, 5, 6)), Element.from_edges(g, (0, 1))))
        assert validate_decomposition(g, d, "pertinent").valid
        report = validate_decomposition(g, d, "strongly_pertinent")
        assert not report.valid
        assert any("plain claw" in f for f in report.failures)

    def test_bad_mode(self):
        with pytest.raises(GraphError):
            validate_decomposition(cycle_graph(4), two_path_decomposition(cycle_graph(4)), "x")


class TestEnumeration:
    def test_c4_has_two(self):
        ds = list(enumerate_two_path_decompositions(cycle_graph(4)))
        assert len(ds) == 2
        assert len({tuple(sorted(el.edges for el in d.elements)) for d in ds}) == 2

    def test_odd_rejected(self):
        with pytest.raises(DecompositionError):
            list(enumerate_two_path_decompositions(cycle_graph(5)))

    def test_all_outputs_valid(self):
        g = complete_graph(4)
        seen = set()
        for d in enumerate_two_path_decompositions(g):
            assert validate_decomposition(g, d, "any").valid
            key = tuple(sorted(el.edges for el in d.elements))
            assert key not in seen
            seen.add(key)
        assert seen

    def test_same_order_as_recursive_reference(self, subcubic_small):
        total = 0
        for g in subcubic_small:
            if g.m % 2 == 0:
                got = list(_two_path_partitions(g, list(range(g.m))))
                assert got == oracles.two_path_partitions(g, list(range(g.m)))
                total += len(got)
        assert total == 912

    def test_iterative_past_the_recursion_limit(self):
        g = path_graph(3000)  # 1500 2-paths, more than the default limit of frames
        assert sys.getrecursionlimit() < 1500
        first = next(enumerate_two_path_decompositions(g))
        assert [el.edges for el in first.elements] == [(e, e + 1) for e in range(0, 3000, 2)]


def _list_order_colorable(g, elements) -> bool:
    """The check's question answered by an unbudgeted search over the
    elements in list order."""
    groups = [el.edges for el in elements]
    assignment, _ = solver.search_groups(
        g, groups, 4, pair_ok=solver.central_pair_ok(elements)
    )
    return assignment is not None


class TestColorabilityCheck:
    def test_order_changes_no_answer(self, subcubic_small):
        # every 2-path decomposition of an even graph, and every candidate
        # the odd-component builder can try, claws and subdivided claws;
        # CLAW_TRAP adds the one refuted candidate
        checked = refuted = 0
        for g in [*subcubic_small, CLAW_TRAP]:
            if g.m % 2 == 0:
                cases = [list(d.elements) for d in enumerate_two_path_decompositions(g)]
            else:
                cases = [
                    els
                    for placements in (_claw_placements, _subdivided_claw_placements)
                    for els in _claw_candidates(g, placements)
                ]
            for els in cases:
                colorable = _component_colorable(g, els)
                assert colorable == _list_order_colorable(g, els)
                checked += 1
                refuted += not colorable
        assert (checked, refuted) == (2499, 1)

    def test_every_even_subcubic_decomposition_colorable(self):
        # why the builder takes the spanning-tree pairing of an even
        # component as built: no 2-path decomposition of an even-size
        # connected subcubic graph with n <= 10 is refuted
        checked = 0
        for n in range(1, 11):
            for g in enumerate_graphs(n, SUBCUBIC):
                if g.m == 0 or g.m % 2:
                    continue
                for d in enumerate_two_path_decompositions(g):
                    assert _list_order_colorable(g, list(d.elements))
                    checked += 1
        assert checked == 12_005

    def test_odd_component_is_checked(self, monkeypatch):
        # the loop fails once, on the trap candidate, which the exhaustive
        # search then refutes; the loop colors the second candidate
        loops, searches = [], []
        color, search = constructive._color_elements, constructive.element_uniform_search

        def looped(*args, **kwargs):
            col = color(*args, **kwargs)
            loops.append(col is not None)
            return col

        def searched(*args, **kwargs):
            res = search(*args, **kwargs)
            searches.append(res.status)
            return res

        monkeypatch.setattr(constructive, "_color_elements", looped)
        monkeypatch.setattr(constructive, "element_uniform_search", searched)
        strongly_pertinent_decomposition(CLAW_TRAP)
        assert loops == [False, True]
        assert searches == [solver.REFUTED]

    def test_higher_degree_component_keeps_its_first_candidate(self, monkeypatch):
        # only color_subcubic_4 needs the coloring, and it takes subcubic
        # graphs only; on this 5-regular graph an exact check ran past 20 s
        checks = []
        monkeypatch.setattr(constructive, "_color_elements", lambda *args: checks.append(args))
        h = nx.random_regular_graph(5, 22, seed=2)
        g = Graph(22, tuple(h.edges()))
        assert g.m % 2 and g.is_connected()
        d = strongly_pertinent_decomposition(g)
        assert validate_decomposition(g, d, "strongly_pertinent").valid
        assert not checks
        first = next(_claw_candidates(g, _claw_placements))
        assert [el.edges for el in d.elements] == sorted(el.edges for el in first)

    @pytest.mark.parametrize(
        "n, seed, order",
        [
            *(pytest.param(n, s, "networkx", id=f"{n}-{s}") for n in (128, 256) for s in range(5)),
            # every graph on which the old budgeted check overran, in each
            # edge order it overran in
            *(
                pytest.param(n, s, order, id=f"{n}-{s}-{order}")
                for order, cases in (
                    ("networkx", ((514, 3), (1026, 4), (1026, 8), (1026, 9))),
                    ("sorted", ((514, 2), (514, 3), (1026, 0), (1026, 3), (1026, 8), (1026, 9))),
                )
                for n, s in cases
            ),
        ],
    )
    def test_random_cubic_within_budget(self, n, seed, order, monkeypatch):
        # the loop decides every candidate, its base case by first fit: the
        # engine runs no search at all, exhaustive or otherwise
        searches, exhaustive = [], []
        backtrack = solver.backtrack

        def counted(*args, **kwargs):
            searches.append(args[0])  # positions searched
            return backtrack(*args, **kwargs)

        monkeypatch.setattr(solver, "backtrack", counted)
        monkeypatch.setattr(
            constructive, "element_uniform_search", lambda *args, **kw: exhaustive.append(args)
        )
        h = nx.random_regular_graph(3, n, seed=seed)
        g = Graph(n, tuple(h.edges()))
        if order == "sorted":
            g = Graph(n, tuple(sorted(g.edges)))
        d = strongly_pertinent_decomposition(g)
        assert validate_decomposition(g, d, "strongly_pertinent").valid
        assert not exhaustive
        assert not searches


def test_decompose_at_ten_thousand_edges():
    # a polynomial path: m = 10,050 under the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    h = nx.random_regular_graph(3, 6700, seed=0)
    g = Graph(6700, tuple(h.edges()))
    d = strongly_pertinent_decomposition(g)
    assert validate_decomposition(g, d, "strongly_pertinent").valid
    assert len(d.elements) == g.m // 2


def test_many_odd_components_in_linear_time():
    # each odd component is decided on its own graph, so the time grows
    # linearly with the claw count
    for k in (2_000, 16_000):
        g = Graph(4 * k, tuple((4 * i, 4 * i + j) for i in range(k) for j in (1, 2, 3)))
        start = time.perf_counter()
        d = pertinent_decomposition(g)
        assert time.perf_counter() - start < 5
        assert [(el.kind, el.edges) for el in d.elements] == [
            (CLAW, (3 * i, 3 * i + 1, 3 * i + 2)) for i in range(k)
        ]


def test_each_check_searches_its_own_component(monkeypatch):
    # the check's graph holds exactly the component's edges: 3 for each of
    # the claws, 21 for the odd random cubic component after them
    sizes = []
    color = constructive._color_elements

    def counted(g, *args, **kwargs):
        sizes.append(g.m)
        return color(g, *args, **kwargs)

    monkeypatch.setattr(constructive, "_color_elements", counted)
    k = 50
    h = nx.random_regular_graph(3, 14, seed=1)
    assert nx.is_connected(h)
    claws = [(4 * i, 4 * i + j) for i in range(k) for j in (1, 2, 3)]
    g = Graph(4 * k + 14, (*claws, *((4 * k + u, 4 * k + v) for u, v in h.edges())))
    d = pertinent_decomposition(g)
    assert validate_decomposition(g, d, "pertinent").valid
    assert sizes[:k] == [3] * k
    assert len(sizes) > k and set(sizes[k:]) == {21}
