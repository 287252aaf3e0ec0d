import hashlib

import networkx as nx
import pytest

import oracles
from locirr import enumerate as enum_mod
from locirr.enumerate import (
    CUBIC,
    SUBCUBIC,
    SUBCUBIC_MIN2,
    GraphClassFilter,
    _connected_masks,
    _cut_parts,
    _prune,
    enumerate_graphs,
    enumerate_trees,
)
from locirr.graph import Graph, GraphError, canon_adjacency, write_graph6
from locirr.harness import FAMILIES

CONNECTED = GraphClassFilter()
# sha256 of the cubic graph6 lines for n = 4, 6, ..., 12, newline-joined
CUBIC_SHA256 = "e109cbbe80bb7cdd65ee941de100f0e344c5f15553f6ed5a0d5926266cec96ba"


def label(g):
    return canon_adjacency(g.adjacency_masks)[0]


def count(n, flt):
    return sum(1 for _ in enumerate_graphs(n, flt))


class TestCounts:
    def test_connected(self):
        assert [count(n, CONNECTED) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]

    def test_all_graphs(self):
        # the labeler alone separates all labeled graphs into their classes
        # (OEIS A000088), as many as pairwise-isomorphism deduplication finds
        for n, classes in zip(range(1, 6), [1, 2, 4, 11, 34]):
            labeled = list(oracles.all_labeled_graphs(n))
            assert len({label(g) for g in labeled}) == classes
            assert oracles.count_classes_naive(labeled) == classes

    def test_cubic(self):
        # OEIS A002851.  A regular family is min_degree == max_degree, with
        # no prune rule of its own; the pin holds its graph6 lines in order
        sizes = (4, 6, 8, 10, 12)
        assert CUBIC == GraphClassFilter(min_degree=3, max_degree=3)
        assert [count(n, CUBIC) for n in sizes] == [1, 2, 5, 19, 85]
        lines = "\n".join(write_graph6(g) for n in sizes for g in enumerate_graphs(n, CUBIC))
        assert hashlib.sha256(lines.encode()).hexdigest() == CUBIC_SHA256

    def test_connected_subcubic(self):
        # OEIS A112410
        assert [count(n, SUBCUBIC) for n in range(1, 11)] == [
            1, 1, 2, 6, 10, 29, 64, 194, 531, 1733,
        ]

    def test_connected_bipartite(self):
        # OEIS A005142
        flt = GraphClassFilter(bipartite=True, connected=True)
        assert [count(n, flt) for n in range(1, 9)] == [1, 1, 1, 3, 5, 17, 44, 182]

    def test_cubic_odd_order_empty(self, monkeypatch):
        # the handshake test returns before any graph is built
        calls = []
        monkeypatch.setattr(enum_mod, "_connected_masks", lambda *args: calls.append(args) or [])
        for n in range(1, 14, 2):
            assert count(n, GraphClassFilter(min_degree=3, max_degree=3)) == 0
        assert calls == []

    def test_trees(self):
        assert [sum(1 for _ in enumerate_trees(n)) for n in range(1, 11)] == [
            1, 1, 1, 2, 3, 6, 11, 23, 47, 106,
        ]

    def test_naive_dedup_oracle(self):
        # brute force: all labeled graphs, pairwise-isomorphism deduplication
        for n in range(1, 6):
            labeled = list(oracles.all_labeled_graphs(n))
            connected = [g for g in labeled if g.is_connected()]
            assert count(n, CONNECTED) == oracles.count_classes_naive(connected)


def _degrees(h):
    return [d for _, d in h.degree()]


# each library filter beside the same predicate written on networkx graphs
ATLAS_FILTERS = {
    "connected": (CONNECTED, nx.is_connected),
    "subcubic": (SUBCUBIC, lambda h: nx.is_connected(h) and max(_degrees(h)) <= 3),
    "subcubic-min2": (
        SUBCUBIC_MIN2,
        lambda h: nx.is_connected(h) and all(2 <= d <= 3 for d in _degrees(h)),
    ),
    "cubic": (CUBIC, lambda h: nx.is_connected(h) and set(_degrees(h)) == {3}),
    "bipartite": (
        GraphClassFilter(bipartite=True, connected=True),
        lambda h: nx.is_connected(h) and nx.is_bipartite(h),
    ),
}


class TestGraphAtlasOracle:
    """Enumeration against networkx's atlas of all graphs on <= 7 vertices;
    classes are compared by VF2, sharing no code with the enumerator."""

    @pytest.mark.parametrize("name", sorted(ATLAS_FILTERS))
    def test_filter_matches_atlas(self, name):
        flt, pred = ATLAS_FILTERS[name]
        for n in range(1, 8):
            got = list(enumerate_graphs(n, flt))
            want = [h for h in oracles.atlas(n) if pred(h)]
            assert oracles.same_classes(got, want), f"{name} n={n}: {len(got)} vs {len(want)}"


class TestStreamLaws:
    def test_no_duplicates_and_filter_respected(self):
        for n in range(1, 8):
            seen = set()
            for g in enumerate_graphs(n, SUBCUBIC):
                assert g.n == n and g.is_connected()
                assert max(g.degrees, default=0) <= 3
                key = label(g)
                assert key not in seen
                seen.add(key)

    def test_deterministic_order(self):
        for flt in (CONNECTED, SUBCUBIC_MIN2):
            a = list(enumerate_graphs(6, flt))
            b = list(enumerate_graphs(6, flt))
            assert a == b

    def test_filters_agree_with_post_filtering(self):
        for n in range(1, 8):
            base = list(enumerate_graphs(n, CONNECTED))
            cases = {
                GraphClassFilter(max_degree=3, connected=True): lambda g: max(
                    g.degrees, default=0
                )
                <= 3,
                GraphClassFilter(min_degree=2, connected=True): lambda g: min(
                    g.degrees, default=0
                )
                >= 2,
                GraphClassFilter(min_degree=3, max_degree=3): lambda g: g.n > 0
                and set(g.degrees) == {3},
                GraphClassFilter(bipartite=True, connected=True): lambda g: g.bipartition()
                is not None,
            }
            for flt, pred in cases.items():
                got = {label(g) for g in enumerate_graphs(n, flt)}
                want = {label(g) for g in base if pred(g)}
                assert got == want, f"n={n} filter {flt}"

    @pytest.mark.parametrize("name", [*FAMILIES, "bipartite-subcubic"])
    def test_degree_bounds_hold(self, name):
        # the level pruning alone keeps every yielded graph within its
        # filter's degree bounds; no final re-check backs it up
        flt = FAMILIES.get(name, GraphClassFilter(max_degree=3, bipartite=True))
        for n in range(1, 11 if name in ("cubic", "subcubic-min2") else 8):
            for g in enumerate_graphs(n, flt):
                degs = g.degrees
                if flt.min_degree is not None:
                    assert min(degs) >= flt.min_degree
                if flt.max_degree is not None:
                    assert max(degs) <= flt.max_degree
                if flt.bipartite:
                    assert g.bipartition() is not None

    def test_trees_are_trees(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                assert t.n == n and t.m == n - 1 and t.is_connected()


# (n values, bounds(n) -> (lo, hi, regular, bipartite_only)) per family:
# enumerate_graphs hands (lo, hi, bipartite_only) to _connected_masks, and
# the reference also gets ``regular``, which switches on its three extra
# prune rules for a regular family
MASK_FAMILIES = {
    "cubic": (range(4, 13, 2), lambda n: (3, 3, True, False)),
    "subcubic-min2": (range(1, 10), lambda n: (2, 3, False, False)),
    "connected": (range(1, 8), lambda n: (min(n - 1, 1), n - 1, False, False)),
    "bipartite": (range(1, 8), lambda n: (min(n - 1, 1), n - 1, False, True)),
    "subcubic": (range(1, 10), lambda n: (min(n - 1, 1), 3, False, False)),
    "4-regular": (range(1, 11), lambda n: (4, 4, True, False)),
    "min3-max4": (range(1, 9), lambda n: (3, 4, False, False)),
}


class TestReferenceEnumerator:
    """The level loop against the reference rejection order of
    ``oracles.reference_connected_masks``, graph by graph in order."""

    @pytest.mark.parametrize("name", sorted(MASK_FAMILIES))
    def test_same_ordered_output(self, name):
        sizes, bounds = MASK_FAMILIES[name]
        for n in sizes:
            kept_from = []
            lo, hi, regular, bipartite_only = bounds(n)
            want = oracles.reference_connected_masks(n, *bounds(n), kept_from=kept_from)
            assert _connected_masks(n, lo, hi, bipartite_only) == want, f"{name} n={n}"
            # the subset sizes 2 .. top-1 the level loop skips hold no
            # child the reference keeps
            for parent, subset in kept_from:
                top = max(
                    m.bit_count()
                    for v, m in enumerate(parent)
                    if oracles._connected_without(parent, v)
                )
                assert len(subset) == 1 or len(subset) >= top, (name, parent, subset)

    def test_canonical_child_calls_pinned(self, monkeypatch):
        # deterministic counts on cubic n=4..12; the reference order makes
        # 22,400 child tests, 8,423 distance splits and 4,247 labelings.
        # Orbit pruning builds one child per orbit of neighbor subsets, so
        # 2,668 of the 2,678 labeled children are kept.  The prune's rules
        # for a full last vertex drop prefixes with no 12-vertex descendant:
        # child tests 11,618 -> 5,853, splits 3,122 -> 1,769 and labelings
        # 2,678 -> 1,329
        calls = {"child": 0, "split": 0, "label": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(enum_mod, "_canonical_child", counted("child", enum_mod._canonical_child))
        monkeypatch.setattr(enum_mod, "distance_split", counted("split", enum_mod.distance_split))
        monkeypatch.setattr(enum_mod, "canon_adjacency", counted("label", enum_mod.canon_adjacency))
        assert [count(n, CUBIC) for n in range(4, 13, 2)] == [1, 2, 5, 19, 85]
        assert calls["child"] <= 5_900
        assert calls["split"] <= 1_800
        assert calls["label"] == 1_329

    def test_untied_last_level_children_unlabeled(self, monkeypatch):
        # subcubic-min2 n=1..10 makes 1,960 labelings when every child that
        # passes the cheap tests is labeled; the 131 last-level children
        # with no non-cut vertex tied with the new one are accepted unlabeled,
        # which left 1,829; the prune's rules for a full last vertex leave
        # 1,410
        calls = {"label": 0}

        def counted(*args):
            calls["label"] += 1
            return label(*args)

        label = enum_mod.canon_adjacency
        monkeypatch.setattr(enum_mod, "canon_adjacency", counted)
        for n in range(1, 11):
            count(n, SUBCUBIC_MIN2)
        assert calls["label"] == 1_410


def _connected_atlas(n):
    for h in oracles.atlas(n):
        if nx.is_connected(h):
            yield h, Graph(n, tuple(sorted(h.edges()))).adjacency_masks


class TestCutParts:
    def test_components_without_each_vertex(self):
        for n in range(1, 8):
            for h, masks in _connected_atlas(n):
                parts = _cut_parts(masks)
                for v in range(n):
                    rest = h.copy()
                    rest.remove_node(v)
                    want = [sum(1 << u for u in c) for c in nx.connected_components(rest)]
                    assert sorted(parts[v]) == sorted(want), (h.edges(), v)

    def test_child_rule_matches_search(self):
        # in the child that joins vertex n to the nonempty set s, v < n is
        # non-cut iff s minus v meets every part of v
        for n in range(1, 7):
            for _, masks in _connected_atlas(n):
                parts = _cut_parts(masks)
                for s in range(1, 1 << n):
                    child = [m | (s >> v & 1) << n for v, m in enumerate(masks)] + [s]
                    for v in range(n):
                        rule = all(s & ~(1 << v) & c for c in parts[v])
                        assert rule == oracles._connected_without(child, v), (masks, s, v)


class TestPrune:
    def test_construction_prefixes_pass(self):
        # the vertex ids of a yielded graph are its construction order, so
        # every prefix 0..k-1 was kept at its level and must pass the prune.
        # The rules for a full last vertex hold for any hi, so families with
        # hi = 4 and hi = n - 1 are checked too
        families = (
            (CUBIC, range(4, 13, 2), lambda n: (3, 3)),
            (SUBCUBIC_MIN2, range(2, 11), lambda n: (2, 3)),
            (SUBCUBIC, range(2, 10), lambda n: (1, 3)),
            (GraphClassFilter(min_degree=4, max_degree=4), range(5, 11), lambda n: (4, 4)),
            (GraphClassFilter(min_degree=3, max_degree=4), range(4, 9), lambda n: (3, 4)),
            (CONNECTED, range(2, 8), lambda n: (1, n - 1)),
        )
        for flt, sizes, bounds in families:
            for n in sizes:
                lo, hi = bounds(n)
                for g in enumerate_graphs(n, flt):
                    masks = g.adjacency_masks
                    for k in range(1, n + 1):
                        prefix = [m & ((1 << k) - 1) for m in masks[:k]]
                        degs = [m.bit_count() for m in prefix]
                        assert _prune(prefix, degs, n, lo, hi), (g, k)

    def test_room_bound(self):
        # a 5-cycle with two chords has degrees 3,3,3,3,2: one more vertex
        # would need three edges into the prefix, which has room for one
        prefix = [0b10110, 0b01101, 0b01011, 0b10110, 0b01001]
        degs = [m.bit_count() for m in prefix]
        assert degs == [3, 3, 3, 3, 2]
        assert oracles.reference_prune(prefix, degs, 6, 3, 3, True)
        assert not _prune(prefix, degs, 6, 3, 3)

    @pytest.mark.parametrize(
        "prefix,n",
        [
            # rule 1: K4 minus an edge, degrees 3,2,2,3, last vertex full.
            # Every later vertex must be added full, so the four still to
            # come need 12 edges into the prefix, which has room for 2
            ([0b1110, 0b1001, 0b1001, 0b0111], 8),
            # rule 2: vertex 7 joins the full vertices 1, 2 and 5; vertices
            # 3, 4 and 6 are pendant.  Rule 1's room, 2 for each pendant
            # vertex, covers the 6 edges of the two vertices to come, but a
            # later vertex may only join vertices one short of full, so the
            # pendant vertices never reach degree 3
            ([0b100110, 0b10001001, 0b10010001, 0b10, 0b100, 0b11000001, 0b100000, 0b100110], 10),
        ],
        ids=["rule1", "rule2"],
    )
    def test_full_last_vertex(self, prefix, n):
        degs = [m.bit_count() for m in prefix]
        assert oracles.reference_prune(prefix, degs, n, 3, 3, True)
        assert not _prune(prefix, degs, n, 3, 3)


class TestFilterValidation:
    def test_inconsistent_bounds(self):
        with pytest.raises(GraphError):
            GraphClassFilter(min_degree=4, max_degree=3)
        with pytest.raises(GraphError):
            GraphClassFilter(min_degree=3, max_degree=2)
        with pytest.raises(GraphError):
            list(enumerate_graphs(-1, GraphClassFilter()))
        with pytest.raises(GraphError):
            GraphClassFilter(connected=False)

    @pytest.mark.parametrize("name,bound", [("max_degree", -1), ("min_degree", -1)])
    def test_negative_degree_bound(self, name, bound):
        # these once enumerated nothing (max_degree) or ran as if the bound
        # were 0 (min_degree)
        with pytest.raises(GraphError):
            GraphClassFilter(**{name: bound})
