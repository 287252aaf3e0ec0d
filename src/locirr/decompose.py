"""Edge-decompositions into 2-paths, claws, and subdivided claws.

Pertinent decompositions use 2-paths plus at most one claw-type element per
connected component; "strongly pertinent" additionally certifies that a
subdivided claw is used only where no plain-claw decomposition exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations
from operator import attrgetter

from .graph import Graph, GraphError, json_int

TWO_PATH = "2path"
CLAW = "claw"
SUBDIVIDED_CLAW = "subdivided_claw"


class DecompositionError(GraphError):
    pass


@dataclass(frozen=True)
class Element:
    """One element of a decomposition: its kind, its edge ids and its
    central and pendant vertices.

    ``vertices``, every vertex of the element ascending, is derived from the
    two vertex tuples once, when the element is built; it takes no part in
    the constructor, equality, hash or repr."""

    kind: str
    edges: tuple[int, ...]
    central_vertices: tuple[int, ...]
    pendant_vertices: tuple[int, ...]
    vertices: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", tuple(sorted(self.central_vertices + self.pendant_vertices))
        )

    @staticmethod
    def from_edges(g: Graph, edges) -> "Element":
        edges = tuple(sorted(edges))
        kind, central, pendant = _shape(g, edges)
        return Element(kind, edges, central, pendant)


def _not_an_element(edges) -> DecompositionError:
    return DecompositionError(f"edges {edges} do not form a 2-path, claw, or subdivided claw")


def _two_path_roles(g: Graph, edges: tuple[int, int], center: int):
    """Central and pendant vertices of the 2-path ``edges`` at ``center``, an
    end of both edges; DecompositionError when the other ends coincide."""
    (a, b), (c, d) = g.edges[edges[0]], g.edges[edges[1]]
    u = b if a == center else a
    w = d if c == center else c
    if u == w:
        raise _not_an_element(edges)
    return (center,), ((u, w) if u < w else (w, u))


def _shape(g: Graph, edges: tuple[int, ...]):
    """``(kind, central_vertices, pendant_vertices)`` of a sorted edge tuple
    forming a 2-path, a claw or a subdivided claw; DecompositionError
    otherwise."""
    if len(edges) == 2:
        # a 2-path: two edges with exactly one common end
        p, q = g.edges[edges[0]], g.edges[edges[1]]
        for center in p:
            if center in q:
                return (TWO_PATH, *_two_path_roles(g, edges, center))
    deg: dict[int, int] = {}
    adj: dict[int, set[int]] = {}
    for e in edges:
        u, v = g.edges[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    degs = sorted(deg.values())
    if len(edges) == 3 and degs == [1, 1, 1, 3] and len(deg) == 4:
        center = next(v for v, d in deg.items() if d == 3)
        pend = tuple(sorted(v for v in deg if v != center))
        return CLAW, (center,), pend
    if len(edges) == 5 and degs == [1, 1, 1, 2, 2, 3] and len(deg) == 6:
        center = next(v for v, d in deg.items() if d == 3)
        mids = sorted(v for v, d in deg.items() if d == 2)
        leaves = [v for v, d in deg.items() if d == 1]
        if all(m in adj[center] for m in mids) and all(
            len(adj[m] - {center}) == 1 for m in mids
        ):
            direct = [v for v in leaves if v in adj[center]]
            if len(direct) == 1:
                return SUBDIVIDED_CLAW, tuple(sorted([center] + mids)), tuple(sorted(leaves))
    raise _not_an_element(edges)


@dataclass(frozen=True)
class Decomposition:
    elements: tuple[Element, ...]

    def to_json(self) -> str:
        return json.dumps(
            {"elements": [{"kind": el.kind, "edges": list(el.edges)} for el in self.elements]}
        )

    @staticmethod
    def from_json(g: Graph, text: str) -> "Decomposition":
        try:
            data = json.loads(text)
            items = [tuple(map(json_int, item["edges"])) for item in data["elements"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad decomposition JSON: {exc}") from exc
        if sorted(e for edges in items for e in edges) != list(range(g.m)):
            raise GraphError(f"elements do not partition the edges 0..{g.m - 1}")
        return Decomposition(tuple(Element.from_edges(g, edges) for edges in items))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple[str, ...]


# -- restricted-edge-set helpers ---------------------------------------------


def _edge_components(g: Graph, eids) -> list[list[int]]:
    """Connectivity classes of an edge set (edges sharing vertices
    transitively), each ascending, in order of their least edge: one vertex
    walk over ``g.incidence`` restricted to the set."""
    eids = sorted(eids)
    left = bytearray(g.m)  # 1 while an edge of the set is not yet reached
    for e in eids:
        left[e] = 1
    seen = bytearray(g.n)
    inc = g.incidence
    comps = []
    for start in eids:
        if not left[start]:
            continue
        comp: list[int] = []
        v = g.edges[start][0]
        seen[v] = 1
        stack = [v]
        while stack:
            for e, u in inc[stack.pop()]:
                if left[e]:
                    left[e] = 0
                    comp.append(e)
                    if not seen[u]:
                        seen[u] = 1
                        stack.append(u)
        comp.sort()
        comps.append(comp)
    return comps


def _component_vertices(g: Graph, comp: list[int]) -> list[int]:
    """The vertices of the edges ``comp``, ascending."""
    return sorted({v for e in comp for v in g.edges[e]})


def _component_graph(g: Graph, comp: list[int]) -> Graph:
    """The component with the ascending edges ``comp`` as a graph of its own,
    edge ``comp[j]`` as edge j, vertices renumbered in ascending order.  The
    decomposer's and the search's orders follow ids, which this keeps, so
    the component decides as it would inside ``g``, at its own size."""
    verts = _component_vertices(g, comp)
    index = {v: i for i, v in enumerate(verts)}
    edges = tuple((index[u], index[v]) for u, v in (g.edges[e] for e in comp))
    return Graph(len(verts), edges, g.multigraph)


def _pair_component(g: Graph, comp: list[int]) -> list[Element]:
    """Pair a connected even-size edge set, in ascending order, into 2-paths,
    sorted by their edges.

    Rooted spanning tree, vertices processed in reverse BFS order; each vertex
    pairs its unused edges locally, in ascending order, and pushes an odd
    leftover onto its parent tree edge.  Every pair meets at the vertex that
    paired it, which is the 2-path's center.  Only the root has no parent
    edge to take a leftover, and it has one exactly when the edge count is
    odd, so an even connected edge set is paired completely.
    """
    inc = g.incidence  # each row ascending; ``left`` restricts it to comp
    # sets and dicts, not arrays over all edges and vertices: a graph with
    # many components calls this once per component
    left = set(comp)  # edges not yet paired
    root = min(g.edges[e][0] for e in comp)
    parent_edge: dict[int, int | None] = {root: None}  # BFS tree, seen vertices
    order = [root]
    for v in order:  # grows while it is walked
        for e, u in inc[v]:
            if u not in parent_edge and e in left:
                parent_edge[u] = e
                order.append(u)
    pairs: list[tuple[int, int, int]] = []  # (edge, edge, center)
    for v in reversed(order):
        pe = parent_edge[v]
        a = None  # an unused edge at v still waiting for a partner
        for e, _ in inc[v]:
            if e in left and e != pe:
                if a is None:
                    a = e
                else:
                    left.remove(a)
                    left.remove(e)
                    pairs.append((a, e, v))
                    a = None
        if a is not None:
            if pe is None:
                raise GraphError(f"odd edge count {len(comp)} given to the 2-path pairing (bug)")
            left.remove(a)
            left.remove(pe)
            pairs.append((a, pe, v) if a < pe else (pe, a, v))
    pairs.sort()
    return [Element(TWO_PATH, (a, b), *_two_path_roles(g, (a, b), v)) for a, b, v in pairs]


def _decompose(g: Graph, build_odd) -> Decomposition:
    """Pair each even component into 2-paths by ``_pair_component``; hand each
    odd one to ``build_odd(g, comp)``, which returns its elements."""
    # the pairing may put two parallel edges together, which form no 2-path
    if g.multigraph and len(set(g.edges)) != g.m:
        raise GraphError("decomposition needs a simple graph")
    elements: list[Element] = []
    for comp in _edge_components(g, range(g.m)):
        elements.extend(build_odd(g, comp) if len(comp) % 2 else _pair_component(g, comp))
    return Decomposition(tuple(sorted(elements, key=attrgetter("edges"))))


def _reject_odd_component(g: Graph, comp: list[int]) -> list[Element]:
    raise DecompositionError(
        f"component on vertices {_component_vertices(g, comp)} has odd size {len(comp)}"
    )


# -- decomposability ----------------------------------------------------------


def non_decomposable_reason(g: Graph) -> str | None:
    """Why ``g`` has no locally irregular decomposition: "odd path", "odd
    cycle" or "member of T", for its first non-decomposable component in
    the order of ``Graph.components`` (by least vertex), isolated vertices
    skipped; None when every simple component decomposes.

    Baudon, Bensmail, Przybyło & Woźniak (European J. Combin. 49, 2015)
    show that the connected non-decomposable graphs are the odd paths, the
    odd cycles and the family T: a triangle, and any graph built from a
    member of T by attaching, at a triangle vertex of degree 2, a path with
    an even number of edges or an odd path that ends in a new triangle.  A
    connected graph of maximum degree 3 is in T iff its triangles are
    vertex-disjoint, it has n - 1 + #triangles edges, each degree-3 vertex
    lies on a triangle, and each maximal path of non-triangle edges leaving
    a triangle ends at a leaf after an even number of edges or at another
    triangle after an odd number.  Each of these graphs has a vertex of
    degree 1 or 2, so a graph with none is settled by one scan of its
    degrees.  Iterative, O(m + n log n).

    The theorem is for simple graphs, and the 2-cycle is not decomposable
    either.  A component with parallel edges is never flagged: it is the
    2-cycle, of even size, or it has a degree-3 vertex with a repeated
    neighbor, which the rule for T rejects.  So the answer is sound on a
    multigraph, and a None there leaves its components with parallel edges
    to the search."""
    deg = g.degrees
    if 1 not in deg and 2 not in deg:
        return None
    for comp in g.components():
        if not deg[comp[0]]:
            continue  # an isolated vertex has no edge to decompose
        top = max(deg[v] for v in comp)
        size = sum(deg[v] for v in comp) // 2
        if top <= 2 and size % 2:
            return "odd path" if size < len(comp) else "odd cycle"
        if top == 3 and _in_t(g, comp, size):
            return "member of T"
    return None


def _in_t(g: Graph, comp: tuple[int, ...], size: int) -> bool:
    """Whether the connected component with vertices ``comp``, ``size``
    edges and maximum degree 3 is in T, by the rule of
    ``non_decomposable_reason``."""
    if size > len(comp) - 1 + len(comp) // 3:
        return False  # more cycles than vertex-disjoint triangles fit
    deg, inc = g.degrees, g.incidence
    nbrs = {v: [u for _, u in inc[v]] for v in comp}
    on_triangle: dict[int, bool] = {}
    off: list[tuple[int, int]] = []  # (degree-3 triangle vertex, its neighbor off the triangle)
    for v in comp:
        nb = nbrs[v]
        # one adjacent pair of neighbors per triangle through v
        pairs = [(a, b) for i, a in enumerate(nb) for b in nb[i + 1 :] if b in nbrs[a]]
        if len(pairs) > 1 or (deg[v] == 3 and not pairs):
            return False  # two triangles meet at v, or v has degree 3 off every triangle
        on_triangle[v] = bool(pairs)
        if pairs and deg[v] == 3:
            off.append((v, next(u for u in nb if u not in pairs[0])))
    if size != len(comp) - 1 + sum(on_triangle.values()) // 3:
        return False  # a cycle that is not a triangle
    for prev, u in off:
        length = 1
        while deg[u] == 2 and not on_triangle[u]:
            a, b = nbrs[u]
            prev, u = u, (b if a == prev else a)
            length += 1
        # the walk stops at a leaf, which needs an even length, or at a
        # triangle, which needs an odd one
        if length % 2 != on_triangle[u]:
            return False
    return True


def two_path_decomposition(g: Graph) -> Decomposition:
    """Partition the edges into 2-paths, component by component."""
    return _decompose(g, _reject_odd_component)


# -- claw placements ----------------------------------------------------------


def _claw_trios(g: Graph):
    """Each center with three of its (edge, leaf) pairs at distinct leaves,
    in ascending (center, leaves) order, in the connected graph ``g``."""
    for center in range(g.n):
        for trio in combinations(sorted(g.incidence[center], key=lambda x: (x[1], x[0])), 3):
            if len({u for _, u in trio}) == 3:
                yield center, trio


def _claw_placements(g: Graph):
    """K_{1,3} edge triples of a connected graph, ascending (center, leaves)."""
    for _, trio in _claw_trios(g):
        yield tuple(sorted(e for e, _ in trio))


def _subdivided_claw_placements(g: Graph):
    """K_{1,3}'' edge quintuples of a connected graph, deterministic order.
    The six vertices are distinct, so each quintuple fixes the center, the
    direct leaf and both legs, and is yielded once."""
    inc = g.incidence
    for center, trio in _claw_trios(g):
        # pick the direct leaf; the other two legs get extended by one edge
        for ai in range(3):
            ea, a = trio[ai]
            (eb, b), (ec, c) = [trio[i] for i in range(3) if i != ai]
            for eb2, b2 in sorted(inc[b], key=lambda x: (x[1], x[0])):
                if b2 in (center, a, c):
                    continue
                for ec2, c2 in sorted(inc[c], key=lambda x: (x[1], x[0])):
                    if c2 not in (center, a, b, b2):
                        yield tuple(sorted((ea, eb, ec, eb2, ec2)))


def _component_colorable(g: Graph, elements: list[Element]) -> bool:
    """Can these elements be colored uniformly with at most 4 colors, locally
    irregular, with same-colored incident elements meeting only at vertices
    central for one of them?

    The subcubic colorer's routine decides on the subcubic component graph
    ``g``, counting into a throwaway ``SubcubicStats``: its loop proves a
    yes, and the exhaustive search decides where the loop fails."""
    from .constructive import SubcubicStats, _color_elements

    return _color_elements(g, Decomposition(tuple(elements)), SubcubicStats()) is not None


def _two_path_partitions(g: Graph, unused: list[int]):
    """All partitions of a sorted edge list into 2-paths, as lists of edge
    pairs, lazily, in deterministic order: the least unplaced edge is paired
    with each later unplaced edge sharing exactly one end with it, in list
    order, depth first.  Iterative, so any number of 2-paths fits."""
    ends = [set(g.edges[e]) for e in unused]
    n = len(unused)
    free = [True] * n
    placed: list[tuple[int, int]] = []  # positions in ``unused`` of each 2-path
    i = j = 0  # i: least free position; j: the last partner tried for it
    while True:
        if i == n:
            yield [(unused[a], unused[b]) for a, b in placed]
            j = n
        else:
            j += 1
            while j < n and not (free[j] and len(ends[i] & ends[j]) == 1):
                j += 1
        if j < n:
            free[i] = free[j] = False
            placed.append((i, j))
            while i < n and not free[i]:
                i += 1
            j = i
        elif placed:
            i, j = placed.pop()
            free[i] = free[j] = True
        else:
            return


def _claw_candidates(g: Graph, placements):
    """For each placement from ``placements(g)`` of the connected graph ``g``
    whose residual edge components are all even: the placed element, then
    the spanning-tree 2-paths of the residual."""
    for placement in placements(g):
        placed = set(placement)
        sub = _edge_components(g, [e for e in range(g.m) if e not in placed])
        if any(len(c) % 2 for c in sub):
            continue
        yield [Element.from_edges(g, placement)] + [el for c in sub for el in _pair_component(g, c)]


def _build_odd_component(g: Graph, comp: list[int]) -> list[Element]:
    """Decompose an odd-size component: one claw-type element plus 2-paths,
    chosen on the component's own graph and mapped back to ``g``'s ids.

    A component that ``non_decomposable_reason`` rejects has no
    decomposition at all, so it raises DecompositionError naming the reason
    before any claw is placed.  Plain claws are tried before any subdivided
    claw, so K_{1,3}'' appears only when unavoidable (the strong-pertinence
    certificate).  Among the shape-valid candidates of the admissible claw
    kind, the first whose elements admit a 4-color element-uniform coloring
    wins; not every pertinent decomposition does, so shape alone is not
    enough.  Only ``color_subcubic_4`` needs that coloring, so a component
    of maximum degree above 3, where the exact check can take exponential
    time, keeps its first candidate unchecked.
    """
    h = _component_graph(g, comp)
    reason = non_decomposable_reason(h)
    if reason is not None:
        raise DecompositionError(
            f"component on vertices {_component_vertices(g, comp)} is not decomposable: {reason}"
        )
    for placements in (_claw_placements, _subdivided_claw_placements):
        candidates = _claw_candidates(h, placements)
        first = next(candidates, None)
        if first is None:
            continue
        # when every placement of this claw kind is refutable, keep the first
        # shape anyway (strong pertinence fixes the claw kind, not the coloring)
        colorable = (c for c in chain([first], candidates) if _component_colorable(h, c))
        chosen = next(colorable, first) if max(h.degrees) <= 3 else first
        return [Element.from_edges(g, [comp[e] for e in el.edges]) for el in chosen]
    raise DecompositionError(
        f"component on vertices {_component_vertices(g, comp)} has no pertinent decomposition"
    )


def pertinent_decomposition(g: Graph) -> Decomposition:
    """A pertinent decomposition of a decomposable graph: spanning-tree 2-paths
    on even-size components, one claw-type element plus 2-paths on odd ones."""
    return _decompose(g, _build_odd_component)


def strongly_pertinent_decomposition(g: Graph) -> Decomposition:
    """Pertinent, with K_{1,3}'' only in components where a plain claw fails.

    The builder tries every plain-claw placement before any subdivided claw,
    which is exactly the avoidance certificate strong pertinence asks for.
    """
    return pertinent_decomposition(g)


def validate_decomposition(g: Graph, d: Decomposition, mode: str = "any") -> ValidationReport:
    """Check partition, element shapes, and per-component claw rules."""
    if mode not in ("any", "pertinent", "strongly_pertinent"):
        raise GraphError(f"unknown mode {mode!r}")
    failures = []
    covered: list[int] = []
    for el in d.elements:
        covered.extend(el.edges)
        try:
            shape = _shape(g, tuple(sorted(el.edges)))
        except DecompositionError as exc:
            failures.append(str(exc))
            continue
        if shape != (el.kind, el.central_vertices, el.pendant_vertices):
            failures.append(f"element {el.edges} mislabeled (kind/roles)")
    if sorted(covered) != list(range(g.m)):
        failures.append("elements do not partition the edge set")
    # with only 2-paths no component holds a claw-type element, so no
    # per-component rule can fail
    if (
        mode in ("pertinent", "strongly_pertinent")
        and not failures
        and any(el.kind != TWO_PATH for el in d.elements)
    ):
        comp_of: dict[int, int] = {}
        comps = _edge_components(g, range(g.m))
        for ci, comp in enumerate(comps):
            for e in comp:
                comp_of[e] = ci
        claws_per_comp: dict[int, list[Element]] = {}
        for el in d.elements:
            if el.kind != TWO_PATH:
                claws_per_comp.setdefault(comp_of[el.edges[0]], []).append(el)
        for ci, claws in claws_per_comp.items():
            if len(claws) > 1:
                failures.append(f"component {ci} has {len(claws)} claw-type elements")
        if mode == "strongly_pertinent":
            for ci, claws in claws_per_comp.items():
                if claws[0].kind != SUBDIVIDED_CLAW:
                    continue
                h = _component_graph(g, comps[ci])
                if next(_claw_candidates(h, _claw_placements), None) is not None:
                    failures.append(f"component {ci} uses K_{{1,3}}'' although a plain claw works")
    return ValidationReport(not failures, tuple(failures))


def enumerate_two_path_decompositions(g: Graph):
    """All partitions of the edge set into 2-paths, lazily, deterministic order."""
    for comp in _edge_components(g, range(g.m)):
        if len(comp) % 2:
            raise DecompositionError("odd-size component admits no 2-path decomposition")

    for pairs in _two_path_partitions(g, list(range(g.m))):
        els = tuple(Element.from_edges(g, pr) for pr in pairs)
        yield Decomposition(els)
