"""Exact search for locally irregular edge-colorings.

One explicit-stack engine, ``backtrack``, runs every exact search in the
package: it assigns colors to positions in canonical color order through
caller-supplied ``place``/``unplace`` hooks, counts one node per placement
attempt, and raises ``_Budget`` past the node budget.  Its per-node loop
makes no builtin calls (the color bounds are plain comparisons) and compares
the count with an int cap, ``sys.maxsize`` when there is no budget.
``search_groups`` puts the locally irregular coloring search on top of it:
positions are *groups* of edges (single edges for chi_irr, whole
decomposition elements for element-uniform search, vertex bundles for the
balanced-forest colorer).  Pruning is by closure: once every active edge at
both endpoints of an edge is colored, the equal-degree test for that edge is
final and can cut the branch.  The position that completes a vertex depends
only on the group order, so ``search_groups`` fixes each edge's test at one
position when the search is built, in the same pass that lists each
position's edges, and a placement checks only the edges listed there; a
placement that fails a check undoes its counts in place.  Every search
branches in ``edge_order``, a greedy vertex-completion order (maximum
cardinality search, ties to the vertex with the fewest edges left, then to
the one on the most triangles; each component started at its vertex of
highest degree, most triangles first), so vertices become complete and
triangles close early and closure cuts a bad branch soon after it is made;
searches over decomposition elements, the subcubic colorer's exhaustive
fallback included, take the elements in ``in_edge_order``, by their first
edge in that order.  The parity and proper edge-coloring searches in
``constructive`` use the engine with their own hooks.  ``chi_irr`` searches
up to floor(m/2) colors, the bound past which no coloring can exist, unless
given a smaller ``k_max``.  A node budget given to ``chi_irr`` covers the
whole call, all k together.  Two answers take no search: k = 1 works iff
the graph is locally irregular, and a simple graph has no coloring at all
iff an edge component is an odd path, an odd cycle or a member of the
triangle family T (Baudon, Bensmail, Przybyło & Woźniak, European J.
Combin. 49, 2015; ``decompose.non_decomposable_reason``, which never
flags a component with parallel edges, so multigraphs stay exact).
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass

from .decompose import non_decomposable_reason, validate_decomposition
from .graph import Graph, GraphError
from .irregularity import EdgeColoring, is_locally_irregular, verify_coloring

COLORED = "colored"
REFUTED = "refuted"
NOT_DECOMPOSABLE = "not_decomposable"
EXCEEDED_BUDGET = "exceeded_budget"


@dataclass(frozen=True)
class SolveResult:
    status: str
    k: int | None
    coloring: EdgeColoring | None
    nodes: int


class _Budget(Exception):
    """Raised by ``backtrack`` once its node count passes the budget."""


def edge_order(g: Graph) -> list[int]:
    """Branching order by greedy vertex completion, triangles first.  The
    start key of a vertex is (most edges, most triangles, least index); the
    components are taken in the order of their first vertex by that key, each
    started at that vertex.  A taken vertex emits its edges not yet emitted,
    in ``g.incidence`` order.  The next vertex taken is the one with the most
    edges emitted, ties going to the fewest edges left, then to the most
    triangles and then to the least index: maximum cardinality search (Tarjan
    & Yannakakis 1984) with a tie-break that completes vertices, and closes
    triangles, soon.

    A vertex is complete once all its edges are emitted, so the closure
    check in ``search_groups`` judges each edge a few positions after the
    search reaches it, not deep in the search.  On a regular graph the edge
    counts never decide, and the triangles do.  A lazy heap keeps the order
    O(m log m), without recursion."""
    masks = g.adjacency_masks
    # -2 x each vertex's triangles (a triangle counts at both its edges at
    # the vertex); negative, so that more triangles sort first
    tri = [0] * g.n
    for u, v in g.edges:
        t = (masks[u] & masks[v]).bit_count()
        tri[u] -= t
        tri[v] -= t
    inc = g.incidence
    emitted = [False] * g.m
    taken = [False] * g.n
    got = [0] * g.n  # edges emitted at each vertex
    order = []
    for s in sorted(range(g.n), key=lambda v: (-len(inc[v]), tri[v], v)):
        if taken[s]:
            continue
        heap = [(0, 0, 0, s)]
        while heap:
            v = heapq.heappop(heap)[3]
            if taken[v]:
                continue  # an older entry: the vertex's latest one came first
            taken[v] = True
            for e, u in inc[v]:
                if not emitted[e]:
                    emitted[e] = True
                    order.append(e)
                    got[u] += 1  # u is not taken: it would have emitted e
                    heapq.heappush(heap, (-got[u], len(inc[u]) - got[u], tri[u], u))
    return order


def backtrack(n: int, k: int, place, unplace, node_budget: int | None = None):
    """Assign colors 1..k to positions 0..n-1 by depth-first search on an
    explicit stack, in canonical color order: colors are tried in increasing
    order, and a position may open at most one color beyond those used before
    it, so no two assignments differ only by renaming colors.

    ``place(i, c)`` says whether color c fits position i after positions
    0..i-1, and leaves no trace when it says no; ``unplace(i, c)`` undoes an
    accepted placement.  Each ``place`` call counts one node; _Budget is
    raised once the count passes ``node_budget``.  Returns
    (assignment | None, nodes).
    """
    cap = sys.maxsize if node_budget is None else node_budget
    assign = [0] * n
    top = [0] * (n + 1)  # top[i]: highest color used by positions before i
    nodes = 0
    i = 0
    # the loop is the cost of every node: plain comparisons, no builtin calls
    while i < n:
        c = assign[i]
        if c:
            unplace(i, c)
        t = top[i]
        hi = t + 1 if t < k else k
        while c < hi:
            c += 1
            nodes += 1
            if nodes > cap:
                raise _Budget
            if place(i, c):
                assign[i] = c
                top[i + 1] = c if c > t else t
                i += 1
                break
        else:
            assign[i] = 0
            if i == 0:
                return None, nodes
            i -= 1
    return assign, nodes


def search_groups(
    g: Graph,
    groups: list[tuple[int, ...]],
    k: int,
    pair_ok: dict[tuple[int, int], bool] | None = None,
    node_budget: int | None = None,
):
    """Find a coloring with colors 1..k constant on each group, every color
    class locally irregular on the union of the groups' edges.

    ``pair_ok[(i, j)]`` (i < j, incident groups) says whether groups i and j
    may share a color.  Returns (assignment | None, nodes) from ``backtrack``;
    raises _Budget when the node budget runs out.
    """
    edges = g.edges
    cnt = [[0] * (k + 1) for _ in range(g.n)]
    ecolor = [0] * g.m
    # closure: an edge is final once every active edge at both its endpoints
    # is colored.  The position that completes a vertex is the last one with
    # an edge at it, so each edge's check is fixed here, at the later of its
    # endpoints' completing positions.
    last = [0] * g.n
    for gi, grp in enumerate(groups):
        for e in grp:
            u, v = edges[e]
            last[u] = last[v] = gi
    ends: list[list] = []  # (edge, cnt rows of its ends) per position
    closing: list[list] = [[] for _ in groups]  # edges judged at each position
    for grp in groups:
        row = []
        for e in grp:
            u, v = edges[e]
            entry = (e, cnt[u], cnt[v])
            row.append(entry)
            lu, lv = last[u], last[v]
            closing[lu if lu > lv else lv].append(entry)
        ends.append(row)
    # pair rule: first edges of the incident earlier groups that may not
    # share this group's color
    barred: list[tuple[int, ...]] = [()] * len(groups)
    if pair_ok is not None:
        for (i, j), ok in pair_ok.items():
            if not ok:
                barred[j] += (groups[i][0],)

    def place(gi: int, c: int) -> bool:
        for f in barred[gi]:
            if ecolor[f] == c:
                return False
        row = ends[gi]
        for e, cu, cv in row:
            ecolor[e] = c
            cu[c] += 1
            cv[c] += 1
        for f, cu, cv in closing[gi]:
            d = ecolor[f]
            if cu[d] == cv[d]:
                for _, cu, cv in row:  # undone in place, without a call
                    cu[c] -= 1
                    cv[c] -= 1
                return False
        return True

    def unplace(gi: int, c: int):
        # ecolor keeps the stale color: it is read only for placed groups
        for _, cu, cv in ends[gi]:
            cu[c] -= 1
            cv[c] -= 1

    return backtrack(len(groups), k, place, unplace, node_budget)


def in_edge_order(g: Graph, elements) -> list:
    """``elements`` sorted by the least ``edge_order`` position of their
    edges: the branching order of every element-uniform search."""
    rank = {e: i for i, e in enumerate(edge_order(g))}
    return sorted(elements, key=lambda el: min(rank[e] for e in el.edges))


def shared_vertices(elements) -> dict[tuple[int, int], list[int]]:
    """The pair table of decomposition elements, indexed in list order:
    ``(i, j) -> shared`` for each pair i < j that shares a vertex, pairs
    ascending, ``shared`` the ascending list of their shared vertices.  One
    vertex-to-elements index gives each element its later partners."""
    verts = [el.vertices for el in elements]
    at: dict[int, list[int]] = {}  # vertex -> its elements, ascending
    for i, vs in enumerate(verts):
        for v in vs:
            if v in at:
                at[v].append(i)
            else:
                at[v] = [i]
    table: dict[tuple[int, int], list[int]] = {}
    for i, vs in enumerate(verts):
        later: dict[int, list[int]] = {}  # j > i -> shared vertices, ascending
        for v in vs:
            for j in at[v]:
                if j > i:
                    if j in later:
                        later[j].append(v)
                    else:
                        later[j] = [v]
        for j in sorted(later):
            table[(i, j)] = later[j]
    return table


def central_pair_ok(elements) -> dict[tuple[int, int], bool]:
    """The central-vertex pair rule as ``pair_ok`` for ``search_groups`` over
    decomposition elements, indexed in list order, keys ascending: the
    boolean view of ``_pair_rule``."""
    return {pair: not bad for pair, bad in _pair_rule(elements, shared_vertices(elements)).items()}


def _pair_rule(elements, table) -> dict[tuple[int, int], list[int]]:
    """The central-vertex pair rule, read off the pair table
    ``shared_vertices(elements)``: for each incident pair, the vertices it
    shares that are central for neither element, ascending.  Two incident
    elements may share a color only if that list is empty."""
    out = {}
    for (i, j), vs in table.items():
        ci, cj = elements[i].central_vertices, elements[j].central_vertices
        out[(i, j)] = [v for v in vs if v not in ci and v not in cj]
    return out


def _assignment_to_coloring(g: Graph, groups, assignment, k) -> EdgeColoring:
    colors = [0] * g.m
    for grp, c in zip(groups, assignment):
        for e in grp:
            colors[e] = c
    return EdgeColoring(tuple(colors), k)


def _colored(g: Graph, col: EdgeColoring, nodes: int) -> SolveResult:
    """COLORED with ``col``, once ``verify_coloring`` accepts it."""
    if not verify_coloring(g, col).valid:
        raise GraphError("exact search returned an invalid coloring (bug)")
    return SolveResult(COLORED, col.k, col, nodes)


def _search_levels(
    g: Graph, groups, levels: range, pair_ok, node_budget: int | None, exhausted: str
) -> SolveResult:
    """Search each k of ``levels`` in order; ``node_budget`` covers all
    levels together.  Every level refuted gives status ``exhausted``."""
    spent = 0
    for k in levels:
        left = None if node_budget is None else node_budget - spent
        try:
            assignment, nodes = search_groups(g, groups, k, pair_ok=pair_ok, node_budget=left)
        except _Budget:
            # the overrunning level counted left + 1 nodes before raising
            return SolveResult(EXCEEDED_BUDGET, None, None, node_budget + 1)
        spent += nodes
        if assignment is not None:
            return _colored(g, _assignment_to_coloring(g, groups, assignment, k), spent)
    return SolveResult(exhausted, None, None, spent)


def check_budget(node_budget: int | None) -> None:
    """Raise GraphError for a negative node budget; 0 allows no node."""
    if node_budget is not None and node_budget < 0:
        raise GraphError(f"node budget must be nonnegative, got {node_budget}")


def chi_irr(g: Graph, k_max: int | None = None, node_budget: int | None = None) -> SolveResult:
    """Exact locally irregular chromatic index; ``node_budget`` bounds the
    search nodes of the whole call.

    One color works iff ``g`` is locally irregular, answered with 0 nodes.
    A graph with an edge component that ``non_decomposable_reason`` rejects
    (an odd path, an odd cycle or a member of T; Baudon, Bensmail, Przybyło
    & Woźniak 2015) has no coloring at all, and gets with 0 nodes the status
    the exhausted search would give.  Any other graph, a multigraph's
    components with parallel edges included, is searched at k = 2, 3, ...
    in order.  Every nonempty locally irregular class has at least 2 edges,
    so floor(m/2) colors suffice whenever any coloring exists:
    ``k_max=None`` means that bound, and exhausting it gives
    NOT_DECOMPOSABLE; a smaller ``k_max`` exhausted gives REFUTED."""
    if k_max is not None and k_max < 1:
        raise GraphError("k_max must be at least 1")
    check_budget(node_budget)
    if g.m == 0:
        return SolveResult(COLORED, 0, EdgeColoring((), 0), 0)
    if is_locally_irregular(g):
        return _colored(g, EdgeColoring((1,) * g.m, 1), 0)
    bound = g.m // 2
    exhausted = NOT_DECOMPOSABLE if k_max is None or k_max >= bound else REFUTED
    if non_decomposable_reason(g) is not None:
        return SolveResult(exhausted, None, None, 0)
    groups = [(e,) for e in edge_order(g)]
    top = bound if exhausted == NOT_DECOMPOSABLE else k_max
    return _search_levels(g, groups, range(2, top + 1), None, node_budget, exhausted)


def element_uniform_search(
    g: Graph, d, k_max: int, enforce_property_ii: bool = True
) -> SolveResult:
    """Search colorings constant on each decomposition element.

    With ``enforce_property_ii``, two incident elements may share a color only
    if every vertex they share is central for one of them.
    """
    report = validate_decomposition(g, d, mode="any")
    if not report.valid:
        raise GraphError(f"invalid decomposition: {report.failures[0]}")
    els = in_edge_order(g, d.elements)
    groups = [el.edges for el in els]
    pair_ok = central_pair_ok(els) if enforce_property_ii else None
    return _search_levels(g, groups, range(1, k_max + 1), pair_ok, None, REFUTED)
