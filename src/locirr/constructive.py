"""Structure-driven colorers.

Each function here produces a locally irregular edge-coloring for a graph
class where a color bound is known: subcubic graphs with a strongly pertinent
decomposition (4 colors), fully subdivided multigraphs (2), balanced forests
(2), parity-constrained graphs (4, or 6 in the exceptional-size case), and
balanced bipartite graphs (4).  Proper edge-coloring (Vizing bound) is the
endgame primitive.  Fully subdivided multigraphs need no search: a local
rule colors them thread by thread (maximal walks through base vertices of
degree 2) in one linear pass.  Everything is verified before being returned.
The subcubic colorer runs no search: its peel-and-reinstate loop colors a
decomposition or the colorer raises GraphError naming the graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .decompose import TWO_PATH, Decomposition, validate_decomposition
from .graph import Graph, GraphError, fully_subdivide, write_graph6
from .irregularity import EdgeColoring, verify_coloring
from .solver import (
    COLORED,
    REFUTED,
    _Budget,
    _assignment_to_coloring,
    _search_levels,
    backtrack,
    _pair_rule,
    edge_order,
    shared_vertices,
)


def _verified(g: Graph, col: EdgeColoring, what: str) -> EdgeColoring:
    """``col`` once ``verify_coloring`` passes it on ``g``; GraphError, a
    bug in the colorer named by ``what``, otherwise."""
    if not verify_coloring(g, col).valid:
        raise GraphError(f"{what} failed local irregularity (bug)")
    return col


# -- parity machinery ---------------------------------------------------------


@dataclass(frozen=True)
class ParityPair:
    """A graph with a 0/1 vertex signature prescribing color-count parities."""

    graph: Graph
    signature: tuple[int, ...]

    def __post_init__(self):
        if len(self.signature) != self.graph.n:
            raise GraphError(
                f"signature has {len(self.signature)} entries for {self.graph.n} vertices"
            )
        if any(s not in (0, 1) for s in self.signature):
            raise GraphError("signature values must be 0 or 1")

    def violations(self) -> tuple[str, ...]:
        """Propriety check: (P1) 0-signed vertices have even degree; (P2) no
        component carries exactly one 1-signed vertex."""
        out = []
        deg = self.graph.degrees
        for v, s in enumerate(self.signature):
            if s == 0 and deg[v] % 2:
                out.append(f"(P1) vertex {v} has signature 0 but odd degree {deg[v]}")
        for comp in self.graph.components():
            ones = [v for v in comp if self.signature[v] == 1]
            if len(ones) == 1:
                out.append(
                    f"(P2) component {comp} has exactly one vertex of signature 1 ({ones[0]})"
                )
        return tuple(out)

    @property
    def is_proper(self) -> bool:
        return not self.violations()


@dataclass(frozen=True)
class Bipartition:
    """Vertex bipartition with the all-even-degrees side distinguished."""

    even_side: frozenset[int]
    other_side: frozenset[int]

    def violations(self, g: Graph) -> tuple[str, ...]:
        out = []
        if self.even_side & self.other_side:
            out.append("the two sides overlap")
        if self.even_side | self.other_side != frozenset(range(g.n)):
            out.append("the two sides do not cover the vertex set")
        for u, v in g.edges:
            if {u, v} <= self.even_side or {u, v} <= self.other_side:
                out.append(f"edge ({u},{v}) lies inside one side")
                break
        for v in sorted(self.even_side):
            if v < g.n and g.degrees[v] % 2:
                out.append(f"even-side vertex {v} has odd degree {g.degrees[v]}")
        return tuple(out)


def vertex_parity_color(p: ParityPair, k_max: int = 6) -> EdgeColoring:
    """Minimal-k edge coloring where, at every vertex v, each appearing color
    has an edge count of parity ``signature[v]``.

    Four colors suffice whenever the number of 1-signed vertices differs from
    3, six always; failures inside those bounds indicate a bug, not an input
    problem, so the search is exhaustive per k.
    """
    if k_max < 1:
        raise GraphError("k_max must be at least 1")
    bad = p.violations()
    if bad:
        raise GraphError(f"improper parity pair: {bad[0]}")
    g = p.graph
    if g.m == 0:
        return EdgeColoring((), 0)
    order = edge_order(g)
    for k in range(1, k_max + 1):
        col = _parity_search(g, order, p.signature, k)
        if col is not None:
            return col
    raise GraphError(f"no vertex-parity coloring with at most {k_max} colors")


def _parity_search(g: Graph, order, sig, k: int):
    cnt = [[0] * (k + 1) for _ in range(g.n)]
    rem = list(g.degrees)
    # number of appearing colors at v whose current parity disagrees with sig;
    # each further edge at v flips one color's parity, so wrong[v] <= rem[v]
    wrong = [0] * g.n

    def bump(x, c, delta):
        before = cnt[x][c]
        after = before + delta
        was = before > 0 and before % 2 != sig[x]
        now = after > 0 and after % 2 != sig[x]
        wrong[x] += now - was
        cnt[x][c] = after
        rem[x] -= delta

    def place(i, c):
        u, v = g.edges[order[i]]
        bump(u, c, 1)
        bump(v, c, 1)
        if wrong[u] <= rem[u] and wrong[v] <= rem[v]:
            return True
        unplace(i, c)
        return False

    def unplace(i, c):
        u, v = g.edges[order[i]]
        bump(u, c, -1)
        bump(v, c, -1)

    assignment, _ = backtrack(len(order), k, place, unplace)
    if assignment is None:
        return None
    return _assignment_to_coloring(g, [(e,) for e in order], assignment, k)


# -- balanced forests ---------------------------------------------------------


def color_balanced_forest_2(f: Graph, b: Bipartition) -> EdgeColoring:
    """2-color a balanced forest, monochromatically at each even-side vertex.

    Every edge of a balanced forest has exactly one even-side endpoint, so the
    even-side edge bundles partition the edges and the search space collapses
    to one color choice per bundle.
    """
    if f.m != f.n - len(f.components()):
        raise GraphError("input is not a forest")
    bad = b.violations(f)
    if bad:
        raise GraphError(f"invalid bipartition: {bad[0]}")
    if f.m == 0:
        return EdgeColoring((), 0)
    bundles = [
        tuple(e for e, _ in f.incidence[v]) for v in sorted(b.even_side) if f.incidence[v]
    ]
    rank = {e: i for i, e in enumerate(edge_order(f))}
    bundles.sort(key=lambda grp: min(rank[e] for e in grp))
    res = _search_levels(f, bundles, range(1, 3), None, None, REFUTED)
    if res.status != COLORED:
        raise GraphError("balanced forest refused a 2-color bundle coloring (bug)")
    return res.coloring


# -- proper edge coloring -----------------------------------------------------


def _exact_edge_color(g: Graph, k: int, budget: int):
    """Backtracking proper k-edge-coloring; None on refutation or once
    ``backtrack`` has tried more than ``budget`` colors."""
    order = edge_order(g)
    ends = [g.edges[e] for e in order]
    taken = [0] * g.n  # bit c set: color c is on an edge at the vertex

    def place(i, c):
        u, v = ends[i]
        bit = 1 << c
        if (taken[u] | taken[v]) & bit:
            return False
        taken[u] |= bit
        taken[v] |= bit
        return True

    def unplace(i, c):
        u, v = ends[i]
        taken[u] ^= 1 << c
        taken[v] ^= 1 << c

    try:
        assignment, _ = backtrack(len(order), k, place, unplace, budget)
    except _Budget:
        return None
    if assignment is None:
        return None
    return _assignment_to_coloring(g, [(e,) for e in order], assignment, k)


def proper_edge_color(g: Graph) -> EdgeColoring:
    """Proper edge coloring with at most max degree + 1 colors.

    A budgeted exact search tries to finish with max-degree colors first
    (class 1 graphs at desk scale); otherwise fan rotation with
    alternating-path inversion guarantees the +1 bound."""
    if g.multigraph and len(set(g.edges)) != g.m:
        raise GraphError("proper_edge_color requires a simple graph")
    if g.m == 0:
        return EdgeColoring((), 0)
    delta = max(g.degrees)
    exact = _exact_edge_color(g, delta, budget=200_000)
    if exact is not None:
        return exact
    kk = delta + 1
    ecol = [0] * g.m
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]  # color -> edge id

    def free(v):
        return next(c for c in range(1, kk + 1) if c not in at[v])

    def other(e, x):
        u, v = g.edges[e]
        return v if x == u else u

    def uncolor(e):
        c = ecol[e]
        if c:
            u, v = g.edges[e]
            del at[u][c]
            del at[v][c]
            ecol[e] = 0

    def set_color(e, c):
        uncolor(e)
        u, v = g.edges[e]
        ecol[e] = c
        at[u][c] = e
        at[v][c] = e

    def invert_path(start, first, second):
        """Flip colors along the maximal path from start alternating
        first/second; start has no first-colored edge afterwards iff it had one."""
        x, want = start, first
        path = []
        while True:
            e = at[x].get(want)
            if e is None:
                break
            path.append(e)
            x = other(e, x)
            want = first if want == second else second
        for e in path:
            uncolor(e)
        want = second
        for e in path:
            set_color(e, want)
            want = first if want == second else second

    for e0 in range(g.m):
        u, v0 = g.edges[e0]
        fan = [v0]
        fan_edges = [e0]
        used = {v0}
        while True:
            last = fan[-1]
            step = None
            for c in range(1, kk + 1):
                if c in at[last]:
                    continue
                e2 = at[u].get(c)
                if e2 is not None and other(e2, u) not in used:
                    step = e2
                    break
            if step is None:
                break
            w = other(step, u)
            fan.append(w)
            fan_edges.append(step)
            used.add(w)
        d = free(fan[-1])
        if d in at[u]:
            c = free(u)
            invert_path(u, d, c)
        # rotate the longest fan prefix that still ends at a d-free vertex
        cut = None
        for j in range(len(fan) - 1, -1, -1):
            # rotating the prefix shifts each fan edge's color one step down,
            # so every shifted color must be absent at its receiving vertex
            if d not in at[fan[j]] and all(
                ecol[fan_edges[i + 1]] not in at[fan[i]] for i in range(j)
            ):
                cut = j
                break
        if cut is None:
            raise GraphError("fan rotation failed (bug)")
        shift = [ecol[fan_edges[i + 1]] for i in range(cut)]
        for i in range(cut, -1, -1):
            uncolor(fan_edges[i])
        for i in range(cut):
            set_color(fan_edges[i], shift[i])
        set_color(fan_edges[cut], d)
    col = EdgeColoring(tuple(ecol), kk)
    for v in range(g.n):
        seen = [ecol[e] for e, _ in g.incidence[v]]
        if len(seen) != len(set(seen)):
            raise GraphError(f"fan rotation gave two edges at vertex {v} one color (bug)")
    return col


# -- fully subdivided multigraphs ---------------------------------------------


def color_fully_subdivided_2(g_base: Graph) -> EdgeColoring:
    """2-color the full subdivision of a loopless multigraph, none of whose
    components is an odd cycle (odd cycles are the sole obstruction), in one
    linear pass over threads.

    Base edge e = (u, v) becomes halves 2e at u and 2e+1 at v.  Its
    subdivision vertex has a c-count of 2 when e is monochromatic and 1 when
    e is split, so a half of color c at base vertex x is safe iff x's c-count
    is not 2 (e monochromatic) and not 1 (e split); nothing else constrains
    the coloring.  A thread is a maximal walk through base vertices of
    degree 2.

    - Every half at a vertex of degree >= 3 gets color 1: the 1-count there
      is at least 3, so each is safe.
    - A leaf's half is safe iff its edge is monochromatic.
    - A degree-2 vertex is safe iff both its edges are split with one color
      there, or both are monochromatic with two colors.  So each thread is
      all-split or all-monochromatic, and its colors alternate along it.
    - A thread between two ends of degree >= 3 (possibly the same vertex)
      starts with color 1 and must end with it.  Split (1|2, 2|1, ...), its
      last far half is 1 iff it has an even number of edges; monochromatic
      (1, 2, ..., 1), its last edge is 1 iff the number is odd.  One of the
      two always applies.
    - A thread with a leaf end is monochromatic, alternating from its other
      end, which fixes color 1 there if that end has degree >= 3.
    - A component that is a cycle has no thread end; its monochromatic edges
      alternate, which closes up iff its length is even.  A split cycle
      would alternate vertex colors and needs the same parity, so an odd
      cycle has no 2-coloring at all and raises ``GraphError``.
    """
    deg = g_base.degrees
    colors = [0] * (2 * g_base.m)
    # threads from vertices of degree >= 3 first, then from leaves; what is
    # left after those is a union of cycle components
    for start in sorted(range(g_base.n), key=lambda v: (deg[v] < 3, deg[v])):
        for e, _ in g_base.incidence[start]:
            if colors[2 * e]:
                continue
            halves = []  # per thread edge, its half where the walk enters it
            v = start
            while True:
                u, w = g_base.edges[e]
                halves.append(2 * e + (v == w))
                v = u if v == w else w
                if deg[v] != 2 or v == start:
                    break
                e = next(f for f, _ in g_base.incidence[v] if f != e)
            if deg[start] == 2 and len(halves) % 2:
                raise GraphError(f"base component is an odd cycle of length {len(halves)}")
            split = deg[start] >= 3 and deg[v] >= 3 and len(halves) % 2 == 0
            for i, h in enumerate(halves):
                c = 1 + i % 2
                colors[h] = c
                colors[h ^ 1] = 3 - c if split else c
    k = 2 if any(c == 2 for c in colors) else (1 if colors else 0)
    return _verified(fully_subdivide(g_base), EdgeColoring(tuple(colors), k), "thread coloring")


# -- balanced bipartite graphs --------------------------------------------------


def _cycle_run_coloring(g: Graph) -> EdgeColoring:
    """3-color a cycle of length 4k+2 as runs 11 22 ... 11 22 33: every color
    class is a disjoint union of 2-paths."""
    if not g.is_cycle() or g.m % 4 != 2:
        raise GraphError("run pattern applies to cycles of length 4k+2 only")
    colors = [0] * g.m
    v, prev_e = 0, None
    for i in range(g.m):
        e = next(e for e, _ in g.incidence[v] if e != prev_e and colors[e] == 0)
        colors[e] = 3 if i >= g.m - 2 else 1 + (i // 2) % 2
        v = g.edges[e][0] if g.edges[e][1] == v else g.edges[e][1]
        prev_e = e
    return _verified(g, EdgeColoring(tuple(colors), 3), "cycle run pattern")


def color_balanced_4(g: Graph, b: Bipartition) -> EdgeColoring:
    """4-color a connected bipartite graph whose even_side has all even
    degrees.

    With other_side size different from 3 a vertex-parity coloring (0 on the
    even side, 1 elsewhere) is locally irregular outright, since every edge
    then joins an even count to an odd one.  With exactly 3 vertices on the
    other side, every even-side vertex, none isolated in a connected graph,
    must have exactly 2 edges, to 2 distinct neighbors; this always holds in
    a simple graph, and a multigraph that breaks it raises GraphError.  The
    graph is then the full subdivision of a multigraph on the 3 other-side
    vertices; the subdivision colorer finishes, except when that multigraph
    is a triangle (g is then a 6-cycle) and the run pattern is used instead.
    """
    bad = b.violations(g)
    if bad:
        raise GraphError(f"not a balanced bipartition: {bad[0]}")
    if not g.is_connected():
        raise GraphError("color_balanced_4 expects a connected graph")
    others = sorted(b.other_side)
    if len(others) != 3:
        sig = tuple(0 if v in b.even_side else 1 for v in range(g.n))
        return _verified(g, vertex_parity_color(ParityPair(g, sig), 4), "parity coloring")
    # g fully subdivides a multigraph H on the other side
    idx = {v: i for i, v in enumerate(others)}
    base_edges = []
    owners = []
    for w in sorted(b.even_side):
        nb = g.neighbors(w)
        if g.degrees[w] != 2 or len(nb) != 2:
            raise GraphError(
                f"even-side vertex {w} has {g.degrees[w]} edges to {len(nb)} distinct"
                " neighbors; with 3 other-side vertices it needs 2 edges to 2"
            )
        base_edges.append((idx[nb[0]], idx[nb[1]]))
        owners.append(w)
    h = Graph(3, tuple(base_edges), multigraph=True)
    if h.is_cycle() and h.m % 2:
        return _cycle_run_coloring(g)
    col_s = color_fully_subdivided_2(h)
    colors = [0] * g.m
    for e, w in enumerate(owners):
        # half 2e of h's edge e sits at others[h.edges[e][0]], half 2e + 1
        # at the other end; w's two edges go to those two vertices
        first = others[h.edges[e][0]]
        for f, u in g.incidence[w]:
            colors[f] = col_s.colors[2 * e + (u != first)]
    return _verified(g, EdgeColoring(tuple(colors), col_s.k), "subdivision route")


# -- subcubic 4-coloring --------------------------------------------------------


@dataclass
class SubcubicStats:
    """Which extension rules fired while coloring."""

    # nothing counts direct, swaps, pair_removal or fallbacks any more; they
    # stay, always 0 and in this order, because the benchmark reports one
    # constructive.rule.<field> metric per field and the pipeline digest
    # hashes the fields
    free_color: int = 0
    direct: int = 0
    recolor: int = 0
    swaps: int = 0
    pair_removal: int = 0
    endgame: int = 0
    base_cases: int = 0
    fallbacks: int = 0


def _element_failures(els, rule, colors) -> list[str]:
    """The failures ``element_properties_ok`` reports, given ``rule``, the
    pair rule ``_pair_rule(els, shared_vertices(els))``: each element that
    is not monochromatic, then each vertex of ``rule`` at which two
    same-colored elements meet, pairs and vertices ascending."""
    failures = []
    for el in els:
        cs = {colors[e] for e in el.edges}
        if len(cs) != 1:
            failures.append(f"element {el.edges} is not monochromatic: colors {sorted(cs)}")
    for (i, j), bad in rule.items():
        a, b = els[i], els[j]
        if colors[a.edges[0]] == colors[b.edges[0]]:
            for v in bad:
                failures.append(
                    f"same-colored elements {a.edges} and {b.edges} meet at non-central vertex {v}"
                )
    return failures


def element_properties_ok(
    g: Graph, d: Decomposition, col: EdgeColoring
) -> tuple[bool, tuple[str, ...]]:
    """Check element-uniformity and the central-incidence rule: two incident
    elements of the same color may only meet at vertices central for one."""
    els = d.elements
    failures = _element_failures(els, _pair_rule(els, shared_vertices(els)), col.colors)
    return (not failures, tuple(failures))


def color_subcubic_4(
    g: Graph,
    d: Decomposition,
    stats: SubcubicStats | None = None,
    trace: list | None = None,
) -> EdgeColoring:
    """Element-uniform 4-coloring of a subcubic graph from a strongly
    pertinent decomposition, by ``_color_elements``; GraphError naming the
    graph by its graph6 line when that loop fails, which it never did on a
    decomposition the decomposer built (see ``_build_odd_component``)."""
    if max(g.degrees, default=0) > 3:
        raise GraphError("color_subcubic_4 requires maximum degree at most 3")
    report = validate_decomposition(g, d, mode="strongly_pertinent")
    if not report.valid:
        raise GraphError(f"decomposition is not strongly pertinent: {report.failures[0]}")
    col = _color_elements(g, d, SubcubicStats() if stats is None else stats, trace)
    if col is None:
        raise GraphError(f"the coloring loop failed on this decomposition of {write_graph6(g)}")
    return col


def _color_elements(
    g: Graph, d: Decomposition, stats: SubcubicStats, trace: list | None = None
) -> EdgeColoring | None:
    """A verified element-uniform 4-coloring of the pertinent decomposition
    ``d`` of the subcubic graph ``g``, or None when a peeled 2-path cannot
    be reinstated.  The subcubic colorer and the decomposer's check both run
    it; it runs no search.

    One iterative loop over one coloring, in two phases.  Peeling removes the
    2-path with the fewest remaining incident elements, again and again,
    until the base case applies (at most 4 edges or no 2-path left) or the
    endgame does: when every remaining element is a 2-path centered at a
    vertex of remaining degree 2, a proper coloring of the contracted base
    colors them all at once.  The base case colors the remaining elements by
    first fit, in index order, and cannot fail.  At most 4 edges with a
    2-path left is one or two 2-paths: the first takes color 1, the second
    color 1 or else 2, since a 2-path alone in its class is locally
    irregular and clashes with nothing.  With no 2-path left only claw-type
    elements remain, at most one per edge component of a pertinent
    decomposition, so they are pairwise vertex-disjoint and each takes
    color 1.  Reinstating then brings the peeled 2-paths back in reverse
    order, each by the first of two rules that applies: a color free of its
    neighborhood, or recoloring one incident element.  Every rule checks
    local irregularity and the central pair rule only at the vertices of
    the elements it changed.
    """
    els = d.elements
    rule = _pair_rule(els, shared_vertices(els))  # the one pair rule table of this coloring
    near: list[list[int]] = [[] for _ in els]  # incident elements, ascending
    clash: list[list[int]] = [[] for _ in els]  # incident, may not share a color
    for (i, j), bad in rule.items():
        near[i].append(j)
        near[j].append(i)
        if bad:
            clash[i].append(j)
            clash[j].append(i)
    # per-element arrays: vertices, edges, edge ends, 2-path flag, first center
    verts = [el.vertices for el in els]
    edges = [el.edges for el in els]
    ends = [[v for e in el.edges for v in g.edges[e]] for el in els]
    is_path = [el.kind == TWO_PATH for el in els]
    center = [el.central_vertices[0] for el in els]
    el_of = [0] * g.m
    for i, el_edges in enumerate(edges):
        for e in el_edges:
            el_of[e] = i
    inc = g.incidence
    color = [0] * len(els)  # 0 while uncolored
    cnt = [[deg, 0, 0, 0, 0] for deg in g.degrees]  # cnt[v][c]: c-colored edges at v

    def log(msg, *args):
        # formats only when traced: the free-color line is logged per element
        if trace is not None:
            trace.append(msg % args)

    def paint(i, c):
        old = color[i]
        color[i] = c
        for v in ends[i]:
            cv = cnt[v]
            cv[old] -= 1
            cv[c] += 1

    def fits(i) -> bool:
        """Whether the coloring, valid before element ``i`` was repainted,
        is still valid: only the pairs with ``i`` under the central pair
        rule and the edges at ``i``'s vertices can have broken."""
        ci = color[i]
        for j in clash[i]:
            if color[j] == ci:
                return False
        for v in verts[i]:
            cv = cnt[v]
            for e, w in inc[v]:
                c = color[el_of[e]]
                if c and cv[c] == cnt[w][c]:
                    return False
        return True

    # -- peel ----------------------------------------------------------------
    active = [True] * len(els)
    conf = [len(nb) for nb in near]  # incident elements still active
    live = list(g.degrees)  # active edges at each vertex
    left_edges = g.m
    left_paths = sum(is_path)
    # active elements that keep the endgame from applying: claws, and
    # 2-paths whose center has another active edge
    blocking = 0
    for i in range(len(els)):
        if not is_path[i] or live[center[i]] != 2:
            blocking += 1

    # the heap pops the 2-path of fewest conflicts, ties by (center, edges,
    # index).  ``rank`` is each 2-path's place in that tie order, so the pair
    # (conflicts, rank) orders the heap; an entry packs it into the one int
    # conflicts * paths + rank, and is stale once the conflicts have moved
    by_rank = sorted(
        (i for i in range(len(els)) if is_path[i]), key=lambda i: (center[i], edges[i])
    )
    paths = len(by_rank)
    rank = [0] * len(els)
    for r, i in enumerate(by_rank):
        rank[i] = r
    heap = [conf[i] * paths + rank[i] for i in by_rank]
    heapq.heapify(heap)

    def base_case(rest):
        # nothing else is colored yet, so each element's first fit is judged
        # against the earlier ones alone, and color 2 at the latest fits
        for i in rest:
            for c in range(1, 5):
                paint(i, c)
                if fits(i):
                    break
        stats.base_cases += 1
        log("base case on %d elements", len(rest))

    def endgame(rest) -> bool:
        base_verts = sorted({v for i in rest for v in els[i].pendant_vertices})
        bidx = {v: k for k, v in enumerate(base_verts)}
        bedges = [tuple(bidx[v] for v in els[i].pendant_vertices) for i in rest]
        if len(set(bedges)) != len(bedges):
            return False  # parallel base edges: proper colorer does not apply
        # no other active element touches a center, and each base vertex
        # ends at most 3 of these 2-paths: the base is simple and subcubic,
        # so fan rotation needs at most 4 colors, and each color class then
        # reads 2 at a center and 1 at each pendant
        pc = proper_edge_color(Graph(len(base_verts), tuple(bedges)))
        for i, c in zip(rest, pc.colors):
            paint(i, c)
        stats.endgame += 1
        log("endgame: proper coloring of the contracted base")
        return True

    peeled = []
    while left_edges:
        if left_edges <= 4 or not left_paths:
            base_case([i for i in range(len(els)) if active[i]])
            break
        if not blocking and endgame([i for i in range(len(els)) if active[i]]):
            break
        while True:  # skip stale entries
            c, r = divmod(heapq.heappop(heap), paths)
            p = by_rank[r]
            if active[p] and c == conf[p]:
                break
        touched = [j for j in near[p] if active[j]]
        # live counts drop at p's vertices alone, so only p (leaving) and the
        # active 2-paths incident to it can change their blocking status
        for j in (p, *touched):
            if is_path[j] and live[center[j]] != 2:
                blocking -= 1
        active[p] = False
        for v in ends[p]:
            live[v] -= 1
        for j in touched:
            conf[j] -= 1
            if is_path[j]:
                if live[center[j]] != 2:
                    blocking += 1
                heapq.heappush(heap, conf[j] * paths + rank[j])
        left_edges -= 2
        left_paths -= 1
        peeled.append(p)

    # -- reinstate -----------------------------------------------------------
    def place(p) -> bool:
        taken = [False] * 5  # taken[c]: an incident element has color c
        for j in near[p]:
            taken[color[j]] = True
        for c in range(1, 5):
            if not taken[c]:
                # an element with no same-colored incident element is alone
                # in its class around its own vertices, hence fits
                paint(p, c)
                stats.free_color += 1
                log("free-color %d for element %d", c, p)
                return True
        return False

    def reinstate(p) -> bool:
        if place(p):
            return True
        colored = [j for j in near[p] if color[j]]
        for j in colored:
            old = color[j]
            for c in range(1, 5):
                if c != old:
                    paint(j, c)
                    if fits(j) and place(p):
                        stats.recolor += 1
                        log("recolor element %d -> %d", j, c)
                        return True
            paint(j, old)
        return False

    if not all(map(reinstate, reversed(peeled))):
        return None
    col = EdgeColoring(tuple(color[i] for i in el_of), max(color, default=0))
    _verified(g, col, "subcubic coloring")
    failures = _element_failures(els, rule, col.colors)
    if failures:
        raise GraphError(f"subcubic coloring broke an element property: {failures[0]} (bug)")
    return col
