"""Independent reference implementations used as test oracles.

Nothing here shares code with the package beyond the Graph container; every
check is a direct transcription of the relevant definition.  Two are
earlier, slower forms of package code.  ``reference_refine`` is the
earlier partition refinement, which splits every cell by every splitter and
refines to the end.  The reference enumerator at the end is the earlier
rejection order of the canonical construction path, run on the package's
labeler, with each child's bipartite test by ``Graph.bipartition``.  The
reference closure search runs on ``reference_backtrack``, a recursive search
of its own, so the package's engine is checked against independent code.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

import networkx as nx

from locirr.enumerate import _masks_to_graph
from locirr.graph import Graph, canon_adjacency, root_partition
from locirr.solver import _Budget


def to_nx(g: Graph) -> nx.Graph:
    h = nx.MultiGraph() if g.multigraph else nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def isomorphic(a: Graph, b: Graph) -> bool:
    return nx.is_isomorphic(to_nx(a), to_nx(b))


def naive_valid(g: Graph, colors) -> bool:
    """Definition check: no edge joins endpoints of equal degree in its class."""
    cnt: list[dict[int, int]] = [{} for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        c = colors[e]
        cnt[u][c] = cnt[u].get(c, 0) + 1
        cnt[v][c] = cnt[v].get(c, 0) + 1
    return all(cnt[u][colors[e]] != cnt[v][colors[e]] for e, (u, v) in enumerate(g.edges))


def naive_chi_irr(g: Graph) -> int | None:
    """Exhaustive chromatic index over all k^m colorings, None when no valid
    coloring exists up to the sound floor(m/2) bound (each nonempty class
    needs at least two edges)."""
    if g.m == 0:
        return 0
    for k in range(1, g.m // 2 + 1):
        # the first edge's color is a pure relabeling choice
        for rest in product(range(1, k + 1), repeat=g.m - 1):
            if naive_valid(g, (1,) + rest):
                return k
    return None


def proper_k_colorable(g: Graph, k: int) -> bool:
    """Backtracking existence check for a proper k-edge-coloring."""
    ecol = [0] * g.m

    def free(v: int) -> set[int]:
        return set(range(1, k + 1)) - {ecol[e] for e, _ in g.incidence[v] if ecol[e]}

    def rec(e: int) -> bool:
        if e == g.m:
            return True
        u, v = g.edges[e]
        for c in sorted(free(u) & free(v)):
            ecol[e] = c
            if rec(e + 1):
                return True
            ecol[e] = 0
        return False

    return rec(0)


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices, as a Graph."""
    pairs = list(combinations(range(n), 2))
    for picks in product((False, True), repeat=len(pairs)):
        yield Graph(n, tuple(p for p, take in zip(pairs, picks) if take))


def count_classes_naive(graphs) -> int:
    """Number of isomorphism classes by pairwise VF2 testing."""
    reps: list[Graph] = []
    for g in graphs:
        if not any(isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


def automorphism_orbits(g: Graph) -> set[frozenset[int]]:
    """Vertex orbits of the automorphism group.  ``v`` and ``w`` share an
    orbit iff VF2 finds an isomorphism from the graph with ``v`` marked to
    the graph with ``w`` marked.  Each vertex is tested only against the
    least vertex of every orbit found so far, so K8 costs 7 tests, not the
    8! self-maps."""
    h = to_nx(g)
    match = nx.algorithms.isomorphism.categorical_node_match("mark", False)
    least = list(range(g.n))  # least vertex of each vertex's orbit
    for v in range(g.n):
        if least[v] != v:
            continue
        for w in range(v + 1, g.n):
            if least[w] != w:
                continue
            a, b = h.copy(), h.copy()
            a.nodes[v]["mark"] = b.nodes[w]["mark"] = True
            if nx.algorithms.isomorphism.GraphMatcher(a, b, node_match=match).is_isomorphic():
                least[w] = v
    classes: dict[int, set[int]] = {}
    for v, o in enumerate(least):
        classes.setdefault(o, set()).add(v)
    return {frozenset(c) for c in classes.values()}


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group: the VF2 isomorphisms of the graph
    onto itself, each listed once."""
    h = to_nx(g)
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())


def atlas(n: int) -> list[nx.Graph]:
    """networkx's graph atlas restricted to n vertices: one graph per
    isomorphism class, for every n <= 7."""
    return [h for h in nx.graph_atlas_g() if h.number_of_nodes() == n]


def same_classes(graphs, reference) -> bool:
    """True iff the Graphs in ``graphs`` and the networkx graphs in
    ``reference`` (one per class) hold the same isomorphism classes, each
    exactly once.  Candidates are bucketed by degree sequence, then matched
    by VF2."""
    buckets: dict[tuple[int, ...], list[nx.Graph]] = {}
    for h in reference:
        buckets.setdefault(tuple(sorted(d for _, d in h.degree())), []).append(h)
    for g in graphs:
        h = to_nx(g)
        cands = buckets.get(tuple(sorted(d for _, d in h.degree())), [])
        hits = [i for i, r in enumerate(cands) if nx.is_isomorphic(h, r)]
        if len(hits) != 1:
            return False
        cands.pop(hits[0])
    return not any(buckets.values())


# -- partition refinement ------------------------------------------------------
#
# The package's earlier refinement, which splits every cell by global count
# classes; ``graph._refine`` skips the cells a splitter cannot split.


def _split(cells: list[int], classes: list[int], splitters: list[int]) -> None:
    """Split every cell of ``cells`` in place by the disjoint vertex masks
    ``classes``, which cover every vertex of a non-singleton cell; every
    fragment but the first largest is appended to ``splitters``."""
    i = 0
    while i < len(cells):
        c = cells[i]
        i += 1
        if not c & (c - 1):
            continue
        frags = [f for x in classes if (f := c & x)]
        if len(frags) > 1:
            cells[i - 1 : i] = frags
            i += len(frags) - 1
            sizes = [f.bit_count() for f in frags]
            big = sizes.index(max(sizes))
            splitters += frags[:big] + frags[big + 1 :]


def _count_classes(masks, w: int) -> list[int]:
    """The vertices with 0, 1, 2, ... neighbors in ``w``, as masks in
    ascending count order, empty ones left out."""
    by_count: dict[int, int] = {}
    for v, mv in enumerate(masks):
        c = (mv & w).bit_count()
        by_count[c] = by_count.get(c, 0) | 1 << v
    return [by_count[c] for c in sorted(by_count)]


def reference_refine(masks, cells: list[int], splitters: list[int]) -> list[int]:
    """Refine ``cells`` in place by popping splitters until none is left or
    every cell is a singleton; each splitter splits every cell."""
    while splitters and len(cells) < len(masks):
        _split(cells, _count_classes(masks, splitters.pop()), splitters)
    return cells


def reference_distance_split(masks, cells: list[int]) -> list[int]:
    """Split the cells of ``cells`` by BFS distance profile (how many vertices
    at distance 1, 2, ...), in ascending profile order, then refine."""
    if len(cells) == len(masks):
        return cells
    h = nx.Graph()
    h.add_nodes_from(range(len(masks)))
    h.add_edges_from((u, v) for u, mu in enumerate(masks) for v in range(u) if mu >> v & 1)
    by_profile: dict[tuple[int, ...], int] = {}
    for v in range(len(masks)):
        dist = nx.single_source_shortest_path_length(h, v)
        at = Counter(dist.values())
        p = tuple(at[d] for d in range(1, max(at) + 1))
        by_profile[p] = by_profile.get(p, 0) | 1 << v
    splitters: list[int] = []
    _split(cells, [by_profile[p] for p in sorted(by_profile)], splitters)
    return reference_refine(masks, cells, splitters)


def parity_table_ok(g: Graph, colors, signature) -> bool:
    """Every appearing color at v has a count of parity signature[v]."""
    for v in range(g.n):
        cnt: dict[int, int] = {}
        for e, _ in g.incidence[v]:
            cnt[colors[e]] = cnt.get(colors[e], 0) + 1
        if any(c % 2 != signature[v] for c in cnt.values()):
            return False
    return True


def shared_vertices_all_pairs(elements) -> dict[tuple[int, int], list[int]]:
    """Every pair i < j of decomposition elements, in lexicographic order,
    with the sorted list of the vertices both have; pairs sharing none are
    left out."""
    out = {}
    for i, j in combinations(range(len(elements)), 2):
        shared = sorted(set(elements[i].vertices) & set(elements[j].vertices))
        if shared:
            out[(i, j)] = shared
    return out


def central_pair_ok_all_pairs(elements) -> dict[tuple[int, int], bool]:
    """The central-vertex pair rule over every pair i < j of decomposition
    elements, in lexicographic order: an entry for each pair sharing a
    vertex, True iff every shared vertex is central for one of the two."""
    out = {}
    for i, j in combinations(range(len(elements)), 2):
        a, b = elements[i], elements[j]
        shared = set(a.vertices) & set(b.vertices)
        if shared:
            out[(i, j)] = all(v in a.central_vertices or v in b.central_vertices for v in shared)
    return out


def non_central_meetings(elements, colors) -> list[tuple[int, int, int]]:
    """(i, j, v) for every pair i < j of same-colored elements meeting at a
    vertex v central for neither, in lexicographic order; ``colors[e]`` is
    the color of edge e."""
    out = []
    for i, j in combinations(range(len(elements)), 2):
        a, b = elements[i], elements[j]
        if colors[a.edges[0]] != colors[b.edges[0]]:
            continue
        for v in sorted(set(a.vertices) & set(b.vertices)):
            if v not in a.central_vertices and v not in b.central_vertices:
                out.append((i, j, v))
    return out


def two_path_partitions(g: Graph, edges: list[int]) -> list[list[tuple[int, int]]]:
    """Every partition of a sorted edge list into 2-paths, recursively: the
    first edge is paired with each later edge sharing exactly one end with
    it, in list order, and the rest is partitioned the same way."""
    if not edges:
        return [[]]
    e, rest = edges[0], edges[1:]
    out = []
    for f in rest:
        if len(set(g.edges[e]) & set(g.edges[f])) == 1:
            tail = [h for h in rest if h != f]
            out.extend([(e, f)] + p for p in two_path_partitions(g, tail))
    return out


# -- reference closure search --------------------------------------------------


def reference_backtrack(n: int, k: int, place, unplace, node_budget=None):
    """``solver.backtrack`` by recursion: colors 1..k go to positions
    0..n-1 in increasing order, and a position may open at most one color
    beyond the highest used before it.  Each ``place`` call counts one
    node; _Budget is raised once the count passes ``node_budget``.  Returns
    (assignment | None, nodes)."""
    assign = [0] * n
    nodes = 0

    def rec(i: int, used: int) -> bool:
        nonlocal nodes
        if i == n:
            return True
        for c in range(1, min(used + 1, k) + 1):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise _Budget
            if place(i, c):
                assign[i] = c
                if rec(i + 1, max(used, c)):
                    return True
                unplace(i, c)
        return False

    return (assign if rec(0, 0) else None), nodes



def reference_search_groups(g: Graph, groups, k, pair_ok=None, node_budget=None):
    """``solver.search_groups`` with its closure found as the search runs:
    per-vertex counters of uncolored active edges say when a vertex becomes
    complete, and then every active edge at it whose other end is complete
    too is checked.  Same contract and return value."""
    edges = g.edges
    active = [e for grp in groups for e in grp]
    rem = [0] * g.n
    for e in active:
        u, v = edges[e]
        rem[u] += 1
        rem[v] += 1
    cnt = [[0] * (k + 1) for _ in range(g.n)]
    ecolor = [0] * g.m
    marks = [False] * g.m
    for e in active:
        marks[e] = True
    inc_active = [
        tuple((e, u) for e, u in g.incidence[v] if marks[e]) for v in range(g.n)
    ]
    barred: list[tuple[int, ...]] = [()] * len(groups)
    if pair_ok is not None:
        for (i, j), ok in pair_ok.items():
            if not ok:
                barred[j] += (groups[i][0],)

    def place(gi, c):
        for f in barred[gi]:
            if ecolor[f] == c:
                return False
        grp = groups[gi]
        for e in grp:
            ecolor[e] = c
            for v in edges[e]:
                cnt[v][c] += 1
                rem[v] -= 1
        for e in grp:
            for v in edges[e]:
                if rem[v] == 0:
                    cv = cnt[v]
                    for f, u in inc_active[v]:
                        if rem[u] == 0 and cv[ecolor[f]] == cnt[u][ecolor[f]]:
                            unplace(gi, c)
                            return False
        return True

    def unplace(gi, c):
        for e in groups[gi]:
            ecolor[e] = 0
            for v in edges[e]:
                cnt[v][c] -= 1
                rem[v] += 1

    return reference_backtrack(len(groups), k, place, unplace, node_budget)


# -- reference enumerator --------------------------------------------------------
#
# The level loop and child test of ``locirr.enumerate`` before children were
# rejected by degree, per subset size and on the equitable partition first:
# every subset size is tried, every vertex's (degree, sorted neighbor
# degrees) profile is built, the full root partition is computed for every
# child that passes the profile test, and the prune has no room bound.  It
# drops subsets that are not least within their twin classes and children
# whose canonical key a sibling already had, where the level loop tries one
# subset per orbit of the parent's automorphism group, and it tests each
# candidate for a cut vertex by its own search.


def _twin_classes(masks, eligible):
    """Group eligible vertices into interchangeable (twin) classes."""
    groups: dict[tuple, list[int]] = {}
    for v in eligible:
        false_key = masks[v]
        true_key = masks[v] | 1 << v
        groups.setdefault(("f", false_key), []).append(v)
        groups.setdefault(("t", true_key), []).append(v)
    return [sorted(g) for g in groups.values() if len(g) > 1]


def _connected_without(masks, v: int) -> bool:
    """Is the graph still connected after deleting vertex v?"""
    rest = (1 << len(masks)) - 1 & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen == rest


def reference_prune(masks, degs, n: int, lo: int, hi: int, regular: bool) -> bool:
    r = n - len(masks)
    need_total = 0
    deficit_total = 0
    for d in degs:
        need = lo - d
        if need > r:
            return False
        if need > 0:
            need_total += need
        deficit_total += hi - d
    if need_total > hi * r:
        return False
    if regular:
        if deficit_total > hi * r:
            return False
        if r == 0 and deficit_total:
            return False
        if (hi * r - deficit_total) % 2:
            return False
    return True


def reference_canonical_child(child, degs):
    k = len(child) - 1

    def profile(v):
        mv, nd = child[v], []
        while mv:
            low = mv & -mv
            nd.append(degs[low.bit_length() - 1])
            mv ^= low
        return degs[v], sorted(nd)

    mine = profile(k)
    ties = []
    for v in range(k):
        p = profile(v)
        if p >= mine and _connected_without(child, v):
            if p > mine:
                return None
            ties.append(v)
    root = root_partition(child)
    mine_at = next(i for i, c in enumerate(root) if c >> k & 1)
    later = sum(root[mine_at + 1 :])
    if any(later >> v & 1 for v in ties):
        return None
    key, orbit, _ = canon_adjacency(child, root)
    if any(orbit[v] > orbit[k] for v in ties):
        return None
    return key


def reference_connected_masks(n, lo, hi, regular, bipartite_only, kept_from=None):
    """``enumerate._connected_masks`` by the reference order.  When
    ``kept_from`` is a list, ``(parent, subset)`` is appended to it for
    every child kept at every level."""
    if n < 1:
        return []
    level = [(0,)]
    if not reference_prune(level[0], [0], n, lo, hi, regular):
        level = []
    for k in range(1, n):
        kept = []
        for masks in level:
            degs = [m.bit_count() for m in masks]
            eligible = [v for v in range(k) if degs[v] < hi]
            if not eligible:
                continue
            twins = _twin_classes(masks, eligible)
            keys = set()
            for d in range(1, min(hi, len(eligible)) + 1):
                for subset in combinations(eligible, d):
                    chosen = set(subset)
                    if any(
                        (inside := [v for v in cls if v in chosen])
                        and inside != cls[: len(inside)]
                        for cls in twins
                    ):
                        continue
                    new_mask = 0
                    child = list(masks)
                    for v in subset:
                        new_mask |= 1 << v
                        child[v] |= 1 << k
                    child.append(new_mask)
                    cdegs = [m.bit_count() for m in child]
                    if not reference_prune(child, cdegs, n, lo, hi, regular):
                        continue
                    if bipartite_only and _masks_to_graph(child).bipartition() is None:
                        continue
                    key = reference_canonical_child(child, cdegs)
                    if key is not None and key not in keys:
                        keys.add(key)
                        kept.append(tuple(child))
                        if kept_from is not None:
                            kept_from.append((masks, subset))
        level = kept
    return level
