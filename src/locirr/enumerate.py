"""Isomorphism-free enumeration of small graphs.

Connected graphs are built one vertex at a time (every prefix connected),
pruned by the filter's degree range [lo, hi].  A regular family is lo == hi
and has no rule of its own beyond the handshake test: an odd n * hi yields
nothing, before any graph is built.  A bipartite family keeps a child only
when its new vertex's neighbors lie on one side of the parent, whose sides
are fixed up to a swap: every kept parent is connected and bipartite.
Duplicates are never made: a child is kept only when its new vertex is the
canonically chosen one to delete (McKay's canonical construction path).
Each parent does its invariant work once (see ``_connected_masks``): it
tries one neighbor subset per orbit of its automorphism group, under the
generators its own labeling returned, and one lowpoint pass (``_cut_parts``)
gives its cut structure, which tells every child's non-cut vertices and the
subset sizes that cannot give a canonical child.  Each child is rejected by
the first of four tests, cheapest first, that decides: the degrees of the
non-cut vertices against the new vertex's, the sorted neighbor degrees of
those of equal degree, the cell order of ``graph.equitable_partition``, and
the cell order of its ``graph.distance_split``, the root partition.  The two
partitions are passed the new vertex and its tied vertices, and stop
refining as soon as a tied vertex falls in a later cell.  A child that
passes all four is decided by the automorphism orbits from
``graph.canon_adjacency``, whose search starts from that root partition; the
same call gives the generators the child keeps as a parent.  A child on the
last level keeps no generators, so when no non-cut vertex ties with its new
vertex after the first two tests, it is accepted unlabeled.

The deletion rule also bounds what can come after a prefix (see
``_prune``).  A full last vertex stays non-cut and outranks any later vertex
of lower degree, so every later vertex is added full, with all its edges
into the prefix (rule 1).  If that vertex's neighbors are full too, its key
is the largest possible, so every later vertex must make all its neighbors
full, and only vertices one short of full take later edges (rule 2).  A
prefix whose room cannot meet these has no descendant of the target size
and is dropped; since no table spans parents, the output is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph import Graph, GraphError, canon_adjacency, distance_split, equitable_partition


@dataclass(frozen=True)
class GraphClassFilter:
    """Connected graphs with degrees in [min_degree, max_degree], bipartite
    ones only if ``bipartite``; a regular family sets both bounds equal."""

    max_degree: int | None = None
    min_degree: int | None = None
    connected: bool = True  # only connected graphs are enumerated
    bipartite: bool = False  # True keeps the bipartite graphs only

    def __post_init__(self):
        if not self.connected:
            raise GraphError("only connected graphs are enumerated")
        for name in ("max_degree", "min_degree"):
            bound = getattr(self, name)
            if bound is not None and bound < 0:
                raise GraphError(f"{name} must be nonnegative, got {bound}")
        if (
            self.max_degree is not None
            and self.min_degree is not None
            and self.min_degree > self.max_degree
        ):
            raise GraphError("min_degree exceeds max_degree")


CUBIC = GraphClassFilter(min_degree=3, max_degree=3)
SUBCUBIC_MIN2 = GraphClassFilter(max_degree=3, min_degree=2)
SUBCUBIC = GraphClassFilter(max_degree=3)


def _prune(masks, degs, n: int, lo: int, hi: int) -> bool:
    """Can this prefix still extend to a connected n-vertex graph with
    degrees in [lo, hi]?

    Among other bounds: each of the r vertices still to come has at most
    r - 1 later neighbors, so at least lo - r + 1 in the prefix, and a
    connected graph joins the prefix to them by at least one edge; the
    prefix's spare degree sum(hi - d) must cover both.

    With lo == hi these bounds already imply the degree-sum tests of a
    regular family.  No prefix vertex exceeds hi, so each vertex's need
    lo - d is its whole deficit hi - d: a deficit sum above hi * r is a need
    sum above hi * r, and a deficit at r == 0 is a need above r.  And the
    prefix's degree sum hi * (n - r) - deficit is even, so hi * r - deficit
    has the parity of hi * n, which the caller's handshake test has made
    even.

    Two more follow from the deletion rule of ``_canonical_child`` when the
    prefix's last vertex k is full (degree hi):

    1. k is non-cut in every descendant: no later vertex can join it, and
       the descendant minus k is built like the prefix minus k, each new
       vertex joined to a connected graph.  So a later vertex of degree
       below hi is rejected by k's higher degree, and every later vertex is
       added full.  The r of them are then pairwise non-adjacent, each with
       hi edges into the prefix, and a prefix vertex v takes at most
       min(hi - d_v, r) of them.
    2. If every neighbor of k is full too, k's key (hi, (hi, ..., hi)) is
       the largest there is, and it never changes, so every later vertex
       must make each of its neighbors full.  A prefix vertex two or more
       short of hi then takes no later edge and must already reach lo; one
       short of hi takes at most one.

    A prefix that fails either bound has no descendant on n vertices.  A
    parent's children depend on that parent alone (orbits, cut structure,
    generators), so dropping such a prefix leaves every other node, its
    generators and the order of the output unchanged."""
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
    if r and deficit_total < max(1, r * (lo - r + 1)):
        return False
    if r and degs[-1] == hi:
        full = room = room_short = 0  # room_short: room under rule 2
        stuck = False  # a vertex two or more short of hi is below lo (rule 2)
        for v, d in enumerate(degs):
            if d == hi:
                full |= 1 << v
                continue
            room += min(hi - d, r)
            if d == hi - 1:
                room_short += 1
            elif d < lo:
                stuck = True
        if masks[-1] & ~full:
            return room >= hi * r
        return not stuck and room_short >= hi * r
    return True


def _cut_parts(masks) -> list[list[int]]:
    """Per vertex v of a connected graph: the vertex masks of the components
    of the graph minus v, none when v is the only vertex.

    One depth-first pass with Hopcroft-Tarjan lowpoints: a DFS child w of v
    whose subtree has no edge to a vertex discovered before v (``low[w] >=
    disc[v]``) is cut off by v, and its subtree is one component; the other
    vertices but v, if any, form one more.  v is a cut vertex iff it has two
    or more parts.  In a child that joins a new vertex to the neighbors s,
    v stays non-cut iff ``s & ~(1 << v)`` meets every part of v.
    """
    n = len(masks)
    disc = [-1] * n
    low = [0] * n
    sub = [1 << v for v in range(n)]
    parts: list[list[int]] = [[] for _ in range(n)]
    disc[0] = 0
    found = 1
    stack = [(0, masks[0])]
    while stack:
        v, todo = stack[-1]
        if todo:
            bit = todo & -todo
            stack[-1] = (v, todo ^ bit)
            w = bit.bit_length() - 1
            if disc[w] < 0:
                disc[w] = low[w] = found
                found += 1
                stack.append((w, masks[w]))
            elif disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                sub[u] |= sub[v]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    parts[u].append(sub[v])
    full = (1 << n) - 1
    for v in range(n):
        rest = full & ~(1 << v) & ~sum(parts[v])
        if rest:
            parts[v].append(rest)
    return parts


def _canonical_child(child, degs, parts, last: bool) -> tuple[tuple[int, ...], ...] | None:
    """Automorphism group generators of ``child`` (degrees ``degs``) if its
    last vertex k was added canonically; None means rejected.  ``parts`` is
    ``_cut_parts`` of the parent, ``child`` minus k.  ``last`` says the child
    is on the last level, where its generators are not used: a child there
    with no non-cut vertex tied with k is accepted unlabeled, with no
    generators.

    The canonical vertex to delete is chosen among the non-cut vertices:
    first by the largest (degree, sorted neighbor degrees), then by the
    largest orbit id of ``canon_adjacency``.  The child is accepted iff k
    lies in that orbit.  Four stages, cheapest first: degrees alone (a
    non-cut vertex of higher degree rejects, one of lower degree is passed
    over); neighbor degrees for the vertices of k's degree; the cell order
    of ``equitable_partition``; and the cell order of its
    ``distance_split``, the root partition, which is then handed to the
    labeler.  Orbit ids follow the order of the root cells, and the root
    partition refines the equitable one in its cell order, so a tied vertex
    in a later cell than k of either partition rejects the child.  Both are
    given ``(k, ties)`` and return None as soon as a tied vertex falls
    behind k: a cell's fragments stay where it stood, so no further
    refinement brings it back.  k itself is never a cut vertex, and v < k
    is one iff k's other neighbors miss a part of v (see ``_cut_parts``).
    """
    k = len(child) - 1
    s = child[k]

    def nbr_degrees(v):
        mv, nd = child[v], []
        while mv:
            low = mv & -mv
            nd.append(degs[low.bit_length() - 1])
            mv ^= low
        return sorted(nd)

    dk = degs[k]
    mine = None
    ties = 0
    for v in range(k):
        if degs[v] < dk:
            continue
        higher = degs[v] > dk
        if not higher:
            if mine is None:
                mine = nbr_degrees(k)
            nd = nbr_degrees(v)
            if nd < mine:
                continue
            higher = nd > mine
        others = s & ~(1 << v)
        if all(others & c for c in parts[v]):
            if higher:
                return None
            ties |= 1 << v
    if not ties and last:
        return ()  # no tied vertex: no partition or orbit can reject
    cells = equitable_partition(child, k, ties)
    if cells is None:
        return None
    cells = distance_split(child, cells, k, ties)
    if cells is None:
        return None
    _, orbit, generators = canon_adjacency(child, cells)
    if any(ties >> v & 1 and orbit[v] > orbit[k] for v in range(k)):
        return None
    return generators


def _image(s: int, perm) -> int:
    """The vertex mask ``s`` moved by the permutation ``perm``."""
    out = 0
    while s:
        low = s & -s
        out |= 1 << perm[low.bit_length() - 1]
        s ^= low
    return out


def _connected_masks(n: int, lo: int, hi: int, bipartite_only: bool):
    """All connected graphs on exactly n >= 1 vertices with final degrees in
    [lo, hi], as mask tuples.

    Canonical construction path (McKay 1998): every graph is built from its
    canonical parent only, the graph minus its canonical non-cut vertex, so
    no table spans parents.  Each parent does its invariant work once:

    - Orbit pruning.  Two accepted children of one parent are isomorphic
      only if the parent's automorphism group maps one's neighbor subset to
      the other's, so a parent tries only the first subset of each orbit in
      ``combinations`` order, its lexicographically least.  When an orbit
      is first met, all its images under the generators that
      ``canon_adjacency`` returned for the parent are marked.
    - Cut structure.  ``_cut_parts`` finds, in one pass, the components of
      the parent minus each vertex; every child's non-cut test reads them
      (``_canonical_child``).  They also give ``top``, the largest degree
      of a non-cut vertex of the parent.  Such a vertex stays non-cut in
      every child whose new vertex has two or more neighbors, and outranks
      a new vertex of lower degree, so the subset sizes 2 .. top-1 are
      never tried.
    - Sides.  With ``bipartite_only``, the parent's ``Graph.bipartition``
      gives its side mask ``left`` once; a child is bipartite iff its new
      vertex's neighbors avoid one side.

    An accepted child keeps the generators its labeling found; they act on
    its vertex ids when it becomes a parent."""
    level: list[tuple[tuple[int, ...], tuple]] = [((0,), ())]
    if not _prune(level[0][0], [0], n, lo, hi):
        level = []
    for k in range(1, n):
        kept: list[tuple[tuple[int, ...], tuple]] = []
        for masks, gens in level:
            degs = [m.bit_count() for m in masks]
            eligible = [v for v in range(k) if degs[v] < hi]
            parts = _cut_parts(masks)
            top = max(degs[v] for v in range(k) if len(parts[v]) < 2)
            met: set[int] = set()  # the subsets of every orbit met so far
            if bipartite_only:
                left = sum(1 << v for v in _masks_to_graph(masks).bipartition()[0])
            max_d = min(hi, len(eligible))
            for d in [1, *range(max(2, top), max_d + 1)]:
                for subset in combinations(eligible, d):
                    new_mask = 0
                    for v in subset:
                        new_mask |= 1 << v
                    if gens:
                        if new_mask in met:
                            continue
                        met.add(new_mask)
                        orbit = [new_mask]
                        for s in orbit:  # also visits the images appended below
                            for g in gens:
                                t = _image(s, g)
                                if t not in met:
                                    met.add(t)
                                    orbit.append(t)
                    child = list(masks)
                    for v in subset:
                        child[v] |= 1 << k
                    child.append(new_mask)
                    cdegs = [m.bit_count() for m in child]
                    if not _prune(child, cdegs, n, lo, hi):
                        continue
                    if bipartite_only and new_mask & left and new_mask & ~left:
                        continue  # the new vertex joins both sides
                    child_gens = _canonical_child(child, cdegs, parts, k == n - 1)
                    if child_gens is not None:
                        kept.append((tuple(child), child_gens))
        level = kept
    return [masks for masks, _ in level]


def _masks_to_graph(masks) -> Graph:
    n = len(masks)
    edges = []
    for u in range(n):
        mv = masks[u] >> (u + 1) << (u + 1)
        while mv:
            low = mv & -mv
            edges.append((u, low.bit_length() - 1))
            mv ^= low
    return Graph(n, tuple(sorted(edges)))


def enumerate_graphs(n: int, flt: GraphClassFilter) -> Iterator[Graph]:
    """One representative per isomorphism class of the connected n-vertex
    graphs matching the filter, deterministic order across runs.
    Infeasible filters yield nothing."""
    if n < 0:
        raise GraphError("n must be nonnegative")
    if n == 0:
        return
    hi = n - 1 if flt.max_degree is None else flt.max_degree
    lo = flt.min_degree or 0
    if lo == hi and n * hi % 2:
        return  # handshake parity
    if n >= 2:
        lo = max(lo, 1)
    for masks in _connected_masks(n, lo, hi, flt.bipartite):
        yield _masks_to_graph(masks)


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Non-isomorphic trees on n vertices (via networkx), deterministic order."""
    import networkx as nx

    if n <= 1:
        if n == 1:
            yield Graph(1, ())
        return
    if n == 2:
        yield Graph(2, ((0, 1),))
        return
    for t in nx.nonisomorphic_trees(n):
        yield Graph(n, tuple(sorted(tuple(sorted(e)) for e in t.edges())))
