"""Graph substrate: immutable graphs, graph6 I/O, subdivisions, canonical labels.

Vertices are dense integer ids 0..n-1.  Edges carry explicit ids (their
position in the edge tuple), which keeps endpoint pairs unambiguous for
multigraphs and gives decompositions and colorings stable references.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    pass


class Graph6Error(GraphError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """A loopless graph (or multigraph) with stable edge ids.

    ``edges[i]`` is the endpoint pair of edge id ``i``, normalized to
    ``(min, max)``.  Parallel edges are rejected unless ``multigraph`` is set.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    multigraph: bool = False

    def __post_init__(self):
        norm = []
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            norm.append((u, v) if u < v else (v, u))
        if not self.multigraph and len(set(norm)) != len(norm):
            raise GraphError("parallel edges in a simple graph")
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: sorted tuple of (edge id, other endpoint)."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append((e, v))
            inc[v].append((e, u))
        return tuple(tuple(sorted(x)) for x in inc)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted({u for _, u in self.incidence[v]}))

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency_masks[u] >> v & 1) if u != v else False

    # -- structure queries -------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by minimum."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for _, u in self.incidence[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """2-coloring by BFS; None if an odd cycle exists.

        Side 0 contains the smallest vertex of each component.
        """
        side = [-1] * self.n
        for s in range(self.n):
            if side[s] >= 0:
                continue
            side[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for _, u in self.incidence[v]:
                    if side[u] < 0:
                        side[u] = 1 - side[v]
                        stack.append(u)
                    elif side[u] == side[v]:
                        return None
        a = tuple(v for v in range(self.n) if side[v] == 0)
        b = tuple(v for v in range(self.n) if side[v] == 1)
        return a, b

    def is_cycle(self) -> bool:
        """True iff this graph is a single cycle (length >= 2 for multigraphs)."""
        return (
            self.n >= 2
            and self.m == self.n
            and all(d == 2 for d in self.degrees)
            and self.is_connected()
        )

    def subgraph(self, edge_ids: Iterable[int], drop_isolated: bool = True) -> "Graph":
        """Subgraph on the given edges; vertices relabeled densely (sorted order)."""
        eids = sorted(edge_ids)
        if drop_isolated:
            verts = sorted({x for e in eids for x in self.edges[e]})
        else:
            verts = list(range(self.n))
        relabel = {v: i for i, v in enumerate(verts)}
        edges = tuple((relabel[self.edges[e][0]], relabel[self.edges[e][1]]) for e in eids)
        return Graph(len(verts), edges, multigraph=self.multigraph)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "edges": [list(e) for e in self.edges], "multigraph": self.multigraph}
        )

    @staticmethod
    def from_json(text: str) -> "Graph":
        try:
            data = json.loads(text)
            return Graph(
                int(data["n"]),
                tuple((int(u), int(v)) for u, v in data["edges"]),
                multigraph=bool(data.get("multigraph", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad graph JSON: {exc}") from exc


# -- constructions ----------------------------------------------------------


def path_graph(m_edges: int) -> Graph:
    return Graph(m_edges + 1, tuple((i, i + 1) for i in range(m_edges)))


def cycle_graph(m: int) -> Graph:
    if m == 2:
        return Graph(2, ((0, 1), (0, 1)), multigraph=True)
    return Graph(m, tuple((i, (i + 1) % m) for i in range(m)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, tuple((0, i + 1) for i in range(leaves)))


def cube_graph() -> Graph:
    """The 3-dimensional cube Q3; vertex i is its 3-bit label."""
    edges = []
    for i in range(8):
        for b in (1, 2, 4):
            if i < i ^ b:
                edges.append((i, i ^ b))
    return Graph(8, tuple(sorted(edges)))


def fully_subdivide(g: Graph) -> Graph:
    """Subdivide every edge once.  New vertex for edge e is ``g.n + e``; the
    halves of edge e get ids 2e (at the smaller endpoint) and 2e+1."""
    edges = []
    for e, (u, v) in enumerate(g.edges):
        s = g.n + e
        edges.append((u, s))
        edges.append((s, v))
    return Graph(g.n + g.m, tuple(edges))


def subdivide_edge(g: Graph, e: int, times: int) -> Graph:
    """Replace edge e by a path with ``times`` internal vertices (appended ids)."""
    if not (0 <= e < g.m):
        raise GraphError(f"unknown edge id {e}")
    if times < 1:
        raise GraphError("times must be positive")
    u, v = g.edges[e]
    chain = [u] + [g.n + i for i in range(times)] + [v]
    new_edges = list(g.edges[:e]) + list(g.edges[e + 1 :])
    new_edges.extend(zip(chain, chain[1:]))
    return Graph(g.n + times, tuple(new_edges), multigraph=g.multigraph)


# -- graph6 ------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_read_n(data: bytes) -> tuple[int, int]:
    """Decode the size field; returns (n, bytes consumed)."""
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated size field", len(data))
        n = 0
        for i in range(1, 4):
            n = n << 6 | (data[i] - 63)
        return n, 4
    if len(data) < 8:
        raise Graph6Error("truncated size field", len(data))
    n = 0
    for i in range(2, 8):
        n = n << 6 | (data[i] - 63)
    return n, 8


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a simple Graph."""
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER) :]
    elif text.startswith(">>"):
        raise Graph6Error("unsupported header", 0)
    text = text.rstrip("\n")
    if not text:
        raise Graph6Error("empty input", 0)
    data = text.encode("ascii", errors="replace")
    for i, b in enumerate(data):
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte {b!r} outside graph6 alphabet", i)
    n, off = _g6_read_n(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - off < nbytes:
        raise Graph6Error(
            f"need {nbytes} adjacency bytes for n={n}, got {len(data) - off}", len(data)
        )
    if len(data) - off > nbytes:
        raise Graph6Error("trailing garbage after adjacency bits", off + nbytes)
    bits = 0
    for i in range(nbytes):
        bits = bits << 6 | (data[off + i] - 63)
    pad = nbytes * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", len(data) - 1)
    bits >>= pad
    edges = []
    # bit order: column-wise upper triangle, (0,1), (0,2), (1,2), (0,3), ...
    pos = nbits - 1
    for v in range(1, n):
        for u in range(v):
            if bits >> pos & 1:
                edges.append((u, v))
            pos -= 1
    return Graph(n, tuple(sorted(edges)))


def write_graph6(g: Graph) -> str:
    """Encode a simple graph as a graph6 line (no header, no newline)."""
    if g.multigraph and len(set(g.edges)) != g.m:
        raise GraphError("graph6 cannot encode multigraphs")
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        raise GraphError(f"n={n} beyond supported graph6 range")
    nbits = n * (n - 1) // 2
    bits = 0
    adj = g.adjacency_masks
    pos = nbits - 1
    for v in range(1, n):
        for u in range(v):
            if adj[u] >> v & 1:
                bits |= 1 << pos
            pos -= 1
    nbytes = (nbits + 5) // 6
    bits <<= nbytes * 6 - nbits
    body = [(bits >> (6 * (nbytes - 1 - i)) & 63) + 63 for i in range(nbytes)]
    return bytes(head + body).decode("ascii")


# -- canonical labeling ------------------------------------------------------


def _refine(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Coarsest stable refinement of ``colors``, renumbered 0, 1, 2, ...

    A vertex's signature is its own color plus the sorted colors of its
    neighbors; colors are renumbered by signature rank until the number of
    classes stops growing.  Ranks depend only on the signatures, so the
    result commutes with relabeling the vertices.
    """
    n = len(nbrs)
    classes = len(set(colors))
    while classes < n:
        sigs = [(colors[v], *sorted([colors[u] for u in nv])) for v, nv in enumerate(nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == classes:
            break
        classes = len(rank)
    return colors


def canon_adjacency(masks: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical adjacency and automorphism orbits of a graph given by masks.

    Individualization-refinement over an explicit stack, visiting every leaf
    (no automorphism pruning).  Returns ``(key, orbit)``: ``key`` is the
    least relabeled adjacency over all leaves, equal for two graphs iff they
    are isomorphic.  The leaves reaching ``key`` are one coset of the
    automorphism group, so ``orbit[v]``, the smallest position ``v`` takes
    at those leaves, is shared exactly by the vertices of ``v``'s orbit.
    """
    n = len(masks)
    nbrs = [[u for u in range(n) if mv >> u & 1] for mv in masks]
    best: tuple[int, ...] | None = None
    orbit: list[int] = []
    stack = [[0] * n]
    while stack:
        colors = _refine(nbrs, stack.pop())
        if len(set(colors)) < n:
            # branch on each vertex of the first cell with two or more vertices
            target = next(c for c in range(n) if colors.count(c) > 1)
            for v in range(n - 1, -1, -1):
                if colors[v] == target:
                    child = [c + (c >= target) for c in colors]
                    child[v] = target
                    stack.append(child)
            continue
        # at a leaf the colors are the positions 0..n-1
        perm = sorted(range(n), key=colors.__getitem__)
        key = tuple([sum([1 << colors[u] for u in nbrs[v]]) for v in perm])
        if best is None or key < best:
            best, orbit = key, colors
        elif key == best:
            orbit = [min(a, b) for a, b in zip(orbit, colors)]
    assert best is not None
    return best, tuple(orbit)


def canonical_form(g: Graph) -> bytes:
    """Canonical label: equal byte strings iff the simple graphs are isomorphic."""
    if g.multigraph and len(set(g.edges)) != g.m:
        raise GraphError("canonical_form requires a simple graph")
    if g.n > 255:
        raise GraphError("canonical_form supports n <= 255")
    canon = canon_adjacency(g.adjacency_masks)[0]
    out = bytearray([g.n])
    for v in range(g.n):
        mv = canon[v]
        for u in range(v + 1, g.n):
            if mv >> u & 1:
                out.append(v)
                out.append(u)
    return bytes(out)
