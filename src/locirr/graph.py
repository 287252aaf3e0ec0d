"""Graph substrate: immutable graphs, graph6 I/O, subdivisions, canonical labels.

Vertices are dense integer ids 0..n-1.  Edges carry explicit ids (their
position in the edge tuple), which keeps endpoint pairs unambiguous for
multigraphs and gives decompositions and colorings stable references.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence


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
        if self.n < 0:
            raise GraphError(f"negative vertex count n={self.n}")
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
        """Per vertex: sorted tuple of (edge id, other endpoint).

        Rows are filled in ascending edge-id order, and a loopless graph puts
        an edge in a row once, so each row is sorted as built."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append((e, v))
            inc[v].append((e, u))
        return tuple(map(tuple, inc))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted({u for _, u in self.incidence[v]}))

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

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

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "edges": [list(e) for e in self.edges], "multigraph": self.multigraph}
        )

    @staticmethod
    def from_json(text: str) -> "Graph":
        try:
            data = json.loads(text)
            n = json_int(data["n"])
            edges = tuple((json_int(u), json_int(v)) for u, v in data["edges"])
            multigraph = data.get("multigraph", False)
            if type(multigraph) is not bool:
                raise GraphError(f"multigraph must be true or false, got {multigraph!r}")
            return Graph(n, edges, multigraph=multigraph)
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad graph JSON: {exc}") from exc


def json_int(value) -> int:
    """``value`` if it is a JSON integer, else GraphError: a float, string or
    boolean is rejected, not truncated or coerced by ``int()``."""
    if type(value) is not int:
        raise GraphError(f"expected an integer, got {value!r}")
    return value


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
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {text[exc.start]!r}", exc.start) from None
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


_BIT_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))
_SEXTETS = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


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
    # the upper triangle column by column, rows u < v of column v in order,
    # stream bit p at bit p of one integer: column v is its mask's low v bits
    adj = g.adjacency_masks
    parts = [(adj[v] & ((1 << v) - 1), v) for v in range(1, n)]  # (bits, length)
    while len(parts) > 1:  # join neighbors pairwise: O(bits log n), no quadratic regrowth
        odd = parts[-1:] if len(parts) % 2 else []
        parts = [(a | b << la, la + lb) for (a, la), (b, lb) in zip(parts[::2], parts[1::2])]
        parts += odd
    bits, nbits = parts[0] if parts else (0, 0)
    # little-endian bytes with their bits reversed put stream bit 0 first;
    # base64 then cuts 3 bytes into 4 six-bit groups, written as 63 + value
    pad = -nbits % 24
    raw = bits.to_bytes((nbits + pad) // 8, "little").translate(_BIT_REVERSED)
    raw = binascii.b2a_base64(raw, newline=False)
    return (bytes(head) + raw.translate(_SEXTETS)[: (nbits + 5) // 6]).decode("ascii")


# -- canonical labeling ------------------------------------------------------
#
# The labeler works on ordered partitions: lists of cells, each cell a
# vertex mask.  McKay, "Practical graph isomorphism" (1981); McKay & Piperno,
# "Practical graph isomorphism, II" (2014).
#
# Refinement does only the work that can change its result.  A splitter
# can split only the cells that meet its vertices' neighborhoods, so
# ``_refine`` skips the others.  ``equitable_partition`` starts from the
# degree cells, where a one-cell start stands after its first splitter.
# And a fragment replaces its cell where the cell stood, so a vertex in a
# later cell than vertex k stays in a later cell than k in every
# refinement.  Enumeration only asks whether some watched vertex ends up
# after k, so ``equitable_partition`` and ``distance_split`` take k and a
# watch mask and stop with None as soon as the answer is yes.


def _vertices(mask: int) -> list[int]:
    """The vertices of ``mask`` in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _watch_cell(cells: list[int], k: int, watch: int) -> int | None:
    """``watch`` cut down to ``k``'s cell of ``cells``, or None if a watched
    vertex lies in a later cell."""
    at = next(i for i, c in enumerate(cells) if c >> k & 1)
    if sum(cells[at + 1 :]) & watch:
        return None
    return watch & cells[at]


def _split_cell(
    cells: list[int], i: int, frags: list[int], splitters: list[int], k: int, watch: int
) -> int | None:
    """Replace ``cells[i]`` by its ordered fragments ``frags`` and return the
    watch mask left, or None if a watched vertex is now after ``k``'s cell.

    Every fragment but the first largest is appended to ``splitters``: once
    the partition is equitable against the whole cell, the counts against
    that one fragment follow from the others' (Hopcroft).  ``watch`` lies in
    ``k``'s cell; when that cell is the one split, the watch shrinks to
    ``k``'s fragment, and a watched vertex in a later fragment rejects.
    """
    c = cells[i]
    cells[i : i + 1] = frags
    sizes = [f.bit_count() for f in frags]
    big = sizes.index(max(sizes))
    splitters += frags[:big] + frags[big + 1 :]
    return _watch_cell(frags, k, watch) if c & watch else watch


def _refine(
    masks: Sequence[int], cells: list[int], splitters: list[int], k: int = -1, watch: int = 0
) -> list[int] | None:
    """Refine the ordered partition ``cells`` in place and return it.

    Each splitter mask ``w`` splits every non-singleton cell by the number
    of neighbors its vertices have in ``w``, ``(masks[v] & w).bit_count()``,
    fragments in ascending count order, and the new fragments become
    splitters in turn (``_split_cell``).  Only a cell that meets the
    neighborhood of ``w`` can split, so the others are skipped.  A
    singleton ``{v}`` splits a cell into its non-neighbors and neighbors of
    ``v``; a larger ``w`` sums the counts bit-sliced, ``planes[j]`` holding
    bit j of every vertex's count, and a touched cell is split by the
    planes from the highest bit down.  When the splitters account for every
    cell (the vertex set for a one-cell partition; ``{v}`` after ``v`` is
    individualized in an equitable partition), the result is the coarsest
    equitable refinement.  Fragment order depends only on counts, so the
    result commutes with relabeling.

    ``watch`` is a mask inside ``k``'s cell; the refinement stops with None
    as soon as a watched vertex falls in a later fragment than ``k``.  No
    later split can undo that, since fragments stay where their cell stood.
    The watch then shrinks to ``k``'s fragment.  With no watch (0), the
    partition is refined to the end.
    """
    n = len(masks)
    while splitters and len(cells) < n:
        w = splitters.pop()
        if w & (w - 1):
            planes: list[int] | None = []
            touch = 0
            while w:
                low = w & -w
                w ^= low
                carry = masks[low.bit_length() - 1]
                touch |= carry
                for j, p in enumerate(planes):
                    planes[j] = p ^ carry
                    carry &= p
                    if not carry:
                        break
                else:
                    planes.append(carry)
            planes.reverse()
        else:
            touch = masks[w.bit_length() - 1]
            planes = None
        i = 0
        while i < len(cells):
            c = cells[i]
            i += 1
            if not c & touch or not c & (c - 1):
                continue
            if planes is None:
                rest = c & ~touch
                frags = [rest, c ^ rest] if rest else [c]
            else:
                frags = [c]
                for p in planes:
                    frags = [x for f in frags for x in (f & ~p, f & p) if x]
            if len(frags) > 1:
                watch = _split_cell(cells, i - 1, frags, splitters, k, watch)
                if watch is None:
                    return None
                i += len(frags) - 1
    return cells


def _distance_profile(masks: Sequence[int], v: int) -> tuple[int, ...]:
    """How many vertices lie at BFS distance 1, 2, ... from ``v``."""
    seen = frontier = 1 << v
    out = []
    while True:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        if not frontier:
            return tuple(out)
        seen |= frontier
        out.append(frontier.bit_count())


def equitable_partition(masks: Sequence[int], k: int = -1, watch: int = 0) -> list[int] | None:
    """The coarsest equitable ordered partition, or None once a vertex of
    ``watch`` lies in a later cell than ``k``.

    It starts from the degree cells in ascending degree order, every cell
    but the first largest a splitter: the state of a one-cell partition
    after the all-vertices splitter has split it by degree.  The watch
    decides as soon as it can (see ``_refine``); with none, the partition
    is refined to the end.
    """
    n = len(masks)
    if n == 0:
        return []
    by_degree: dict[int, int] = {}
    for v, m in enumerate(masks):
        d = m.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [(1 << n) - 1]
    splitters: list[int] = []
    degree_cells = [by_degree[d] for d in sorted(by_degree)]
    watch = _split_cell(cells, 0, degree_cells, splitters, k, watch)
    if watch is None:
        return None
    return _refine(masks, cells, splitters, k, watch)


def distance_split(
    masks: Sequence[int], cells: list[int], k: int = -1, watch: int = 0
) -> list[int] | None:
    """Split the tied cells of the equitable partition ``cells`` by distance
    profile, refine again, and return it; ``cells`` is changed in place.

    Distance profiles separate many vertices of regular graphs that degree
    leaves in one cell.  Every cell is replaced by its fragments, in
    ascending profile order, where it stood, so the result refines
    ``cells`` and keeps its cell order.  With a watch, the result is None
    once a vertex of ``watch`` lies in a later cell than ``k``: first on
    ``cells`` as given, then, before any other vertex is profiled, when a
    watched vertex of ``k``'s cell has a larger profile than ``k``, and
    then during the refinement (see ``_refine``).
    """
    if watch:
        watch = _watch_cell(cells, k, watch)
        if watch is None:
            return None
    if len(cells) == len(masks):
        return cells
    by_profile: dict[tuple[int, ...], int] = {}
    done = 0  # the vertices profiled so far
    if watch:
        mine = _distance_profile(masks, k)
        by_profile[mine] = done = 1 << k
        for v in _vertices(watch):
            p = _distance_profile(masks, v)
            if p > mine:
                return None
            by_profile[p] = by_profile.get(p, 0) | 1 << v
        done |= watch
    for c in cells:
        if c & (c - 1):
            for v in _vertices(c & ~done):
                p = _distance_profile(masks, v)
                by_profile[p] = by_profile.get(p, 0) | 1 << v
    classes = [by_profile[p] for p in sorted(by_profile)]
    splitters: list[int] = []
    i = 0
    while i < len(cells):
        c = cells[i]
        i += 1
        if c & (c - 1):
            frags = [f for x in classes if (f := c & x)]
            if len(frags) > 1:
                # no watched profile exceeds k's, so this split keeps them
                watch = _split_cell(cells, i - 1, frags, splitters, k, watch)
                i += len(frags) - 1
    return _refine(masks, cells, splitters, k, watch)


def root_partition(masks: Sequence[int]) -> list[int]:
    """The equitable ordered partition the labeling search starts from:
    ``equitable_partition`` split by ``distance_split``.  Both steps are
    isomorphism invariant: relabeling the graph relabels the cells and
    keeps their order.
    """
    return distance_split(masks, equitable_partition(masks))


def _individualize(masks: Sequence[int], cells: list[int], t: int, v: int) -> list[int]:
    """The child partition: ``v`` placed before the rest of cell ``t``, refined."""
    bit = 1 << v
    return _refine(masks, cells[:t] + [bit, cells[t] ^ bit] + cells[t + 1 :], [bit])


def canon_adjacency(
    masks: Sequence[int], cells: list[int] | None = None
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical adjacency, automorphism orbits and automorphism group
    generators of a graph given by masks.

    Returns ``(key, orbit, generators)``.  ``key`` is the least relabeled
    adjacency (entry i: the mask of positions adjacent to position i) over
    the leaves of an individualization-refinement search, so it is equal
    for two graphs iff they are isomorphic.  The search starts from
    ``cells``, which must be ``root_partition(masks)`` (a caller that
    already holds it passes it on), and runs on an explicit stack; each
    node branches on the vertices of its first non-singleton cell.

    A leaf with the key of the first or of the least leaf so far yields an
    automorphism, and the search jumps back to the child of the deepest
    common ancestor of the two leaves: that subtree is the image of one
    already searched.  At a node on the first path, a child in the orbit of
    an explored sibling under the automorphisms found is skipped: all of
    them fix the node's path pointwise, because the search has not yet left
    its subtree.  The automorphisms found generate the automorphism group
    (McKay 1981), so their union-find orbits are exact.  They are returned
    as ``generators``, each a tuple ``g`` that maps vertex ``v`` to
    ``g[v]``; an asymmetric graph has none.  ``orbit[v]`` is the least
    position a vertex of ``v``'s orbit takes at the least leaf: vertices
    share it iff they share an orbit, and ids follow the order of the cells
    of ``cells``.
    """
    n = len(masks)
    if cells is None:
        cells = root_partition(masks)
    nbrs = [_vertices(mv) for mv in masks]
    autos: list[list[int]] = []
    root = list(range(n))  # union-find over the cycles of ``autos``

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    first = best = None  # (key, leaf order, path) of the first and the least leaf
    path: list[int] = []  # the vertex individualized at each depth
    stack: list[list] = []  # per depth: [partition, target cell index, candidates, next]
    node = cells
    while True:
        while len(node) < n:
            t = next(i for i, c in enumerate(node) if c & (c - 1))
            cand = _vertices(node[t])
            stack.append([node, t, cand, 1])
            path.append(cand[0])
            node = _individualize(masks, node, t, cand[0])
        lab = [c.bit_length() - 1 for c in node]
        pos = [0] * n
        for i, v in enumerate(lab):
            pos[v] = i
        key = tuple([sum([1 << pos[u] for u in nbrs[v]]) for v in lab])
        if first is None:
            first = best = (key, lab, path[:])
        else:
            twin = first if key == first[0] else best if key == best[0] else None
            if twin is not None:
                g = [0] * n
                for a, b in zip(twin[1], lab):
                    g[a] = b
                autos.append(g)
                for v, w in enumerate(g):
                    a, b = find(v), find(w)
                    if a != b:
                        root[max(a, b)] = min(a, b)
                d = 0
                while path[d] == twin[2][d]:
                    d += 1
                del stack[d + 1 :]
            elif key < best[0]:
                best = (key, lab, path[:])
        # move to the next unpruned sibling of the deepest node that has one
        while stack:
            d = len(stack) - 1
            part, t, cand, j = stack[-1]
            if j < len(cand) and path[:d] == first[2][:d]:
                # on the first path the search has not yet left this node's
                # subtree, so every automorphism found fixes its path
                seen = {find(u) for u in cand[:j]}
                while j < len(cand) and find(cand[j]) in seen:
                    j += 1
            if j < len(cand):
                stack[-1][3] = j + 1
                del path[d:]
                path.append(cand[j])
                node = _individualize(masks, part, t, cand[j])
                break
            stack.pop()
        else:
            break
    least: dict[int, int] = {}
    for i, v in enumerate(best[1]):
        least.setdefault(find(v), i)
    return best[0], tuple(least[find(v)] for v in range(n)), tuple(map(tuple, autos))
