"""Local irregularity predicates, coloring verification, and Kempe swaps."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .graph import Graph, GraphError, json_int


@dataclass(frozen=True)
class EdgeColoring:
    """Total edge coloring: ``colors[e]`` is the color of edge id e, in 1..k."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        for e, c in enumerate(self.colors):
            if not (1 <= c <= self.k):
                raise GraphError(f"edge {e} has color {c} outside 1..{self.k}")

    @cached_property
    def used(self) -> frozenset[int]:
        return frozenset(self.colors)

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "colors": list(self.colors)})

    @staticmethod
    def from_json(text: str) -> "EdgeColoring":
        try:
            data = json.loads(text)
            colors, k = tuple(map(json_int, data["colors"])), json_int(data["k"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad coloring JSON: {exc}") from exc
        return EdgeColoring(colors, k)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[tuple[int, int, int], ...]  # (color, u, v) with u < v


@dataclass(frozen=True)
class ColorPairComponent:
    colors: frozenset[int]
    anchor: int
    edges: frozenset[int]


def is_locally_irregular(g: Graph) -> bool:
    """No edge joins two vertices of equal degree."""
    deg = g.degrees
    return all(deg[u] != deg[v] for u, v in g.edges)


def _color_degrees(g: Graph, c: EdgeColoring) -> list[dict[int, int]]:
    per = [dict() for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        col = c.colors[e]
        per[u][col] = per[u].get(col, 0) + 1
        per[v][col] = per[v].get(col, 0) + 1
    return per


def verify_coloring(g: Graph, c: EdgeColoring) -> VerificationReport:
    """Check that every color class induces a locally irregular graph."""
    if len(c.colors) != g.m:
        raise GraphError(f"coloring has {len(c.colors)} entries for {g.m} edges")
    per = _color_degrees(g, c)
    bad = set()
    for e, (u, v) in enumerate(g.edges):
        col = c.colors[e]
        if per[u][col] == per[v][col]:
            bad.add((col, u, v))
    violations = tuple(sorted(bad))
    return VerificationReport(not violations, violations)


def kempe_component(g: Graph, c: EdgeColoring, a: int, b: int, v: int) -> ColorPairComponent:
    """Connected component of the {a,b}-colored subgraph containing v."""
    if a == b:
        raise GraphError("kempe_component needs two distinct colors")
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    pair = {a, b}
    comp_edges: set[int] = set()
    stack = [v]
    seen = {v}
    while stack:
        x = stack.pop()
        for e, u in g.incidence[x]:
            if c.colors[e] in pair and e not in comp_edges:
                comp_edges.add(e)
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return ColorPairComponent(frozenset(pair), v, frozenset(comp_edges))


def swap(g: Graph, c: EdgeColoring, comp: ColorPairComponent) -> EdgeColoring:
    """Exchange the two colors of ``comp`` on its edges; everything else fixed."""
    a, b = sorted(comp.colors)
    flip = {a: b, b: a}
    for e in comp.edges:
        if c.colors[e] not in flip:
            raise GraphError(f"stale component: edge {e} now has color {c.colors[e]}")
    new = list(c.colors)
    for e in comp.edges:
        new[e] = flip[new[e]]
    return EdgeColoring(tuple(new), c.k)
