"""Deterministic DOT export with coloring or decomposition overlays."""

from __future__ import annotations

from .decompose import Decomposition
from .graph import Graph, GraphError
from .irregularity import EdgeColoring

_PALETTE = (
    "black", "red", "blue", "forestgreen", "orange", "purple", "brown",
    "cyan3", "magenta", "gold3",
)


def _pen(c: int) -> str:
    return _PALETTE[c % len(_PALETTE)]


def export_dot(
    g: Graph,
    coloring: EdgeColoring | None = None,
    decomposition: Decomposition | None = None,
) -> str:
    """Render the graph as DOT text.  A coloring, one color per edge, paints
    edges by color class; a decomposition labels edges by element index and
    dashes claw-type elements."""
    if coloring is not None and len(coloring.colors) != g.m:
        raise GraphError(f"coloring has {len(coloring.colors)} entries for {g.m} edges")
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    element_of = {}
    kind_of = {}
    if decomposition is not None:
        for i, el in enumerate(decomposition.elements):
            for e in el.edges:
                element_of[e] = i
                kind_of[e] = el.kind
    for e, (u, v) in enumerate(g.edges):
        attrs = []
        if coloring is not None:
            c = coloring.colors[e]
            attrs.append(f'color="{_pen(c)}"')
            attrs.append(f'label="{c}"')
        if e in element_of:
            attrs.append(f'xlabel="e{element_of[e]}"')
            if kind_of[e] != "2path":
                attrs.append('style="dashed"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
