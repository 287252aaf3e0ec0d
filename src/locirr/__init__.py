"""Locally irregular edge-colorings of graphs.

A graph is locally irregular when no edge joins two vertices of the same
degree; a locally irregular edge-coloring asks every color class to induce
such a graph.  This package bundles an exact solver for the corresponding
chromatic index, decompositions into 2-paths and claws, constructive
colorers for subcubic, subdivided, and balanced bipartite graphs, and a
batch-verification harness with a command-line front end.
"""

from .graph import Graph, GraphError, parse_graph6, write_graph6
from .irregularity import EdgeColoring, is_locally_irregular, verify_coloring
from .solver import chi_irr

__all__ = [
    "Graph",
    "GraphError",
    "EdgeColoring",
    "parse_graph6",
    "write_graph6",
    "is_locally_irregular",
    "verify_coloring",
    "chi_irr",
]
