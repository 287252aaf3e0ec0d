"""The decompose->color pipeline's outputs, pinned byte for byte.

Each digest is one SHA-256 over, per input graph in order: the strongly
pertinent decomposition's JSON (or the decomposer's error), the coloring's
JSON (or the colorer's error), the SubcubicStats fields and the colorer's
trace lines.  ``PINNED`` covers every connected subcubic graph with n <= 8
in enumeration order; ``PINNED_LARGE`` covers random cubic graphs at the
``color-cubic-large`` benchmark's scale, plus sizes n = 2 (mod 4) whose odd
edge count takes the decomposer through its claw path and colorability
check.  A speed-up of either stage must leave both unchanged; a deliberate
change of output re-pins them and says why.
"""

import dataclasses
import hashlib

import networkx as nx

from locirr.constructive import SubcubicStats, color_subcubic_4
from locirr.decompose import strongly_pertinent_decomposition
from locirr.graph import Graph, GraphError

# re-pinned when the decomposer's error came to name the component and why
# it is not decomposable: only the 13 error records of K2, C3, P4, ... changed
PINNED = "dc5ffdb3c096433e4960c5f15f6a7eba834d40bebdff9ecb374cf9d5706da4cc"
PINNED_LARGE = "1612a9e6d5dd5676da7b10b1a43cfbf2dbc75b82446885f8884666e8c1fbf48a"


def pipeline_record(g) -> str:
    try:
        d = strongly_pertinent_decomposition(g)
    except GraphError as exc:
        return f"decompose: {exc}\n"
    stats, trace = SubcubicStats(), []
    try:
        colored = color_subcubic_4(g, d, stats=stats, trace=trace).to_json()
    except GraphError as exc:
        colored = f"color: {exc}"
    return f"{d.to_json()}\n{colored}\n{dataclasses.asdict(stats)}\n{trace}\n"


def test_subcubic_pipeline_digest(subcubic_small):
    digest = hashlib.sha256()
    for g in subcubic_small:
        digest.update(pipeline_record(g).encode())
    assert len(subcubic_small) == 307
    assert digest.hexdigest() == PINNED


def test_random_cubic_pipeline_digest():
    digest = hashlib.sha256()
    claws = 0
    for n in (64, 96, 98, 128, 130):
        for seed in range(3):
            h = nx.random_regular_graph(3, n, seed=seed)
            g = Graph(n, tuple(h.edges()))
            digest.update(pipeline_record(g).encode())
            if g.m % 2:
                claws += '"claw"' in strongly_pertinent_decomposition(g).to_json()
    assert claws == 6  # every odd-size input went through the claw path
    assert digest.hexdigest() == PINNED_LARGE
