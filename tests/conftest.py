import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from locirr.enumerate import GraphClassFilter, enumerate_graphs
from locirr.graph import Graph


@pytest.fixture(scope="session")
def connected_small():
    """All connected graphs up to 6 vertices."""
    out = []
    for n in range(1, 7):
        out.extend(enumerate_graphs(n, GraphClassFilter(connected=True)))
    return out


@pytest.fixture(scope="session")
def subcubic_small():
    """All connected subcubic graphs up to 8 vertices."""
    flt = GraphClassFilter(max_degree=3, connected=True)
    return [g for n in range(1, 9) for g in enumerate_graphs(n, flt)]


def random_graph(rng: random.Random, n_max: int = 8, p: float = 0.4) -> Graph:
    n = rng.randint(1, n_max)
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return Graph(n, edges)


def triangle_chain(t: int) -> Graph:
    """t triangles in a row, each joined to the next by one edge: a member
    of the non-decomposable family T, with 4t - 1 edges."""
    edges = []
    for i in range(t):
        a = 3 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)] + ([(a + 2, a + 3)] if i < t - 1 else [])
    return Graph(3 * t, tuple(edges))
