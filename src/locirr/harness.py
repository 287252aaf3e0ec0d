"""Batch verification campaigns and the two figure-instance experiments."""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field

from .constructive import color_subcubic_4
from .decompose import (
    DecompositionError,
    enumerate_two_path_decompositions,
    strongly_pertinent_decomposition,
)
from .enumerate import CUBIC, SUBCUBIC, SUBCUBIC_MIN2, GraphClassFilter
from .enumerate import enumerate_graphs, enumerate_trees
from .graph import Graph, GraphError, cube_graph, json_int, write_graph6
from .solver import (
    COLORED,
    EXCEEDED_BUDGET,
    NOT_DECOMPOSABLE,
    REFUTED,
    check_budget,
    chi_irr,
    element_uniform_search,
)

CHECKPOINT_VERSION = 1
FIG6_MAX_SCAN = 200_000  # decompositions fig6_experiment scans at most


class BudgetExhausted(RuntimeError):
    """Raised when a campaign hits its node budget; a checkpoint (if
    configured) holds the completed levels."""


@dataclass
class CampaignReport:
    family: str
    n_max: int
    bound: int
    method: str
    per_n: dict[int, int] = field(default_factory=dict)  # decomposable graphs tested
    non_decomposable: dict[int, int] = field(default_factory=dict)
    histogram: dict[int, int] = field(default_factory=dict)  # colors used -> count
    exceeders: list[str] = field(default_factory=list)  # graph6, sorted
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.exceeders

    @property
    def tested(self) -> int:
        return sum(self.per_n.values())

    def tables(self) -> dict:
        """The count tables, keys ascending as strings, and the sorted
        exceeders: the body of both the report JSON and a checkpoint."""
        out = {
            key: {str(k): v for k, v in sorted(getattr(self, key).items())}
            for key in ("per_n", "non_decomposable", "histogram")
        }
        out["exceeders"] = sorted(self.exceeders)
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "n_max": self.n_max,
                "bound": self.bound,
                "method": self.method,
                **self.tables(),
            },
            indent=2,
        )

    def histogram_csv(self) -> str:
        lines = ["colors,count"]
        for k in sorted(self.histogram):
            lines.append(f"{k},{self.histogram[k]}")
        return "\n".join(lines) + "\n"


FAMILIES = {
    "cubic": CUBIC,
    "subcubic": SUBCUBIC,
    "subcubic-min2": SUBCUBIC_MIN2,
    "all": GraphClassFilter(),
}


def _classify(g: Graph, bound: int, method: str, node_budget: int | None):
    """Classify one graph as (kind, colors used): kind 'skip' for a
    non-decomposable input, 'budget' when the node budget ran out, otherwise
    'ok' or 'exceeder'."""
    if method == "exact":
        # one solve up to floor(m/2) colors finds the index even past the
        # bound, so the budget covers the graph's whole solve
        res = chi_irr(g, node_budget=node_budget)
        if res.status == NOT_DECOMPOSABLE:
            return ("skip", 0)
        if res.status == EXCEEDED_BUDGET:
            return ("budget", 0)
        k = res.k
    else:  # "constructive"; run_campaign checks the method
        try:
            d = strongly_pertinent_decomposition(g)
        except DecompositionError:
            return ("skip", 0)
        k = color_subcubic_4(g, d).k
    return ("exceeder" if k > bound else "ok", k)


def _count_table(value) -> dict[int, int]:
    """A checkpoint's ``{"n": count}`` object, read like the JSON readers do:
    keys that parse as integers, JSON integer values."""
    if not isinstance(value, dict):
        raise GraphError(f"expected an object, got {value!r}")
    return {int(k): json_int(v) for k, v in value.items()}


def _load_checkpoint(path: str, params: dict, report: CampaignReport) -> int:
    """Fill ``report`` from the checkpoint at ``path`` and return the last n
    it holds: 0, with ``report`` untouched, when there is no checkpoint for
    these parameters.  A malformed body raises GraphError."""
    if not os.path.exists(path):
        return 0
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise GraphError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
        return 0
    if data.get("params") != params:
        return 0
    try:
        done_n = json_int(data["done_n"])
        if not 0 <= done_n <= params["n_max"]:
            raise GraphError(f"done_n {done_n} outside 0..{params['n_max']}")
        tables = [_count_table(data[k]) for k in ("per_n", "non_decomposable", "histogram")]
        exceeders = data["exceeders"]
        if not isinstance(exceeders, list) or not all(isinstance(x, str) for x in exceeders):
            raise GraphError(f"exceeders must be a list of graph6 strings, got {exceeders!r}")
    except (KeyError, ValueError) as exc:
        raise GraphError(f"bad checkpoint {path!r}: {exc}") from exc
    report.per_n, report.non_decomposable, report.histogram = tables
    report.exceeders = list(exceeders)
    return done_n


def _save_checkpoint(path: str, params: dict, done_n: int, report: CampaignReport):
    payload = {"version": CHECKPOINT_VERSION, "params": params, "done_n": done_n}
    payload.update(report.tables())
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise GraphError(f"cannot write checkpoint {path!r}: {exc}") from exc


def check_output_dir(path: str, what: str) -> None:
    """Raise GraphError unless the directory that is to hold ``path`` exists."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise GraphError(f"cannot write {what} {path!r}: no directory {folder!r}")


def run_campaign(
    family: str,
    n_max: int,
    bound: int,
    method: str = "exact",
    jobs: int = 1,
    checkpoint: str | None = None,
    node_budget: int | None = None,
    progress=None,
) -> CampaignReport:
    """Test every enumerated decomposable graph of the ``FAMILIES`` family
    named ``family`` up to n_max against the color bound.  Per-level
    checkpointing; resuming with the same parameters reproduces the same
    final report."""
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    flt = FAMILIES[family]
    if method not in ("exact", "constructive"):
        raise GraphError(f"unknown method {method!r}")
    if method == "constructive" and (flt.max_degree is None or flt.max_degree > 3):
        raise GraphError("method 'constructive' needs a family of maximum degree at most 3")
    if n_max < 0:
        raise GraphError(f"n_max must be nonnegative, got {n_max}")
    if bound < 1:
        raise GraphError(f"bound must be at least 1, got {bound}")
    if jobs < 1:
        raise GraphError(f"jobs must be at least 1, got {jobs}")
    check_budget(node_budget)
    params = {
        "family": family,
        "n_max": n_max,
        "bound": bound,
        "method": method,
        "filter": repr(flt),
    }
    report = CampaignReport(family, n_max, bound, method)
    start_n = 1
    if checkpoint:
        check_output_dir(checkpoint, "checkpoint")
        start_n = _load_checkpoint(checkpoint, params, report) + 1
    t0 = time.perf_counter()
    # one pool for the whole campaign; jobs=1 classifies in this process
    with multiprocessing.Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        starmap = itertools.starmap if pool is None else pool.starmap
        for n in range(start_n, n_max + 1):
            graphs = list(enumerate_graphs(n, flt))
            tasks = [(g, bound, method, node_budget) for g in graphs]
            results = list(starmap(_classify, tasks))
            spent = [write_graph6(g) for g, (kind, _) in zip(graphs, results) if kind == "budget"]
            if spent:
                # drop the whole level: a partially counted level would be
                # double-counted on resume
                message = f"campaign aborted at n={n}: node budget hit on {min(spent)}"
                if checkpoint:
                    _save_checkpoint(checkpoint, params, n - 1, report)
                    message += f"; checkpoint holds n<{n}"
                raise BudgetExhausted(message)
            for g, (kind, k) in zip(graphs, results):
                if kind == "skip":
                    report.non_decomposable[n] = report.non_decomposable.get(n, 0) + 1
                else:
                    report.per_n[n] = report.per_n.get(n, 0) + 1
                    report.histogram[k] = report.histogram.get(k, 0) + 1
                    if kind == "exceeder":
                        report.exceeders.append(write_graph6(g))
            if checkpoint:
                _save_checkpoint(checkpoint, params, n, report)
            if progress is not None:
                progress(n, len(graphs))
    report.exceeders = sorted(report.exceeders)
    report.elapsed = time.perf_counter() - t0
    return report


# -- tree search (first figure) -------------------------------------------------


@dataclass(frozen=True)
class TreeSearchReport:
    witness: Graph
    chi: int
    refutation_nodes: int  # exhaustive nodes proving 2 colors impossible
    trees_scanned: int
    max_degree_5_plus_ok: bool  # decomposable trees with max degree >= 5 need <= 2


def find_tree_needing_3(max_edges: int = 10) -> TreeSearchReport:
    """Scan trees by increasing edge count for the first one with locally
    irregular chromatic index 3; along the way confirm that decomposable
    trees of maximum degree at least 5 never need a third color."""
    witness = None
    refut_nodes = 0
    scanned = 0
    delta5_ok = True
    for m in range(1, max_edges + 1):
        for t in enumerate_trees(m + 1):
            scanned += 1
            res = chi_irr(t, 3)
            if res.status != COLORED:
                continue
            if max(t.degrees) >= 5 and res.k > 2:
                delta5_ok = False
            if res.k == 3 and witness is None:
                recheck = chi_irr(t, 2)
                if recheck.status != REFUTED:
                    raise GraphError(f"tree {write_graph6(t)} of index 3 not refuted at 2 (bug)")
                witness = t
                refut_nodes = recheck.nodes
    if witness is None:
        raise GraphError(f"no tree with chromatic index 3 within {max_edges} edges")
    return TreeSearchReport(witness, 3, refut_nodes, scanned, delta5_ok)


# -- subdivided-cube experiment (second figure) ----------------------------------


def fig6_instance() -> Graph:
    """The 3-cube with one edge subdivided three times and the rest once:
    22 vertices, 26 edges."""
    base = cube_graph()
    edges = []
    nxt = base.n
    for e, (u, v) in enumerate(base.edges):
        inner = 3 if e == 0 else 1
        chain = [u] + list(range(nxt, nxt + inner)) + [v]
        nxt += inner
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, tuple(edges))


@dataclass(frozen=True)
class Fig6Report:
    instance: Graph
    refuted: "DecompositionWitness"
    two_colorable: "DecompositionWitness"
    decompositions_scanned: int


@dataclass(frozen=True)
class DecompositionWitness:
    decomposition_json: str
    coloring_json: str | None


def fig6_experiment() -> Fig6Report:
    """Scan 2-path decompositions of the subdivided cube for two witnesses:
    one refuting 3 element-uniform colors and one admitting 2.  One search
    up to 3 colors per decomposition decides both: it tries k = 1, 2, 3 in
    order, so a coloring with k <= 2 is the one a 2-color search finds."""
    g = fig6_instance()
    refuted = None
    two_col = None
    scanned = 0
    for d in enumerate_two_path_decompositions(g):
        scanned += 1
        res = element_uniform_search(g, d, 3, enforce_property_ii=False)
        if two_col is None and res.status == COLORED and res.k <= 2:
            two_col = DecompositionWitness(d.to_json(), res.coloring.to_json())
        if refuted is None and res.status == REFUTED:
            refuted = DecompositionWitness(d.to_json(), None)
        if (refuted and two_col) or scanned >= FIG6_MAX_SCAN:
            break
    if refuted is None or two_col is None:
        raise GraphError(
            f"witness search exhausted after {scanned} decompositions"
            f" (refuted={refuted is not None}, two_colorable={two_col is not None})"
        )
    return Fig6Report(g, refuted, two_col, scanned)
