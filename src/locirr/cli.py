"""Command-line front end.

Exit codes: 0 success / bound holds, 2 negative answer (bound violated,
invalid coloring, non-decomposable input), 3 input error, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys

from .constructive import (
    Bipartition,
    ParityPair,
    color_balanced_4,
    color_balanced_forest_2,
    color_fully_subdivided_2,
    color_subcubic_4,
    vertex_parity_color,
)
from .decompose import (
    Decomposition,
    DecompositionError,
    pertinent_decomposition,
    strongly_pertinent_decomposition,
    two_path_decomposition,
)
from .dot import export_dot
from .graph import Graph, GraphError, parse_graph6, write_graph6
from .harness import (
    BudgetExhausted,
    FAMILIES,
    check_output_dir,
    fig6_experiment,
    find_tree_needing_3,
    run_campaign,
)
from .irregularity import EdgeColoring, verify_coloring
from .solver import COLORED, EXCEEDED_BUDGET, NOT_DECOMPOSABLE, chi_irr

OK, NEGATIVE, INPUT_ERROR, BUDGET = 0, 2, 3, 4
BUDGET_HELP = "search nodes allowed for one whole exact solve, all k together"


def _load_text(spec: str) -> str:
    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphError(f"cannot read {spec!r}: {exc}") from exc
    return spec


def load_graphs(spec: str) -> tuple[list[Graph], bool]:
    """A graph6 literal, a JSON literal, or a file of either (graph6 one per
    line); with whether the input was JSON."""
    text = _load_text(spec).strip()
    if not text:
        raise GraphError("empty graph input")
    if text.startswith("{"):
        return [Graph.from_json(text)], True
    return [parse_graph6(line) for line in text.splitlines() if line.strip()], False


def load_graph(spec: str) -> Graph:
    graphs, _ = load_graphs(spec)
    if len(graphs) != 1:
        raise GraphError(f"expected a single graph, got {len(graphs)}")
    return graphs[0]


def _load_coloring(spec: str) -> EdgeColoring:
    return EdgeColoring.from_json(_load_text(spec))


def _parse_vertex_set(text: str) -> frozenset[int]:
    try:
        return frozenset(int(x) for x in text.replace(",", " ").split())
    except ValueError as exc:
        raise GraphError(f"bad vertex id list {text!r}: {exc}") from exc


def _parse_signature(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(ch) for ch in text.strip())
    except ValueError as exc:
        raise GraphError(f"bad --signature {text!r}: {exc}") from exc


def cmd_chi_irr(args) -> int:
    graphs, from_json = load_graphs(args.graph)
    code = OK
    for g in graphs:
        res = chi_irr(g, args.k_max, node_budget=args.budget)
        # a JSON graph, multigraphs included, is labeled short: the graph6
        # line of n vertices has n(n-1)/12 characters
        label = "<json>" if from_json else write_graph6(g)
        if res.status == COLORED:
            print(f"{label} chi-irr={res.k} nodes={res.nodes}")
        elif res.status == NOT_DECOMPOSABLE:
            print(f"{label} not-decomposable")
            code = max(code, NEGATIVE)
        elif res.status == EXCEEDED_BUDGET:
            print(f"{label} budget-exhausted")
            return BUDGET
        else:
            print(f"{label} refuted up to k={args.k_max}")
            code = max(code, NEGATIVE)
    return code


def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    col = _load_coloring(args.coloring)
    report = verify_coloring(g, col)
    if report.valid:
        print("valid")
        return OK
    for c, u, v in report.violations:
        print(f"violation: color {c} edge ({u},{v}) joins equal color-degrees")
    return NEGATIVE


def cmd_decompose(args) -> int:
    g = load_graph(args.graph)
    builder = {
        "2path": two_path_decomposition,
        "pertinent": pertinent_decomposition,
        "strong": strongly_pertinent_decomposition,
    }[args.mode]
    try:
        d = builder(g)
    except DecompositionError as exc:
        print(f"no decomposition: {exc}")
        return NEGATIVE
    print(d.to_json())
    return OK


def cmd_color(args) -> int:
    g = load_graph(args.graph)
    method = args.method
    if method == "exact":
        res = chi_irr(g, args.k_max, node_budget=args.budget)
        if res.status == EXCEEDED_BUDGET:
            print("budget-exhausted")
            return BUDGET
        if res.status != COLORED:
            # with no --k-max, chi_irr searched its default bound
            shown = args.k_max or max(1, g.m // 2)
            print(f"no coloring with at most {shown} colors ({res.status})")
            return NEGATIVE
        print(res.coloring.to_json())
        return OK
    if method == "subcubic4":
        try:
            d = strongly_pertinent_decomposition(g)
        except DecompositionError as exc:
            print(f"no decomposition: {exc}")
            return NEGATIVE
        trace: list[str] | None = [] if args.trace else None
        col = color_subcubic_4(g, d, trace=trace)
        if trace:
            for line in trace:
                print(f"# {line}", file=sys.stderr)
        print(col.to_json())
        return OK
    if method == "subdivided2":
        col = color_fully_subdivided_2(g)
        print(col.to_json())
        return OK
    if method in ("forest2", "balanced4"):
        if args.even_side is None:
            raise GraphError(f"--even-side is required for {method}")
        even = _parse_vertex_set(args.even_side)
        b = Bipartition(even, frozenset(range(g.n)) - even)
        col = (color_balanced_forest_2 if method == "forest2" else color_balanced_4)(g, b)
        print(col.to_json())
        return OK
    if method == "parity":
        if args.signature is None:
            raise GraphError("--signature is required for parity")
        sig = _parse_signature(args.signature)
        k_max = args.k_max if args.k_max is not None else 6
        col = vertex_parity_color(ParityPair(g, sig), k_max)
        print(col.to_json())
        return OK
    raise GraphError(f"unknown method {method!r}")


def cmd_campaign(args) -> int:
    if args.csv:
        check_output_dir(args.csv, "--csv")
    try:
        report = run_campaign(
            args.family,
            args.max_n,
            args.bound,
            method=args.method,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            node_budget=args.budget,
            progress=(lambda n, count: print(f"# n={n}: {count} graphs", file=sys.stderr))
            if args.verbose
            else None,
        )
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}")
        return BUDGET
    print(report.to_json())
    if args.csv:
        try:
            with open(args.csv, "w") as fh:
                fh.write(report.histogram_csv())
        except OSError as exc:
            raise GraphError(f"cannot write --csv {args.csv!r}: {exc}") from exc
    return OK if report.passed else NEGATIVE


def cmd_fig1(args) -> int:
    report = find_tree_needing_3(max_edges=args.max_edges)
    print(f"witness: {write_graph6(report.witness)}")
    print(f"edges: {list(report.witness.edges)}")
    print(f"chi-irr: {report.chi} (2-color refutation nodes: {report.refutation_nodes})")
    print(f"trees scanned: {report.trees_scanned}")
    print(f"max-degree>=5 trees within 2 colors: {report.max_degree_5_plus_ok}")
    return OK if report.max_degree_5_plus_ok else NEGATIVE


def cmd_fig6(args) -> int:
    report = fig6_experiment()
    print(f"instance: {write_graph6(report.instance)}")
    print(f"decompositions scanned: {report.decompositions_scanned}")
    print(f"refuted at 3 element-uniform colors: {report.refuted.decomposition_json}")
    print(f"2-colorable decomposition: {report.two_colorable.decomposition_json}")
    print(f"2-coloring: {report.two_colorable.coloring_json}")
    return OK


def cmd_export_dot(args) -> int:
    g = load_graph(args.graph)
    col = _load_coloring(args.coloring) if args.coloring else None
    d = Decomposition.from_json(g, _load_text(args.decomposition)) if args.decomposition else None
    sys.stdout.write(export_dot(g, coloring=col, decomposition=d))
    return OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error; 2 means a negative answer
        self.print_usage(sys.stderr)
        self.exit(INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="locirr", description="locally irregular edge-coloring toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi-irr", help="exact locally irregular chromatic index")
    p.add_argument("graph")
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    p.set_defaults(func=cmd_chi_irr)

    p = sub.add_parser("verify", help="check a coloring")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="build an edge decomposition")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("2path", "pertinent", "strong"), default="pertinent")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("color", help="produce a coloring")
    p.add_argument("graph")
    p.add_argument(
        "--method",
        choices=("exact", "subcubic4", "subdivided2", "forest2", "balanced4", "parity"),
        default="exact",
    )
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    p.add_argument("--even-side", default=None, help="comma-separated vertex ids")
    p.add_argument("--signature", default=None, help="0/1 string, one digit per vertex")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("campaign", help="batch-verify a color bound over a family")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--method", choices=("exact", "constructive"), default="exact")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    p.add_argument("--csv", default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("fig1", help="find the smallest tree needing 3 colors")
    p.add_argument("--max-edges", type=int, default=10)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig6", help="subdivided-cube decomposition experiment")
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("export-dot", help="render a graph as DOT")
    p.add_argument("graph")
    p.add_argument("--coloring", default=None)
    p.add_argument("--decomposition", default=None)
    p.set_defaults(func=cmd_export_dot)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
