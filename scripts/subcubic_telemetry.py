#!/usr/bin/env python3
"""Fallback telemetry for the subcubic 4-colorer.

Runs the decompose-then-color pipeline over every decomposable connected
subcubic graph up to --max-n and reports how often each extension rule fired
and what fraction of graphs needed the exhaustive element-uniform fallback.
No threshold is enforced; the numbers are tracked against regressions.
"""

import argparse
import sys
import time

from locirr.constructive import SubcubicStats, color_subcubic_4
from locirr.decompose import DecompositionError, strongly_pertinent_decomposition
from locirr.enumerate import SUBCUBIC, enumerate_graphs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=10,
                    help="12 matches the tracked corpus; 10 is a quick run")
    args = ap.parse_args()

    totals = SubcubicStats()
    graphs = fallback_graphs = 0
    max_k = 0
    t0 = time.perf_counter()
    for n in range(1, args.max_n + 1):
        level = 0
        for g in enumerate_graphs(n, SUBCUBIC):
            if g.m == 0:
                continue
            try:
                d = strongly_pertinent_decomposition(g)
            except DecompositionError:
                continue  # not decomposable
            stats = SubcubicStats()
            col = color_subcubic_4(g, d, stats=stats)
            graphs += 1
            level += 1
            max_k = max(max_k, col.k)
            if stats.fallbacks:
                fallback_graphs += 1
            for field in vars(stats):
                setattr(totals, field, getattr(totals, field) + getattr(stats, field))
        print(f"n={n}: {level} decomposable graphs", file=sys.stderr)
    elapsed = time.perf_counter() - t0

    print(f"graphs colored: {graphs} (max colors used: {max_k}) in {elapsed:.1f}s")
    for field, value in vars(totals).items():
        print(f"  {field}: {value}")
    frac = 1.0 if graphs == 0 else 1 - fallback_graphs / graphs
    print(f"resolved without exhaustive fallback: {frac:.4%} "
          f"({graphs - fallback_graphs}/{graphs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
