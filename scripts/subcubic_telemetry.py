#!/usr/bin/env python3
"""Rule telemetry for the subcubic 4-colorer.

Runs the decompose-then-color pipeline over every decomposable connected
subcubic graph up to --max-n and reports how often each extension rule fired.
No threshold is enforced; the numbers are tracked against regressions.
"""

import argparse
import sys
import time

from locirr.constructive import SubcubicStats, color_subcubic_4
from locirr.decompose import DecompositionError, strongly_pertinent_decomposition
from locirr.enumerate import SUBCUBIC, enumerate_graphs, enumeration_walk


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=10,
                    help="12 matches the tracked corpus; 10 is a quick run")
    args = ap.parse_args()

    totals = SubcubicStats()
    graphs = 0
    max_k = 0
    t0 = time.perf_counter()
    sizes = range(1, args.max_n + 1)
    walk = enumeration_walk(SUBCUBIC, sizes)  # one tree for every n
    for n in sizes:
        level = 0
        for g in enumerate_graphs(n, SUBCUBIC, walk):
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
            for field in vars(stats):
                setattr(totals, field, getattr(totals, field) + getattr(stats, field))
        print(f"n={n}: {level} decomposable graphs", file=sys.stderr)
    elapsed = time.perf_counter() - t0

    print(f"graphs colored: {graphs} (max colors used: {max_k}) in {elapsed:.1f}s")
    for field, value in vars(totals).items():
        print(f"  {field}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
