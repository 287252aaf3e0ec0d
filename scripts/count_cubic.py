#!/usr/bin/env python3
"""Count connected cubic graphs and check the counts against OEIS A002851.

Enumerates the connected cubic graphs on n vertices for every even n from 4
to N (default 16) and prints each count with the seconds it took.  Exits 1
as soon as a count differs from A002851.  The tier-1 tests stop at n = 14;
on one core of a shared 2-vCPU host, n = 14 (509 graphs) takes about 4 s
and n = 16 (4060 graphs) about 57 s.

    PYTHONPATH=src python3 scripts/count_cubic.py [N]
"""

import argparse
import sys
import time

from locirr.enumerate import CUBIC, enumerate_graphs

A002851 = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n_max", nargs="?", type=int, default=16, choices=sorted(A002851),
                    metavar="N", help="largest (even) vertex count, 4..16 (default 16)")
    args = ap.parse_args()
    for n in range(4, args.n_max + 1, 2):
        start = time.perf_counter()
        count = sum(1 for _ in enumerate_graphs(n, CUBIC))
        seconds = time.perf_counter() - start
        ok = count == A002851[n]
        print(f"n={n}: {count} graphs in {seconds:.1f}s"
              + ("" if ok else f" (A002851: {A002851[n]})"), flush=True)
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
