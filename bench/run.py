#!/usr/bin/env python3
"""Benchmark for locirr: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload campaign-cubic --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --trace 1

The library is imported from ``src/`` beside this directory, in this one
process, with no threads or worker pools.  ``--trace 0`` times repeated
passes over the workload's seeded inputs and reports the end-to-end
metrics, with times taken by ``hostspeed.SpeedClock`` so that the shared
host's changing speed is discounted; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  Each metric is printed on its own line with its unit,
and the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output passed its check, 1 when one did not, and 2 when ``src/locirr`` is
missing.  bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import hostspeed
import spans
from workloads import TRACE_BATCHES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")  # span dumps of traced runs
MODULES = ("graph", "enumerate", "irregularity", "solver", "decompose", "constructive", "harness")
SETUP_REPEATS = 5
LEVELS = range(3, 13)  # harness.level_s.n<N>: the campaign levels that hold graphs

_clock = time.perf_counter


def import_locirr() -> SimpleNamespace:
    """Import the library afresh (dropping any earlier import) from SRC."""
    for name in [m for m in sys.modules if m == "locirr" or m.startswith("locirr.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"locirr.{m}") for m in MODULES})
    if not os.path.abspath(mods.graph.__file__).startswith(SRC + os.sep):
        raise ImportError(f"locirr was imported from {mods.graph.__file__}, not {SRC}")
    return mods


def setup(wl, seed: int, seconds: int, clock):
    """Import and make the inputs SETUP_REPEATS times; keep the last set and
    the median time by ``clock``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        mods = import_locirr()
        batches = wl.make_inputs(mods, seed, seconds)
        times.append(clock() - t0)
    return mods, batches, statistics.median(times)


class Tally:
    """Attempted/failed graphs and every problem the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.errors.extend(res.errors)


def timed_run(wl, mods, batches, seed, seconds, tally, clock: hostspeed.SpeedClock):
    """Untraced passes until the next one would end after ``seconds`` of wall
    time.  Passes are timed in probe units and reported in seconds at the
    nominal host speed (bench/hostspeed.py)."""
    walls, passes, rates, latencies = [], [], [], []
    start = _clock()
    i = 0
    while True:
        batch = batches[i % len(batches)]
        w0, t0 = _clock(), clock.now()
        res = wl.run(mods, batch, clock.now)
        dt, wall = clock.now() - t0, _clock() - w0
        wl.check(mods, batch, res, seed, i % len(batches))
        tally.add(res)
        walls.append(wall)
        passes.append(dt)
        rates.append((res.attempted - res.failed) / dt)
        latencies.extend(res.latencies_ms)
        i += 1
        if _clock() - start + statistics.median(walls) > seconds:
            break
    unit = clock.seconds(1.0)
    latencies = [x * unit for x in latencies]
    return {
        "wall_s": (statistics.median(passes) * unit, "s"),
        "graphs_per_s": (statistics.median(rates) / unit, "1/s"),
        # 0 when too few graphs succeeded to time; the run is then not correct
        "graph_ms_p50": (statistics.median(latencies) if latencies else 0.0, "ms"),
        "graph_ms_p90": (statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else 0.0,
                         "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, walls


def install(tracer: spans.Tracer, mods) -> None:
    """Wrap each layer's entry points at the attributes the program calls."""
    tracer.patch(mods.harness, "run_campaign", "harness.run_campaign")
    tracer.patch(mods.harness, "enumerate_graphs", "enumerate.enumerate_graphs")
    tracer.patch(mods.enumerate, "canon_adjacency", "graph.canon_adjacency")
    for module in (mods.harness, mods.solver):
        tracer.patch(module, "chi_irr", "solver.chi_irr")
    tracer.patch(mods.solver, "search_groups", "solver.search_groups", spans.describe_search)
    tracer.patch(mods.decompose, "strongly_pertinent_decomposition",
                 "decompose.strongly_pertinent_decomposition", spans.describe_decomposition)
    tracer.patch(mods.constructive, "color_subcubic_4", "constructive.color_subcubic_4",
                 spans.describe_coloring)
    for module in (mods.irregularity, mods.solver, mods.constructive):
        tracer.patch(module, "verify_coloring", "irregularity.verify_coloring")


def traced_pass(wl, mods, batch):
    tracer = spans.Tracer()
    install(tracer, mods)
    try:
        t0 = _clock()
        root = tracer.open("bench.pass")
        res = wl.run(mods, batch, _clock)
        tracer.close(root)
        dt = _clock() - t0
    finally:
        tracer.unpatch()
    return tracer.spans, res, dt


def traced_run(wl, mods, batches, seed, tally):
    """A fixed set of batches, each run untraced and then traced; batch 0 is
    traced a second time to check that the counters repeat."""
    rules = [f.name for f in dataclasses.fields(mods.constructive.SubcubicStats)]
    kept = []  # span lists of every traced pass, written out at the end
    raw: dict = {}
    levels: dict = {}
    untraced = traced = 0.0
    first = None
    for i, batch in enumerate(batches[:TRACE_BATCHES]):
        t0 = _clock()
        res = wl.run(mods, batch, _clock)
        untraced += _clock() - t0
        for n, seconds in res.level_s.items():
            levels[n] = levels.get(n, 0.0) + seconds
        wl.check(mods, batch, res, seed, i)
        tally.add(res)
        span_list, res, dt = traced_pass(wl, mods, batch)
        traced += dt
        wl.check(mods, batch, res, seed, i)
        tally.add(res)
        kept.append(span_list)
        part = spans.layer_metrics(span_list, rules)
        spans.merge(raw, part)
        if i == 0:
            first = part
    span_list, res, _ = traced_pass(wl, mods, batches[0])
    wl.check(mods, batches[0], res, seed, 0)
    tally.add(res)
    kept.append(span_list)
    again = spans.layer_metrics(span_list, rules)
    counts = [k for k in first if k in spans.COUNT_KEYS or k.startswith("constructive.rule.")]
    drift = [k for k in counts if first[k] != again[k]]

    metrics = {k: (v, _unit(k)) for k, v in spans.finish(raw).items()}
    for n in LEVELS:
        metrics[f"harness.level_s.n{n}"] = (levels.get(n, 0.0), "s")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    metrics["trace.nondeterministic_counts"] = (len(drift), "count")
    return metrics, drift, kept


def _unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith(".s") or key.endswith("_s"):
        return "s"
    if key.endswith("_yield"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    wl = WORKLOADS[name]
    tally = Tally()
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    if trace:
        mods, batches, _ = setup(wl, seed, seconds, _clock)
        metrics, drift, kept = traced_run(wl, mods, batches, seed, tally)
        path = spans.write(kept, os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
        print(f"  spans of {len(kept)} traced passes written to {os.path.relpath(path, ROOT)}")
        layers = sum(metrics[k][0] for k in spans.SELF_KEYS)
        print(f"  layer self times sum to {layers:.4f} s of traced wall {metrics['trace.wall_s'][0]:.4f} s")
        if drift:
            print(f"  NONDETERMINISTIC: counters differ between two traced runs of one batch: "
                  f"{', '.join(drift)}")
    else:
        with hostspeed.SpeedClock() as clock:
            mods, batches, setup_units = setup(wl, seed, seconds, clock.now)
            metrics, walls = timed_run(wl, mods, batches, seed, seconds, tally, clock)
        metrics["setup_s"] = (clock.seconds(setup_units), "s")
        probes = clock.durations
        print(f"  {len(walls)} passes, median wall {statistics.median(walls):.4f} s; "
              f"{tally.attempted} graphs")
        print(f"  {len(probes)} speed probes: median {statistics.median(probes) * 1e3:.4f} ms, "
              f"nominal {hostspeed.PROBE_REF_S * 1e3:.4f} ms")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:<40} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<40} {failed_frac:>14.6g} ratio ({tally.failed}/{tally.attempted})")
    for err in tally.errors[:20]:
        print(f"  CHECK FAILED: {err}")
    correct = not tally.errors and tally.attempted > 0
    return correct, tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "locirr", "__init__.py")):
        print(f"bench: no library sources at {SRC}/locirr", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r[2].items()}
    else:
        metrics = results[args.workload][2]
    correct = all(r[0] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r[1].attempted for r in results.values()),
        "failed": sum(r[1].failed for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
