"""The benchmark's workloads: seeded inputs, one timed pass, and output checks.

A workload's inputs are a list of batches made from the seed.  ``run`` does
one pass over a batch, timed by the ``clock`` it is given (seconds, or the
probe units of ``hostspeed.SpeedClock``), and returns per-graph latencies in
thousandths of that clock's unit plus the outputs.  ``check`` then verifies
the outputs outside the timed pass, adding each problem to ``errors`` and
each graph whose output is wrong to ``failed``.  Library modules arrive as
the namespace ``mods`` so that the benchmark can time their import; nothing
here imports ``locirr`` itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1
TRACE_BATCHES = 40  # batches the traced run covers, so its counts repeat per seed


@dataclass
class PassResult:
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    level_s: dict[int, float] = field(default_factory=dict)  # campaigns: seconds per n


# -- seeded inputs -----------------------------------------------------------------


def random_cubic_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a random connected simple cubic graph on n vertices.

    Pairing model that redraws a pair forming a loop or a parallel edge
    (Steger-Wormald), restarting when stuck; asymptotically uniform."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        edges = set()
        while points:
            for _ in range(100):
                i = rng.randrange(len(points))
                j = rng.randrange(len(points) - 1)
                j += j >= i
                u, v = points[i], points[j]
                e = (u, v) if u < v else (v, u)
                if u != v and e not in edges:
                    break
            else:
                break  # stuck: restart
            edges.add(e)
            for k in sorted((i, j), reverse=True):
                points[k] = points[-1]
                points.pop()
        if not points and _connected(n, edges):
            return sorted(edges)


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def batches_for(seconds: float, per_s: int) -> int:
    """Batches to generate: enough for the timed run and the traced run."""
    return max(TRACE_BATCHES, int(seconds * per_s) + 1)


# -- campaigns ---------------------------------------------------------------------


class Campaign:
    """``run_campaign(family, n_max, 3, method="exact")`` with jobs=1.

    The inputs are the enumerated family itself, so the seed changes nothing.
    A graph's latency is its exact-solve time, taken by a timer around
    ``locirr.harness.chi_irr`` (consecutive calls on one graph add up), plus
    an equal share of the time its n level spent outside the solver
    (enumeration, canonical labelling, harness code).  The shares span the
    whole campaign, so the percentiles do not hang on the one-second window
    in which the top level's graphs are solved.
    """

    bound = 3

    def __init__(self, name, family, n_max, expected):
        self.name = name
        self.family = family
        self.n_max = n_max
        self.expected = expected
        self.graphs = sum(expected["per_n"].values()) + sum(
            expected["non_decomposable"].values()
        )

    def make_inputs(self, mods, seed, seconds):
        return [None]

    def run(self, mods, batch, clock) -> PassResult:
        res = PassResult()
        solves = []  # [graph, SolveResult, seconds] in solve order
        ends = []  # (n, index into solves where level n ends)
        inner = mods.harness.chi_irr
        last = [clock()]

        def timed_chi_irr(g, *args, **kwargs):
            t0 = clock()
            out = inner(g, *args, **kwargs)
            dt = clock() - t0
            if solves and solves[-1][0] is g:
                solves[-1][2] += dt
                solves[-1][1] = out
            else:
                solves.append([g, out, dt])
            return out

        def level_done(n, count):
            now = clock()
            res.level_s[n] = now - last[0]
            ends.append((n, len(solves)))
            last[0] = now

        mods.harness.chi_irr = timed_chi_irr
        try:
            report = mods.harness.run_campaign(
                self.family, self.n_max, self.bound, method="exact", jobs=1, progress=level_done
            )
        except Exception as exc:  # the whole campaign is lost; keep measuring
            res.attempted = res.failed = self.graphs
            res.errors.append(f"{self.name}: run_campaign raised {exc!r}")
            return res
        finally:
            mods.harness.chi_irr = inner
        lo = 0
        for n, hi in ends:
            level = solves[lo:hi]
            if level:
                share = (res.level_s[n] - sum(s[2] for s in level)) / len(level)
                res.latencies_ms.extend((s[2] + share) * 1e3 for s in level)
            lo = hi
        res.attempted = report.tested + sum(report.non_decomposable.values())
        res.outputs = [report, solves]
        return res

    def check(self, mods, batch, res: PassResult, seed, index) -> None:
        if not res.outputs:
            return
        report, solves = res.outputs
        for key in ("per_n", "non_decomposable", "histogram", "exceeders"):
            got = getattr(report, key)
            if got != self.expected[key]:
                res.errors.append(f"{self.name}: {key} {got} != pinned {self.expected[key]}")
        for g, out, _ in solves:
            if out.coloring is not None and not mods.irregularity.verify_coloring(g, out.coloring).valid:
                res.failed += 1
                res.errors.append(f"{self.name}: invalid coloring for {mods.graph.write_graph6(g)}")


# -- exact solver on seeded cubic graphs ---------------------------------------


class SolveCubic:
    """``chi_irr(g, 4)`` on seeded random connected cubic graphs."""

    n = 10
    batch_size = 25
    batches_per_s = 8  # a run that gets through them all starts over

    def __init__(self, name, pinned):
        self.name = name
        self.pinned = pinned  # colors needed by the first graphs of DEFAULT_SEED

    def make_inputs(self, mods, seed, seconds):
        rng = random.Random(f"{self.name}:{seed}")
        return [
            [mods.graph.Graph(self.n, tuple(random_cubic_edges(self.n, rng)))
             for _ in range(self.batch_size)]
            for _ in range(batches_for(seconds, self.batches_per_s))
        ]

    def run(self, mods, batch, clock) -> PassResult:
        res = PassResult()
        for g in batch:
            res.attempted += 1
            t0 = clock()
            try:
                out = mods.solver.chi_irr(g, 4)
            except Exception as exc:  # RecursionError included
                res.failed += 1
                res.errors.append(f"{self.name}: chi_irr raised {exc!r}")
                res.outputs.append(None)
                continue
            res.latencies_ms.append((clock() - t0) * 1e3)
            res.outputs.append(out)
        return res

    def check(self, mods, batch, res: PassResult, seed, index) -> None:
        ks = []
        for g, out in zip(batch, res.outputs):
            ks.append(None if out is None else out.k)
            if out is None:
                continue
            if out.status != mods.solver.COLORED or not 1 <= out.k <= 4:
                problem = f"status {out.status}, k={out.k}"
            elif not mods.irregularity.verify_coloring(g, out.coloring).valid:
                problem = "invalid coloring"
            else:
                continue
            res.failed += 1
            res.errors.append(f"{self.name}: {mods.graph.write_graph6(g)}: {problem}")
        if seed == DEFAULT_SEED:
            lo = index * self.batch_size
            want = [int(c) for c in self.pinned[lo:lo + len(ks)]]
            if ks[:len(want)] != want:
                res.errors.append(f"{self.name}: indices of batch {index} {ks} != pinned {want}")


# -- decompose + constructive colour on seeded cubic graphs ---------------------


class ColorCubic:
    """strongly_pertinent_decomposition + color_subcubic_4 + verify_coloring
    on seeded random connected cubic graphs, one graph of each size per batch."""

    sizes = (64, 96, 128)
    batches_per_s = 8

    def __init__(self, name):
        self.name = name

    def make_inputs(self, mods, seed, seconds):
        rng = random.Random(f"{self.name}:{seed}")
        return [
            [mods.graph.Graph(n, tuple(random_cubic_edges(n, rng))) for n in self.sizes]
            for _ in range(batches_for(seconds, self.batches_per_s))
        ]

    def run(self, mods, batch, clock) -> PassResult:
        res = PassResult()
        for g in batch:
            res.attempted += 1
            stats = mods.constructive.SubcubicStats()  # rule counts, read when traced
            t0 = clock()
            try:
                d = mods.decompose.strongly_pertinent_decomposition(g)
                col = mods.constructive.color_subcubic_4(g, d, stats=stats)
                report = mods.irregularity.verify_coloring(g, col)
            except Exception as exc:  # RecursionError included
                res.failed += 1
                res.errors.append(f"{self.name}: n={g.n} raised {exc!r}")
                res.outputs.append(None)
                continue
            res.latencies_ms.append((clock() - t0) * 1e3)
            res.outputs.append((d, col, report))
        return res

    def check(self, mods, batch, res: PassResult, seed, index) -> None:
        for g, out in zip(batch, res.outputs):
            if out is None:
                continue
            d, col, report = out
            ok, fails = mods.constructive.element_properties_ok(g, d, col)
            if not report.valid:
                problem = f"verify_coloring violations {report.violations[:3]}"
            elif not ok:
                problem = fails[0]
            elif col.k > 4 or len(set(col.colors)) > 4:
                problem = f"uses {col.k} > 4 colors"
            else:
                continue
            res.failed += 1
            res.errors.append(f"{self.name}: n={g.n}: {problem}")


# values from the unmodified library; the cubic per_n is OEIS A002851
CUBIC_EXPECTED = {
    "per_n": {4: 1, 6: 2, 8: 5, 10: 19, 12: 85},
    "non_decomposable": {},
    "histogram": {2: 82, 3: 30},
    "exceeders": [],
}
SUBCUBIC_MIN2_EXPECTED = {
    "per_n": {4: 3, 5: 3, 6: 10, 7: 20, 8: 59, 9: 146, 10: 457},
    "non_decomposable": {3: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 2, 10: 1},
    "histogram": {1: 3, 2: 630, 3: 65},
    "exceeders": [],
}
# colors needed by the first 100 graphs of DEFAULT_SEED; each 3 was also
# confirmed by exhausting all 2-colorings
SOLVE_PINNED = (
    "23232222222222222223332222332222222322222223322232323222223322222322222322322222"
    "22222222222222222322"
)

WORKLOADS = {
    w.name: w
    for w in (
        Campaign("campaign-cubic", "cubic", 12, CUBIC_EXPECTED),
        Campaign("campaign-subcubic-min2", "subcubic-min2", 10, SUBCUBIC_MIN2_EXPECTED),
        SolveCubic("solve-cubic", pinned=SOLVE_PINNED),
        ColorCubic("color-cubic-large"),
    )
}
