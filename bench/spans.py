"""In-memory span recorder for the traced benchmark run.

Spans are recorded by replacing library functions at the module attributes
the program calls through, so the library source is untouched.  Each span
holds (name, start, end, parent) plus a small ``info`` dict.  Spans stay in
memory until the run ends, when ``write`` dumps them; ``layer_metrics``
turns the spans of one pass into per-layer self times and counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans while its patches are installed (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, _clock(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, info=None) -> None:
        self.spans[idx].end = _clock()
        self.spans[idx].info = info
        self._stack.pop()

    def patch(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``describe(bound_args, result, exc)`` returns the span's info dict;
        it sees the exception when the call raised.  Generator functions get
        one span per resumption, with ``{"yielded": bool}`` as info.
        """
        orig = getattr(module, attr)
        if inspect.isgeneratorfunction(orig):
            wrapper = self._wrap_generator(orig, name)
        else:
            wrapper = self._wrap_call(orig, name, describe)
        setattr(module, attr, functools.wraps(orig)(wrapper))
        self._patched.append((module, attr, orig))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def _wrap_call(self, orig, name, describe):
        sig = inspect.signature(orig) if describe is not None else None

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                info = describe(_bind(sig, args, kwargs), None, exc) if describe else None
                self.close(idx, info)
                raise
            info = describe(_bind(sig, args, kwargs), result, None) if describe else None
            self.close(idx, info)
            return result

        return wrapper

    def _wrap_generator(self, orig, name):
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.close(idx, {"yielded": False})
                    return
                except BaseException:
                    self.close(idx, {"yielded": False})
                    raise
                self.close(idx, {"yielded": True})
                yield item

        return wrapper


def write(passes: list[list[Span]], path: str) -> str:
    """Write the spans of several passes as JSON lines; ``parent`` indexes
    the spans of the same pass, -1 marks a root."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for i, span_list in enumerate(passes):
            for j, sp in enumerate(span_list):
                fh.write(json.dumps({"pass": i, "id": j, "name": sp.name, "start": sp.start,
                                     "end": sp.end, "parent": sp.parent, "info": sp.info}) + "\n")
    return path


def _bind(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# -- describers for the wrapped entry points -----------------------------------


def describe_search(arguments, result, exc):
    """search_groups returns (assignment | None, nodes) and raises the
    solver's private budget exception once ``nodes > node_budget``; the node
    count of an overrun is therefore ``node_budget + 1``."""
    info = {"k": arguments["k"], "grouped": arguments.get("pair_ok") is not None}
    if exc is None:
        assignment, nodes = result
        info.update(nodes=nodes, refuted=assignment is None, exceeded=False)
    elif type(exc).__name__ == "_Budget":
        info.update(nodes=arguments["node_budget"] + 1, refuted=False, exceeded=True)
    else:
        info.update(nodes=0, refuted=False, exceeded=False)
    return info


def describe_decomposition(arguments, result, exc):
    return {"elements": 0 if exc is not None else len(result.elements)}


def describe_coloring(arguments, result, exc):
    stats = arguments.get("stats")
    rules = {} if stats is None else dict(vars(stats))
    return {"k": 0 if exc is not None else result.k, "rules": rules}


# -- aggregation -----------------------------------------------------------------

SOLVER_KS = ("1", "2", "3", "4", "5plus")

# counters that must repeat exactly for a fixed input
COUNT_KEYS = (
    "enumerate.graphs",
    "graph.canon_calls",
    "solver.calls",
    "solver.nodes",
    "solver.grouped.nodes",
    "solver.budget_exceeded",
    *(f"solver.k{k}.nodes" for k in SOLVER_KS),
    *(f"solver.k{k}.refuted" for k in SOLVER_KS),
    "decompose.elements",
    "decompose.colorable_checks",
    "decompose.colorable_nodes",
)


def _k_key(k: int) -> str:
    return str(k) if k <= 4 else "5plus"


def layer_metrics(spans: list[Span], rule_names) -> dict[str, float]:
    """Raw per-layer sums over one pass: self seconds per layer and counters.

    A span's self time is its duration minus the durations of its direct
    children; the layers' self times therefore add up to the root spans'
    total duration.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for key in COUNT_KEYS:
        m[key] = 0
    for k in SOLVER_KS:
        m[f"solver.k{k}.s"] = 0.0
    for layer in SELF_KEYS.values():
        m[f"{layer}.self_s"] = 0.0
    m["irregularity.verify_calls"] = 0
    m["solver.search_s"] = 0.0
    m["constructive.max_colors"] = 0
    for name in rule_names:
        m[f"constructive.rule.{name}"] = 0

    for i, sp in enumerate(spans):
        self_s = sp.end - sp.start - child[i]
        add(f"{sp.layer}.self_s", self_s)
        if sp.name == "enumerate.enumerate_graphs":
            add("enumerate.graphs", int(sp.info["yielded"]))
        elif sp.name == "graph.canon_adjacency":
            add("graph.canon_calls", 1)
        elif sp.name == "irregularity.verify_coloring":
            add("irregularity.verify_calls", 1)
        elif sp.name == "decompose.strongly_pertinent_decomposition":
            add("decompose.elements", sp.info["elements"])
        elif sp.name == "constructive.color_subcubic_4":
            m["constructive.max_colors"] = max(m["constructive.max_colors"], sp.info["k"])
            for name, value in sp.info["rules"].items():
                add(f"constructive.rule.{name}", value)
        elif sp.name == "solver.search_groups":
            info = sp.info
            k = _k_key(info["k"])
            add("solver.calls", 1)
            add("solver.nodes", info["nodes"])
            add("solver.search_s", self_s)
            add(f"solver.k{k}.nodes", info["nodes"])
            add(f"solver.k{k}.s", self_s)
            add(f"solver.k{k}.refuted", int(info["refuted"]))
            add("solver.budget_exceeded", int(info["exceeded"]))
            if info["grouped"]:
                add("solver.grouped.nodes", info["nodes"])
                if _has_ancestor(spans, sp, "decompose"):
                    add("decompose.colorable_checks", 1)
                    add("decompose.colorable_nodes", info["nodes"])
    return m


def _has_ancestor(spans, sp, layer) -> bool:
    while sp.parent >= 0:
        sp = spans[sp.parent]
        if sp.layer == layer:
            return True
    return False


def merge(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key == "constructive.max_colors":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


# each layer's self-time metric; together they cover a traced pass
SELF_KEYS = {
    "bench.s": "bench",
    "harness.s": "harness",
    "enumerate.s": "enumerate",
    "graph.canon_s": "graph",
    "solver.s": "solver",
    "decompose.s": "decompose",
    "constructive.s": "constructive",
    "irregularity.verify_s": "irregularity",
}


def finish(raw: dict) -> dict[str, float]:
    """Named per-layer metrics from merged raw sums."""
    out = {key: value for key, value in raw.items() if not key.endswith("self_s")}
    for key, layer in SELF_KEYS.items():
        out[key] = raw[f"{layer}.self_s"]
    calls = raw["graph.canon_calls"]
    out["graph.canon_yield"] = raw["enumerate.graphs"] / calls if calls else 0.0
    search_s = out.pop("solver.search_s")
    out["solver.nodes_per_s"] = raw["solver.nodes"] / search_s if search_s else 0.0
    return out
