"""Traced request runner and the span arithmetic behind the per-layer metrics.

Run as a script, this serves one CLI request in its own process, with timing
wrappers installed at the layer boundaries of derivgraph, and writes the
request's spans to a file when it ends:

    PYTHONPATH=src python benchmarks/tracing.py SPANS.json REQUEST_ID -- \\
        table --regime ode --order 6

A wrapper replaces a name only in the namespace of the module that calls it,
so calls a module makes to its own functions (recursion included) stay
unwrapped.  A boundary whose name no longer exists is recorded as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

# (calling module, name bound there, span name).  The span name is the
# module that defines the function, then the function.
BOUNDARIES = (
    ("derivgraph.cli", "parse_skeleton", "skeletons.parse_skeleton"),
    ("derivgraph.cli", "enumerate_graphs", "enumeration.enumerate_graphs"),
    ("derivgraph.formulas", "enumerate_graphs", "enumeration.enumerate_graphs"),
    ("derivgraph.verify", "enumerate_graphs", "enumeration.enumerate_graphs"),
    ("derivgraph.enumeration", "canonicalize", "trees.canonicalize"),
    ("derivgraph.cli", "weigh", "weights.weigh"),
    ("derivgraph.formulas", "weigh", "weights.weigh"),
    ("derivgraph.verify", "weigh", "weights.weigh"),
    ("derivgraph.weights", "symmetry_number", "trees.symmetry_number"),
    ("derivgraph.weights", "complexity_number", "trees.complexity_number"),
    ("derivgraph.cli", "render_derivative", "formulas.render_derivative"),
    # render_term is called from its own module, but it is not recursive:
    # it is the per-term step inside render_derivative.
    ("derivgraph.formulas", "render_term", "formulas.render_term"),
    ("derivgraph.cli", "format_tree", "trees.format_tree"),
    ("derivgraph.formulas", "format_tree", "trees.format_tree"),
    ("derivgraph.verify", "format_tree", "trees.format_tree"),
    ("derivgraph.cli", "verify", "verify.verify"),
    ("derivgraph.verify", "jet_compose", "jets.jet_compose"),
    ("derivgraph.verify", "jet_reverse", "jets.jet_reverse"),
    ("derivgraph.verify", "jet_ode_flow", "jets.jet_ode_flow"),
    ("derivgraph.verify", "bivariate_compose", "jets.bivariate_compose"),
)

# Spans whose result length is recorded as the work they emitted.
SIZED = frozenset({"enumeration.enumerate_graphs"})


# ---------------------------------------------------------------------------
# Traced-process side: spans are (name, start_ns, end_ns, parent index or -1,
# result size or None, raised).


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack = [-1]

    def wrap(self, fn, name: str):
        spans, stack, sized = self.spans, self._stack, name in SIZED

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            size, raised = None, False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    size = len(result)
                return result
            except Exception:
                raised = True
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, size, raised)

        return traced

    def install(self, boundaries=BOUNDARIES) -> list[str]:
        """Wrap every boundary that exists; return the absent ones."""
        absent = []
        for module_name, attr, span_name in boundaries:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{module_name}.{attr}")
            else:
                setattr(module, attr, self.wrap(fn, span_name))
        return absent


def _serve(spans_path: str, request_id: int, argv: list[str]) -> int:
    tracer = Tracer()
    absent: list[str] = []
    code = 1
    try:
        cli = tracer.wrap(lambda: importlib.import_module("derivgraph.cli"), "import")()
        absent = tracer.install()
        code = tracer.wrap(cli.main, "cli.main")(argv)
        sys.stdout.flush()
    finally:
        record = {"request": request_id, "absent": absent, "exit": code, "spans": tracer.spans}
        with open(spans_path, "w") as f:
            json.dump(record, f, separators=(",", ":"))
    return code


# ---------------------------------------------------------------------------
# Analysis side.


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def request_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced request from its spans and wall time.

    ``process.other_s`` is the part of the wall time no span covers
    (interpreter start-up and exit, this script), so the self times of all
    spans plus ``process.other_s`` add up to ``wall_s``.
    """
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _, size, raised), self_ns in zip(spans, self_times(spans)):
        layer = name.split(".")[0]
        totals[f"{name}.s"] += (end - start) / 1e9
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_ns / 1e9
        totals[f"{layer}.self_s"] += self_ns / 1e9
        totals[f"{layer}.errors"] += raised
        if size is not None:
            totals[f"{layer}.graphs"] += size
    graphs = totals["enumeration.graphs"]
    if graphs:
        totals["enumeration.us_per_graph"] = totals["enumeration.enumerate_graphs.s"] * 1e6 / graphs
        totals["enumeration.candidates_per_graph"] = totals["trees.canonicalize.calls"] / graphs
    roots = sum((end - start) for _, start, end, parent, _, _ in spans if parent < 0)
    totals["process.other_s"] = wall_s - roots / 1e9
    return totals


def median_metrics(per_request: list[dict[str, float]], names) -> dict[str, float]:
    """Median over requests of each named metric; a metric never seen is 0."""
    return {name: median(m.get(name, 0.0) for m in per_request) for name in names}


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracing.py SPANS_FILE REQUEST_ID -- CLI_ARGS...")
    raise SystemExit(_serve(sys.argv[1], int(sys.argv[2]), sys.argv[4:]))
