"""Per-layer spans and work counters, recorded from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper in every ``letterlink`` namespace (and module-level
list) that holds the function, so calls made through ``from .x import f``
bindings, such as ``lie.solve_unique`` or ``diagram.prefix_potential``,
also open a span.  A span is (invocation, function, start, end, parent);
spans stay in memory until the run ends.  A layer's self time is the time
of its spans minus the time of their child spans.

The counters are computed from the arguments and results of wrapped calls,
so they depend only on the inputs, never on timing.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from math import factorial
from time import perf_counter

LAYERS = ("cli", "words", "symbols", "linking", "eil", "lie", "fox",
          "linalg", "diagram", "selfcheck")


def _cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _bijections(graph, tree) -> int:
    """Label-preserving bijections of graph vertices onto tree leaves."""
    labels = sorted(sym.letter for _, sym in graph.vertices)
    leaves = tree.leaves()
    if labels != sorted(leaves):
        return 0
    out = 1
    for letter in set(leaves):
        out *= factorial(leaves.count(letter))
    return out


# (layer, function) -> f(args, result) -> {counter: increment}
COUNTERS = {
    ("cli", "main"): lambda a, r: {"cli.calls": 1},
    ("words", "parse_word"): lambda a, r: {"words.letters": len(r)},
    ("symbols", "parse_symbol"): lambda a, r: {"symbols.nodes": r.node_count()},
    ("linking", "eval_symbol"):
        lambda a, r: {"linking.letter_nodes": len(a[1]) * a[0].node_count()},
    ("eil", "reduce_at"): lambda a, r: {"eil.reduce_terms": len(r)},
    ("eil", "canonical_form"): lambda a, r: {"eil.canonical_calls": 1},
    ("eil", "enumerate_distinct_vertex_graphs"):
        lambda a, r: {"eil.trees_kept": len(r)},
    ("lie", "graph_tree_pairing"):
        lambda a, r: {"lie.pairing_calls": 1, "lie.bijections": _bijections(*a[:2])},
    ("lie", "configuration_pairing"):
        lambda a, r: {"lie.pairing_calls": 1, "lie.bijections": 1},
    ("fox", "fox_derivative"):
        lambda a, r: {"fox.derivative_calls": 1, "fox.ring_terms": len(r.terms)},
    ("linalg", "rank"): lambda a, r: {"linalg.rank_calls": 1, "linalg.cells": _cells(a[0])},
    ("linalg", "solve"): lambda a, r: {"linalg.solve_calls": 1, "linalg.cells": _cells(a[0])},
    ("diagram", "render_diagram"): lambda a, r: {"diagram.calls": 1},
}

COUNTER_NAMES = (
    "cli.calls", "words.letters", "symbols.nodes", "linking.letter_nodes",
    "eil.reduce_terms", "eil.canonical_calls", "eil.trees_kept",
    "lie.pairing_calls", "lie.bijections", "fox.derivative_calls",
    "fox.ring_terms", "linalg.rank_calls", "linalg.solve_calls",
    "linalg.cells", "diagram.calls",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []        # "layer.function", by function index
        self.layer_of: list[int] = []     # layer index, by function index
        self.invocation = array("l")
        self.function = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counters = {name: 0 for name in COUNTER_NAMES}
        self.current = 0                  # invocation id stamped on new spans
        self._restore: list = []

    # --- installation ---

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "letterlink" or name.startswith("letterlink.")}
        wrappers = {}
        for layer_index, layer in enumerate(LAYERS):
            module = modules[f"letterlink.{layer}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(fn, layer_index, layer, name)
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module.__dict__, name, wrappers[id(value)])
                elif isinstance(value, list):
                    self._rebind_list(value, wrappers)

    def _rebind(self, namespace, key, new):
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = new

    def _rebind_list(self, items: list, wrappers) -> None:
        """Lists of functions or of tuples holding them (selfcheck.CHECKS)."""
        for i, item in enumerate(items):
            if id(item) in wrappers:
                self._rebind(items, i, wrappers[id(item)])
            elif isinstance(item, tuple) and any(id(x) in wrappers for x in item):
                self._rebind(items, i, tuple(wrappers.get(id(x), x) for x in item))

    def uninstall(self) -> None:
        for namespace, key, old in reversed(self._restore):
            namespace[key] = old
        self._restore.clear()

    def _wrap(self, fn, layer_index: int, layer: str, name: str):
        index = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer_index)
        count = COUNTERS.get((layer, name))
        counters = self.counters
        stack = self.stack
        spans_start, spans_end = self.start, self.end
        spans_parent, spans_function, spans_invocation = (
            self.parent, self.function, self.invocation)
        tracer = self

        def wrapper(*args, **kwargs):
            span = len(spans_start)
            spans_parent.append(stack[-1] if stack else -1)
            spans_function.append(index)
            spans_invocation.append(tracer.current)
            spans_end.append(0.0)
            stack.append(span)
            spans_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[span] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    counters[key] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # --- results ---

    def _span_self_times(self) -> list[float]:
        """Seconds per span, span time minus child span time."""
        n = len(self.start)
        out = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for i, seconds in enumerate(self._span_self_times()):
            out[LAYERS[self.layer_of[self.function[i]]]] += seconds
        return out

    def function_self_times(self, top: int) -> dict[str, dict]:
        """Self time of the ``top`` busiest functions, split by the layer of
        the calling span ("none" for a call from outside the package)."""
        table: dict[str, dict[str, float]] = {}
        for i, seconds in enumerate(self._span_self_times()):
            p = self.parent[i]
            caller = LAYERS[self.layer_of[self.function[p]]] if p >= 0 else "none"
            by_caller = table.setdefault(self.names[self.function[i]], {})
            by_caller[caller] = by_caller.get(caller, 0.0) + seconds
        ranked = sorted(table.items(), key=lambda kv: -sum(kv[1].values()))
        return {name: {"self_s": sum(by_caller.values()), "by_caller": by_caller}
                for name, by_caller in ranked[:top]}

    def canonicalized_in_enumeration(self) -> int:
        """canonical_form spans opened directly by the tree enumeration."""
        enum = self.names.index("eil.enumerate_distinct_vertex_graphs")
        canon = self.names.index("eil.canonical_form")
        return sum(1 for i in range(len(self.start))
                   if self.function[i] == canon and self.parent[i] >= 0
                   and self.function[self.parent[i]] == enum)

    def write(self, path) -> None:
        """One line per span: invocation, function, start and end in
        microseconds from the first span, parent span index (-1: none)."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as out:
            out.write("invocation\tfunction\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{self.invocation[i]}\t{self.names[self.function[i]]}\t"
                          f"{(self.start[i] - origin) * 1e6:.1f}\t"
                          f"{(self.end[i] - origin) * 1e6:.1f}\t{self.parent[i]}\n")
