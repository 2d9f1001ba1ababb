"""Span tracing around turanlab's layer functions, from outside the package.

Each target is replaced at its import site by a wrapper for the duration of
one traced unit, then restored.  Spans (name, start, end, parent span, unit)
stay in memory and are written out when the run ends.  A target that no
longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

# (layer, module, attribute path at the import site the scan code uses)
TARGETS = (
    ("graph.from_graph6", "turanlab.scanner", "from_graph6"),
    ("graph.to_graph6", "turanlab.scanner", "to_graph6"),
    ("graph.random_gnp", "turanlab.scanner", "random_gnp"),
    ("inequalities.GraphContext", "turanlab.scanner", "GraphContext"),
    ("inequalities.evaluate_entry", "turanlab.scanner", "evaluate_entry"),
    ("batch.BatchContext", "turanlab.scanner", "bt.BatchContext"),
    ("spectra.eigenvalues", "turanlab.spectra", "eigenvalues"),
    ("spectra.walk_counts", "turanlab.spectra", "walk_counts"),
    ("cliques.clique_profile", "turanlab.cliques", "clique_profile"),
    ("cliques.max_clique", "turanlab.cliques", "max_clique"),
    ("cliques.predicates", "turanlab.cliques", "predicates"),
    ("scanner.ScanReport.to_json_bytes", "turanlab.scanner", "ScanReport.to_json_bytes"),
    ("scanner.scan", "turanlab.scanner", "scan"),
)

CALL_COUNTED = ("graph.to_graph6", "cliques.max_clique", "inequalities.evaluate_entry")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None, attr
    return (owner, attr) if hasattr(owner, attr) else (None, attr)


class Tracer:
    def __init__(self):
        self.spans: list = []         # (name, start_ns, end_ns, parent index, unit)
        self.unit = -1
        self.missing: list[str] = []
        self.walk_calls: list[tuple[int, int, int]] = []   # (unit, graph ordinal, r)
        self.batch_masks = 0
        self._stack: list[int] = []
        self._graph_ordinal = 0
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def note(args):
            if name == "inequalities.GraphContext":
                self._graph_ordinal += 1
            elif name == "spectra.walk_counts":
                self.walk_calls.append((self.unit, self._graph_ordinal, int(args[1])))
            elif name == "batch.BatchContext":
                self.batch_masks += len(args[1])

        def wrapper(*args, **kwargs):
            note(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.unit)

        return wrapper

    def install(self, unit: int):
        self.unit = unit
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            if owner is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, graphs: int, processed: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics normalised per input graph over all traced units."""
        graphs = max(graphs, 1)
        self_ns: dict[str, int] = {name: 0 for name, _, _ in TARGETS}
        calls: dict[str, int] = {name: 0 for name, _, _ in TARGETS}
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            self_ns[name] += t1 - t0 - child_ns[i]
            calls[name] += 1

        steps = sum(r - 1 for _, _, r in self.walk_calls)
        largest: dict[tuple[int, int], int] = {}
        for unit, ordinal, r in self.walk_calls:
            largest[(unit, ordinal)] = max(largest.get((unit, ordinal), 1), r)
        useful_steps = sum(r - 1 for r in largest.values())

        out = {}
        for name, _, _ in TARGETS:
            if name in self.missing:
                continue
            out[f"{name}.self_us_per_graph"] = (self_ns[name] / 1e3 / graphs, "us")
            if name in CALL_COUNTED:
                out[f"{name}.calls_per_graph"] = (calls[name] / graphs, "count")
        if "spectra.walk_counts" not in self.missing:
            out["spectra.walk_counts.steps_per_graph"] = (steps / graphs, "count")
            out["spectra.walk_counts.useful_ratio"] = (useful_steps / steps if steps else 0.0, "ratio")
        if "batch.BatchContext" not in self.missing:
            out["batch.BatchContext.useful_ratio"] = (
                processed / self.batch_masks if self.batch_masks else 0.0, "ratio")
        out["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio")
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
