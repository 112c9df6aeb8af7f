"""Spans around the benchmark's calls into the package.

A span is (name, query id, parent span index, start ns, end ns), named
`<module>.<function>` after the package function it wraps.  Spans are kept
in memory and written out once the run ends.  The untraced twin runs the
same calls with no bookkeeping, so one query flow serves both runs.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Untraced:
    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans = []
        self.query = None
        self._open = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, self.query, parent, start, end)

    def by_query(self) -> dict:
        """query id -> {span name: total ns}, plus "flow.layers": the time
        of the layer calls made directly inside each "ctlbench.query" span."""
        out = {}
        for name, query, parent, start, end in self.spans:
            totals = out.setdefault(query, {})
            totals[name] = totals.get(name, 0) + end - start
            if parent is not None and self.spans[parent][0] == "ctlbench.query":
                totals["flow.layers"] = totals.get("flow.layers", 0) + end - start
        return out

    def self_ns_by_layer(self) -> dict:
        """Per layer (the module part of a span name): total span time less
        the part covered by child spans."""
        child_ns = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals = {}
        for (name, _, _, start, end), covered in zip(self.spans, child_ns):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0) + end - start - covered
        return totals

    def write(self, path) -> None:
        keys = ("name", "query", "parent", "start_ns", "end_ns")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))
