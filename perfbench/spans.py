"""In-memory spans around the public functions of tableguess's modules.

A span is (name, start, end, parent span, op id, work items). Spans live in
flat arrays while the run lasts and are written out once it ends. The
tracer replaces module attributes, so it sees every call that goes through
a module's namespace, which is how predictor, regression and permstats
call each other and themselves.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import statistics
import time
from array import array
from collections import defaultdict

LAYERS = ("league", "predictor", "regression", "permstats", "_kernels")

# work items done by one call, recorded on its span
ITEMS = {
    "_kernels.score_distribution_counts": lambda n: math.factorial(n),
    "_kernels.mc_score_moments": lambda n, samples, seed: samples,
}

INCLUSIVE, SELF, CALLS, ITEM_COUNT = range(4)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.items = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, items: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.items.append(items)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        items = ITEMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id, items(*args, **kwargs) if items else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        """Wrap every public function defined in each module of ``LAYERS``."""
        for layer in LAYERS:
            module = importlib.import_module(f"tableguess.{layer}")
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{short}.{attr}", obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def rows(self):
        for i in range(len(self.start)):
            yield (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i], self.items[i])

    def write(self, path) -> None:
        """All spans as gzipped CSV: name,start,end,parent,op,items."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op,items\n")
            for row in self.rows():
                fh.write("%s,%.9f,%.9f,%d,%d,%d\n" % row)


class Profile:
    """Per-op totals of every span name, with self time taken from child spans.

    A span nested directly in a span of the same name (a recursive call) is
    not counted again in the inclusive time or the call count.
    """

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.start)
        dur = array("d", (e - s for s, e in zip(tracer.start, tracer.end)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.per_op: dict[int, dict[str, list]] = defaultdict(dict)
        self.call_times: dict[str, array] = defaultdict(lambda: array("d"))
        for i in range(n):
            name_id = tracer.name[i]
            name = tracer.names[name_id]
            acc = self.per_op[tracer.op[i]].setdefault(name, [0.0, 0.0, 0, 0])
            acc[SELF] += dur[i] - child[i]
            p = tracer.parent[i]
            if p < 0 or tracer.name[p] != name_id:
                acc[INCLUSIVE] += dur[i]
                acc[CALLS] += 1
                acc[ITEM_COUNT] += tracer.items[i]
                self.call_times[name].append(dur[i])

    def ops(self) -> list[int]:
        return sorted(op for op in self.per_op if op >= 0)

    def median_ms(self, name: str, field: int = INCLUSIVE) -> float:
        """Median over the ops that call ``name`` of its time in the op; 0 if none do."""
        values = [acc[name][field] for op, acc in self.per_op.items() if op >= 0 and name in acc]
        return statistics.median(values) * 1e3 if values else 0.0

    def per_op_mean(self, name: str, field: int) -> float:
        ops = self.ops()
        total = sum(self.per_op[op][name][field] for op in ops if name in self.per_op[op])
        return total / len(ops) if ops else 0.0

    def per_call_us(self, name: str) -> float:
        times = self.call_times.get(name)
        return statistics.median(times) * 1e6 if times else 0.0

    def rate(self, name: str) -> float:
        """Work items per second of inclusive time; 0 if ``name`` never ran."""
        busy = sum(acc[name][INCLUSIVE] for acc in self.per_op.values() if name in acc)
        items = sum(acc[name][ITEM_COUNT] for acc in self.per_op.values() if name in acc)
        return items / busy if busy else 0.0
