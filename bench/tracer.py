"""Out-of-program tracing: wrap the public functions of each liealg module.

A module that does ``from .linalg import lu_solve`` holds its own binding of
the function, so patching ``linalg.lu_solve`` alone would miss its calls.
:meth:`Tracer.install` therefore replaces every name, in every liealg module
namespace, that is bound to a wrapped function, and :meth:`Tracer.uninstall`
puts the originals back.

Spans are kept in memory as parallel arrays (name, parent, start, end), one
entry per call.  Self time is a span's duration minus the durations of its
child spans; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("partitions", "operators", "lifting", "linalg", "audits", "bvp", "cli")
PACKAGE = "liealg"
# cli's public entry points are not listed in an __all__
CLI_PUBLIC = ("build_config", "run", "main")


# computed work counts, from a wrapped call's arguments and result
COUNTERS = {
    "linalg.lu_factor.flops": ("linalg.lu_factor",
                               lambda args, result: 2.0 * len(args[0]) ** 3 / 3.0),
    "lifting.realize.bytes": ("lifting.realize", lambda args, result: 8.0 * result.size),
    "lifting.grid_eval.points": ("lifting.grid_eval", lambda args, result: float(result.size)),
}


def public_functions(module) -> list[str]:
    """Names of the functions a liealg module defines and exports."""
    names = CLI_PUBLIC if module.__name__ == f"{PACKAGE}.cli" else module.__all__
    return [name for name in names
            if inspect.isfunction(getattr(module, name, None))
            and getattr(module, name).__module__ == module.__name__]


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        counters = [(key, count) for key, (target, count) in COUNTERS.items() if target == name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, counts = self.span_start, self.span_end, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            for key, count in counters:
                counts[key] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name in public_functions(module):
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        package = importlib.import_module(PACKAGE)
        for namespace in [package, *self.modules]:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    self._patched.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for namespace, attr, original in self._patched:
            setattr(namespace, attr, original)
        self._patched.clear()

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def self_ns(self) -> list[int]:
        """Self time of every span, in nanoseconds."""
        own = [end - start for start, end in zip(self.span_start, self.span_end)]
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= self.span_end[idx] - self.span_start[idx]
        return own

    def totals(self) -> tuple[dict, dict]:
        """Calls and self nanoseconds per span name, over all spans."""
        own = self.self_ns()
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for idx in range(self.span_count):
            name = self.names[self.span_name[idx]]
            calls[name] += 1
            self_ns[name] += own[idx]
        return calls, self_ns

    def write(self, path, op_of_span, meta: dict) -> None:
        """All spans as gzipped JSON lines: name, parent, start/end ns, op index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(meta) + "\n")
            for idx in range(self.span_count):
                fh.write(json.dumps([idx, self.names[self.span_name[idx]], self.span_parent[idx],
                                     self.span_start[idx], self.span_end[idx],
                                     op_of_span(idx)]) + "\n")
