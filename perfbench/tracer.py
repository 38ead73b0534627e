"""Outside-in spans around supersympoly's public functions.

The package source is not edited: ``install`` replaces each public
function, and a few hot methods, with a wrapper that records a span
(name, start, end, parent).  Every namespace that bound the function
by name is patched too (``decompose.v_k`` as well as ``generators.v_k``,
the package namespace as well as the defining module), so internal
calls land in the right span.  ``Poly.__rmul__`` and ``__radd__`` are
aliases of ``__mul__`` and ``__add__``; they are the same function
object and get the same wrapper.

Spans stay in memory in flat arrays and are written out when the pass
ends.  ``summarize`` turns them into per-name calls and self time, where
self time is a span's duration minus the durations of its children
(children of one span never overlap: the worker is single threaded).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# O(1) helpers whose spans would cost more than the work they time.
SKIP = frozenset({
    "is_odd_prime", "fp_inv", "symbol_weight", "block_span",
    "zero", "one", "constant", "trace_decomposition",
})


def _mul_pairs(args, kwargs, result):
    other = args[1]
    return len(args[0].terms) * len(other.terms) if hasattr(other, "terms") else 0


def _init_terms(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["terms"])


def _span_rank(args, kwargs, result):
    return args[0].dimension


# (module, class, method) -> (span name, counter name, counter function)
METHODS = (
    ("poly_core", "Poly", "__init__", "poly_core.init", "poly_core.init.terms", _init_terms),
    ("poly_core", "Poly", "__mul__", "poly_core.mul", "poly_core.mul.term_pairs", _mul_pairs),
    ("poly_core", "Poly", "__add__", "poly_core.add", None, None),
    ("genexpr", "GenSpan", "__init__", "genexpr.span_build", "genexpr.span_build.rank", _span_rank),
    ("genexpr", "GenSpan", "solve", "genexpr.span_solve", None, None),
)


class Tracer:
    """Span store of one process: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, counter=None, count=None):
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if counter is not None:
                counters[counter] += count(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def dump(self, path: str):
        """Write the spans (binary arrays) and a JSON header next to them."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start),
                       "counters": dict(self.counters)}, fh)


def load(path: str):
    """Read back what Tracer.dump wrote: (names, counters, four arrays)."""
    with open(path + ".json", encoding="utf-8") as fh:
        head = json.load(fh)
    n = head["spans"]
    arrays = []
    with open(path + ".bin", "rb") as fh:
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return head["names"], head["counters"], arrays


def install(tracer: Tracer, package):
    """Wrap the package's public functions and hot methods."""
    prefix = package.__name__ + "."
    modules = [m for name, m in list(sys.modules.items())
               if name == package.__name__ or name.startswith(prefix)]
    wrappers = {}
    for mod in modules:
        short = mod.__name__[len(prefix):]
        if not short:
            continue
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and attr not in SKIP
                    and not inspect.isgeneratorfunction(fn)):
                wrappers[fn] = tracer.wrap(f"{short}.{attr}", fn)
    for modname, clsname, meth, name, counter, count in METHODS:
        cls = getattr(sys.modules.get(prefix + modname), clsname, None)
        fn = vars(cls).get(meth) if cls is not None else None
        if fn is None:
            continue
        wrapped = tracer.wrap(name, fn, counter, count)
        for attr, value in list(vars(cls).items()):
            if value is fn:  # catches the __rmul__ / __radd__ aliases
                setattr(cls, attr, wrapped)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])


def summarize(names, name_id, parent, start, end) -> dict:
    """Per span name: calls, total and self seconds, calls without children,
    and how many children each other name had under it."""
    n = len(start)
    child_time = [0.0] * n
    has_child = bytearray(n)
    under: dict = defaultdict(int)
    for i in range(n):
        par = parent[i]
        if par >= 0:
            child_time[par] += end[i] - start[i]
            has_child[par] = 1
            under[(names[name_id[par]], names[name_id[i]])] += 1
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "leaf_calls": 0} for name in names}
    for i in range(n):
        row = stats[names[name_id[i]]]
        dur = end[i] - start[i]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[i]
        row["leaf_calls"] += 0 if has_child[i] else 1
    return {"stats": stats, "under": dict(under)}
