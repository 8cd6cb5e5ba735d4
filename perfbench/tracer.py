"""Runtime span tracing of finkit's public functions.

The tracer wraps functions from the outside; no file of the package changes.
Every wrapper records one span per call (per resumption, for a generator):
name, start, end, parent span and query id.  Spans are kept in flat arrays,
and a layer's self time is its span durations minus the time its direct
child spans cover.

Three properties of the package shape how wrappers are installed:

- Modules import names with ``from .core import ...``, so a function is
  bound in several module namespaces.  install() replaces every binding of
  the original object in the package and in every finkit module.
- core.sequences_over recurses through its module-global name.  A generator
  wrapper called from the generator's own body hands back the raw
  generator, so only the outermost call is counted and timed.
- Generators (sequences_over, condensations, window_elements, ...) are timed
  once per resumption; the consumer's work between resumptions is not theirs.

The scan primitives in finkit.parallel run a search's private worker
closure.  Its spans carry the name of the public function that defined the
worker (``gowers.gowers_search`` for its branch DFS), so a search's own work
counts as that search's self time and not as the scan's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("core", "parallel", "gowers", "canonical", "forcing", "coideals", "net", "cli")
METHODS = (
    ("gowers", "ColoringSpec", "color"),
    ("canonical", "EquivRelSpec", "holds"),
    ("forcing", "FamilySpec", "contains"),
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.qid = [-1]
        self.counts: Counter = Counter()
        self.span_inputs: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _opener(self, name: str):
        """A function that opens a span named `name` and returns its index;
        close it with ``tracer.end[idx] = clock(); tracer.stack.pop()``."""
        nid = self._name_id(name)
        names, parents, queries = self.name.append, self.parent.append, self.query.append
        starts, ends_append, ends = self.start.append, self.end.append, self.end
        stack, qid, clock = self.stack, self.qid, time.perf_counter

        def open_span() -> int:
            idx = len(ends)
            names(nid)
            parents(stack[-1])
            queries(qid[0])
            ends_append(0.0)
            stack.append(idx)
            starts(clock())
            return idx

        return open_span

    def timed(self, name: str, fn, calls_key=None, pre=None, post=None):
        """fn wrapped to record a span per call, bump calls_key and run the
        counter hooks pre(tracer, args) -> args and post(tracer, args, result)."""
        open_span = self._opener(name)
        ends, stack, clock, counts = self.end, self.stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls_key is not None:
                counts[calls_key] += 1
            if pre is not None:
                args = pre(self, args)
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def timed_generator(self, name: str, fn):
        open_span = self._opener(name)
        ends, stack, clock, counts = self.end, self.stack, time.perf_counter, self.counts
        calls_key, yielded_key = f"{name}.calls", f"{name}.yielded"
        code, caller = fn.__code__, sys._getframe

        def resumptions(gen):
            while True:
                idx = open_span()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    stack.pop()
                counts[yielded_key] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller(1).f_code is code:
                return fn(*args, **kwargs)  # recursion: part of the outer resumption
            counts[calls_key] += 1
            return resumptions(fn(*args, **kwargs))

        return wrapper

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self.timed_generator(name, fn)
        return self.timed(name, fn, f"{name}.calls", _PRE.get(name), _POST.get(name))

    def install(self) -> None:
        """Wrap every public function of the finkit modules and the spec
        methods, rebinding each original wherever a finkit module names it."""
        modules = [importlib.import_module("finkit")]
        replace = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"finkit.{mod_name}")
            modules.append(mod)
            for attr, obj in vars(mod).items():
                name = f"{mod_name}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    replace[id(obj)] = self.wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"finkit.{mod_name}"), cls_name)
            name = f"{mod_name}.{cls_name}.{meth}"
            setattr(cls, meth, self.timed(name, getattr(cls, meth), f"{name}.calls"))

    def totals(self) -> dict[str, float]:
        """Per span name: span count and self seconds, plus every counter."""
        n = len(self.end)
        start, end, parent = self.start, self.end, self.parent
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Counter = Counter(self.counts)
        names = self.names
        for i, nid in enumerate(self.name):
            name = names[nid]
            out[f"{name}.spans"] += 1
            out[f"{name}.self_s"] += dur[i] - child[i]
        out["core.span_enumerate.distinct_inputs"] = len(self.span_inputs)
        out["trace.spans"] = n
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as a JSON header line followed by the five arrays."""
        header = {
            "names": self.names,
            "spans": len(self.end),
            "arrays": ["name:i", "parent:i", "query:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.query, self.start, self.end):
                arr.tofile(fh)


# -- counters kept at the layer boundary where the work happens ----------------


def _span_enumerate_post(t, args, result):
    t.counts["core.span_enumerate.elements"] += len(result)
    t.span_inputs.add((t.qid[0], args[0], args[1]))


def _decompose_post(t, args, result):
    if result is not None:
        t.counts["core.decompose.hits"] += 1


def _nodes_post(key):
    def post(t, args, result):
        t.counts[key] += result.nodes_explored

    return post


def _verify_post(t, args, result):
    t.counts["gowers.verify_finite_gowers.colorings_checked"] += result.colorings_checked


def _scan_pre(name):
    """Count the items a scan is handed and the ones its worker examines, and
    time the worker under the public function that defined it."""

    def pre(t, args):
        items, worker = args[0], args[1]
        t.counts[f"{name}.items"] += len(items)
        owner = worker.__qualname__.split(".<locals>")[0]
        owner = f"{worker.__module__.rpartition('.')[2]}.{owner}"
        timed = t.timed(owner, worker, f"{name}.examined")
        return (items, timed) + tuple(args[2:])

    return pre


_POST = {
    "core.span_enumerate": _span_enumerate_post,
    "core.decompose": _decompose_post,
    "gowers.gowers_search": _nodes_post("gowers.gowers_search.nodes"),
    "gowers.ramsey2_search": _nodes_post("gowers.ramsey2_search.nodes"),
    "gowers.verify_finite_gowers": _verify_post,
}
_PRE = {
    "parallel.first_hit": _scan_pre("parallel.first_hit"),
    "parallel.counted_scan": _scan_pre("parallel.counted_scan"),
}
