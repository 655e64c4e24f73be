"""Outside-in tracing of wildram's layers.

The tracer wraps the public functions of each layer module, plus a few
hot element-level methods, from outside the package.  Wrapped functions
record a span (id, parent id, name, start, end, time spent in hot
children); hot methods only aggregate a call count and their self time,
because recording a span for each of hundreds of thousands of field
multiplies would cost more than the multiplies.  Spans stay in memory
and are handed back by `report()` when the run ends.

`derive()` turns a report into per-callable calls and self time, where
self time is a span's duration minus its child spans and hot children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time

LAYERS = ("field", "additive", "witt", "ramify", "cover", "rayclass", "cli")

# element-level methods: (module, class, attribute names, metric name)
HOT_METHODS = (
    ("field", "FqElem", ("__mul__", "__rmul__"), "field.FqElem.mul"),
    ("field", "FqElem", ("frobenius",), "field.FqElem.frobenius"),
    ("field", "FqPoly", ("__mul__", "__rmul__"), "field.FqPoly.mul"),
    ("field", "FqPoly", ("compose",), "field.FqPoly.compose"),
    ("witt", "WittVec", ("__add__",), "witt.WittVec.add"),
)


def _digit_tensor_bytes(counts, ctx, m, *args, **kwargs):
    size = (ctx.q - 1) * m * ctx.e * 8
    counts["bytes"] = max(counts.get("bytes", 0), size)


def _brute_units(counts, ctx, m, *args, **kwargs):
    counts["units"] = counts.get("units", 0) + ctx.q ** (m - 1)


# per-call counters: metric name -> fn(counts, *args, **kwargs)
COUNTERS = {
    "rayclass.digit_tensor": _digit_tensor_bytes,
    "rayclass.brute_ray_class": _brute_units,
}


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack = []    # open frames: [ns in child spans, ns in hot children]
        self.current = 0   # id of the innermost open span, 0 at top level
        self.ids = itertools.count(1)
        self.spans = []    # (id, parent id, name, start ns, end ns, hot ns)
        self.hot = {}      # name -> [calls, self ns]
        self.counters = {}

    def span(self, name, fn):
        """Wrap fn so that each call records a span."""
        clock, stack, spans, ids = self.clock, self.stack, self.spans, self.ids
        count = COUNTERS.get(name)
        counts = self.counters.setdefault(name, {}) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                count(counts, *args, **kwargs)
            parent = self.current
            sid = self.current = next(ids)
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.current = parent
                spans.append((sid, parent, name, start, end, frame[1]))
                if stack:
                    stack[-1][0] += end - start
        return wrapper

    def hot_method(self, name, fn):
        """Wrap fn so that calls only add to a count and a self time."""
        clock, stack = self.clock, self.stack
        agg = self.hot.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                agg[0] += 1
                agg[1] += dur - frame[0] - frame[1]
                if stack:
                    # spans nested in a hot call stay visible to the span
                    # above it, so pass their time up as span time
                    stack[-1][0] += frame[0]
                    stack[-1][1] += dur - frame[0]
        return wrapper

    def install(self):
        """Wrap every layer's public functions and the hot methods.

        Names imported elsewhere (`from .rayclass import digit_tensor` in
        cli, re-exports in the package) are rebound too, by identity.
        """
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "wildram" or name.startswith("wildram.")}
        swaps = {}
        for layer in LAYERS:
            mod = mods["wildram." + layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    swaps[id(obj)] = (obj, self.span("%s.%s" % (layer, attr), obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swaps and swaps[id(obj)][0] is obj:
                    setattr(mod, attr, swaps[id(obj)][1])
        for layer, cls_name, attrs, name in HOT_METHODS:
            cls = getattr(mods["wildram." + layer], cls_name)
            wrapped = self.hot_method(name, getattr(cls, attrs[0]))
            for attr in attrs:
                setattr(cls, attr, wrapped)

    def report(self):
        return {"spans": self.spans, "hot": self.hot, "counters": self.counters}


def derive(report):
    """{name: {"calls": n, "self_ns": t, **counters}} from a tracer report."""
    spans = report["spans"]
    child_ns = {}
    for sid, parent, name, start, end, hot_ns in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    out = {}
    for sid, parent, name, start, end, hot_ns in spans:
        entry = out.setdefault(name, {"calls": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns.get(sid, 0) - hot_ns
    for name, (calls, self_ns) in report["hot"].items():
        out[name] = {"calls": calls, "self_ns": self_ns}
    for name, counts in report["counters"].items():
        out.setdefault(name, {"calls": 0, "self_ns": 0}).update(counts)
    return out
