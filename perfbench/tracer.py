"""Timing wrappers installed onto strongreal's public functions at run time.

`Tracer(layers).install()` replaces each named function, in every
``strongreal.*`` namespace that holds it, and each named method on its class,
with a wrapper that times the call; `uninstall()` puts the originals back.
The source is never edited.  Stage functions are kept as spans (name, start,
end, parent span); every wrapped call is also aggregated per (function,
immediate wrapped caller) as calls, total and self time, where self time is
the duration minus the time spent in wrapped callees.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Stage boundaries, kept as individual spans.  Everything else is a hot leaf
# and only aggregated, so memory stays bounded on million-call jobs.
SPAN_NAMES = frozenset(
    {
        "cli.main",
        "oracle.reconcile",
        "oracle.enumerate_group",
        "oracle.GroupEnumeration.involutions",
        "oracle.realize_class",
        "oracle.is_real_oracle",
        "oracle.is_strongly_real_oracle",
        "counting.cross_check_counts",
        "counting.series_K",
        "counting.series_R",
        "counting.series_T",
        "upoly.enumerate_u_irreducibles",
        "fields.FieldCtx.exp_log",
        "fields.FieldCtx.subfield_map",
    }
)
# Generator functions: each next() is timed as one call.
GENERATOR_NAMES = frozenset({"counting.iter_class_data"})
MAX_SPANS = 20000
PACKAGE = "strongreal"
ENUMERATE_GROUP = "oracle.enumerate_group"
MAT_MUL = "linalg.mat_mul"


def target_names(layers) -> list[str]:
    """`<module>.<function>` for every function of every layer, in order."""
    return [f"{module}.{fn}" for module, spec in layers.items() for fn in spec["functions"]]


class Recorder:
    """Call stack, per-caller aggregates and spans of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # frame: [name, start, child_s, span_id or None, enclosing span id]
        self.stack: list[list] = []
        self.aggregates: dict[tuple[str, str | None], list] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.group_depth = 0
        self.group_products = 0
        self.group_elements = 0

    def enter(self, name: str) -> None:
        enclosing = self.stack[-1][4] if self.stack else None
        span_id = None
        if name in SPAN_NAMES:
            if len(self.spans) < MAX_SPANS:
                span_id = len(self.spans)
                self.spans.append(None)  # filled in on exit
            else:
                self.spans_dropped += 1
        if name == ENUMERATE_GROUP:
            self.group_depth += 1
        elif name == MAT_MUL and self.group_depth:
            self.group_products += 1
        current = span_id if span_id is not None else enclosing
        self.stack.append([name, self.clock(), 0.0, span_id, current])

    def exit(self, result=None) -> None:
        end = self.clock()
        name, start, child_s, span_id, current = self.stack.pop()
        duration = end - start
        caller = None
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            caller = parent[0]
        agg = self.aggregates.setdefault((name, caller), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if span_id is not None:
            parent_span = self.stack[-1][4] if self.stack else None
            self.spans[span_id] = (span_id, name, start, end, parent_span)
        if name == ENUMERATE_GROUP:
            self.group_depth -= 1
            if self.group_depth == 0 and result is not None:
                self.group_elements += result.order

    def to_json(self) -> dict:
        return {
            "aggregates": [
                {"name": name, "caller": caller, "calls": c, "total_s": t, "self_s": s}
                for (name, caller), (c, t, s) in sorted(
                    self.aggregates.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            ],
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                # spans of calls still running when the record is taken are None
                for i, n, s, e, p in filter(None, self.spans)
            ],
            "spans_dropped": self.spans_dropped,
            "group_products": self.group_products,
            "group_elements": self.group_elements,
        }


def _wrap(recorder: Recorder, name: str, fn):
    if name in GENERATOR_NAMES:

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                recorder.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    recorder.exit()
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.exit(result)

    return wrapper


class Tracer:
    """Installs and removes the timing wrappers for the given layers."""

    def __init__(self, layers):
        self.names = target_names(layers)
        self.recorder = Recorder()
        self._patched: list[tuple[object, str, object]] = []

    @staticmethod
    def _namespaces():
        return [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name in self.names:
            module_name, _, attr = name.partition(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, _wrap(self.recorder, name, original))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(self.recorder, name, original)
            for ns in self._namespaces():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        """Restore every original and raise if any attribute is not restored."""
        patched, self._patched = self._patched, []
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)
        for owner, key, original in patched:
            current = vars(owner)[key]
            if current is not original:
                raise RuntimeError(f"{owner!r}.{key} was not restored")
