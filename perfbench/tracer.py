"""Layer tracing for the benchmark, patched into maxcurves from outside.

`Tracer.install` wraps the public functions and methods of every layer
module.  A wrapped module-level function (and each method named in
SPANNED_METHODS) records a span: name, start, end, parent span and op
id.  Methods of the classes in COUNTED_CLASSES run once per field
element or series coefficient, where a span would cost more than the
work it times, so they are only counted; their time stays in the self
time of the span that called them.  Each wrapper replaces the name in
every maxcurves module that imported it, so calls between modules are
caught too.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref

LAYERS = ("field_tower", "curve_model", "function_field", "linalg",
          "weierstrass", "verdicts", "agcode", "cli")

COUNTED_CLASSES = {"FieldTower", "CurveModel", "FuncElement"}
SPANNED_METHODS = {"CurveModel.enumerate_points", "CurveModel.maximality_report"}
# constructors are private names, but a curve built is a unit of work
COUNTED_PRIVATE = {"CurveModel.__init__"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # (name index, start, end, parent span index or -1, op id)
        self.spans: list[tuple | None] = []
        self.calls: dict[str, list[int]] = {}
        self.originals: dict[str, object] = {}
        self.points_enumerated = 0
        self.series_terms = 0
        self.towers: list = []
        self.op = -1
        self._stack = [-1]
        self._enumerated = weakref.WeakKeyDictionary()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        pkg = [m for name, m in sys.modules.items()
               if name == "maxcurves" or name.startswith("maxcurves.")]
        for layer in LAYERS:
            mod = sys.modules["maxcurves." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._span(obj, f"{layer}.{attr}")
                    for m in pkg:
                        if vars(m).get(attr) is obj:
                            setattr(m, attr, wrapped)
                elif inspect.isclass(obj):
                    self._patch_class(layer, obj)

    def _patch_class(self, layer: str, cls) -> None:
        for attr, meth in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if not inspect.isfunction(meth):
                continue
            if attr.startswith("_") and qual not in COUNTED_PRIVATE:
                continue
            name = f"{layer}.{qual}"
            if qual in SPANNED_METHODS:
                wrapped = self._span(meth, name)
            elif cls.__name__ in COUNTED_CLASSES:
                wrapped = self._counter(meth, name)
            else:
                wrapped = self._span(meth, name)
            setattr(cls, attr, wrapped)

    def _counter(self, fn, name: str):
        self.originals[name] = fn
        cell = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, name: str):
        self.originals[name] = fn
        idx = len(self.names)
        self.names.append(name)
        after = {
            "field_tower.build_tower": self._after_build_tower,
            "curve_model.CurveModel.enumerate_points": self._after_enumerate,
        }.get(name)
        before = self._before_local_expansion if name == "function_field.local_expansion" else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            pos = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(pos)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[pos] = (idx, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- per-call accounting that needs arguments or results ------------------

    def _after_build_tower(self, args, tower) -> None:
        self.towers.append(tower)

    def _after_enumerate(self, args, points) -> None:
        # a repeated call returns the curve's cached list; count each list once
        curve, level = args[0], args[1]
        seen = self._enumerated.setdefault(curve, set())
        if level not in seen:
            seen.add(level)
            self.points_enumerated += len(points)

    def _before_local_expansion(self, args, kwargs) -> None:
        prec = args[2] if len(args) > 2 else kwargs.get("prec")
        if prec is None:
            prec = self.originals["function_field.default_precision"](args[1].curve)
        self.series_terms += prec

    # -- reading the trace ---------------------------------------------------

    def call_counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.calls.items()}

    def span_table(self, op: int) -> dict:
        """Per span name within one op: calls, total seconds, self seconds.

        Also returns the number of row_echelon spans whose parent is an
        order_sequence.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[4] == op and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        table: dict[str, list[float]] = {}
        echelon_in_sequence = 0
        for i, s in enumerate(spans):
            if s[4] != op:
                continue
            name = self.names[s[0]]
            dur = s[2] - s[1]
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            if (s[3] >= 0 and name == "linalg.row_echelon"
                  and self.names[spans[s[3]][0]] == "weierstrass.order_sequence"):
                echelon_in_sequence += 1
        return {"spans": table, "echelon_in_sequence": echelon_in_sequence}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "spans": self.spans}, fh)
