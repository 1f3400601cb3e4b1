"""Spans around calls into fairlime, recorded from outside the package.

A ``Tracer`` replaces a function with a timing wrapper in every
fairlime module that binds it, which is where its callers look it up,
and restores the originals on exit. Spans stay in memory: each records
its name, start, end, parent span and, for black-box scoring, the rows
scored. Self time is a span's duration minus the time its direct
children cover.
"""
from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, rows]
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, count_rows):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    len(args[1]) if count_rows else 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def wrap_function(self, name, fn):
        """Trace ``fn`` wherever a fairlime module binds it."""
        wrapper = self._wrap(name, fn, count_rows=False)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "fairlime":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def wrap_score(self, name, cls):
        """Trace ``cls.score``; calls through ``predict`` are included."""
        original = cls.__dict__["score"]
        self._patches.append((cls, "score", original))
        cls.score = self._wrap(name, original, count_rows=True)

    def restore(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, rows scored, total and self time, and
        calls and total time per parent span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, rows in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, rows) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "rows": 0, "total_s": 0.0,
                                          "self_s": 0.0, "by_parent": {}})
            duration = end - start
            entry["calls"] += 1
            entry["rows"] += rows
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            by_parent = entry["by_parent"].setdefault(
                str(parent_name), {"calls": 0, "total_s": 0.0})
            by_parent["calls"] += 1
            by_parent["total_s"] += duration
        return out

    def count_children(self, parent_name, child_name) -> tuple[int, int]:
        """(parent spans, direct child spans named ``child_name``)."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        children = sum(1 for s in self.spans
                       if s[0] == child_name and s[3] in parents)
        return len(parents), children

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rows) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "rows": rows}) + "\n")
