"""Spans and counters recorded from outside the package.

``Tracer.instrument(layers)`` replaces each listed function with a
wrapper in the namespace of every ``ellipticlab`` module that holds it, so
calls made inside the package (``ellipticlab.suites.solve_pucci``,
``ellipticlab.solvers.hessian``, ...) are seen as well as the benchmark's
own calls.  Nothing under ``src/`` changes; leaving the ``with`` block puts
the original functions back.

A span is ``[name, key, start, end, parent]``: ``key`` tells calls of one
layer apart (grid size, suite, depth) and ``parent`` is the index of the
enclosing span or -1.  A span's self time is its duration minus the
durations of its children.  ``scales`` maps the index of a task's span
to the factor that scales its times to the reference speed; the spans
inside it take the same factor.  Spans stay in memory and are written
out by ``dump`` when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

NAME, KEY, START, END, PARENT = range(5)


@dataclass(frozen=True)
class Layer:
    """A public function to trace.

    ``module`` and ``attr`` name the function where it is defined;
    ``key(args, kwargs)`` labels a call; ``count(counts, args, kwargs,
    result)`` adds the call's work counters to ``counts``."""

    module: str
    attr: str
    name: str
    key: Callable | None = None
    count: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.scales: dict[int, float] = {}
        self._stack: list[int] = []

    def open(self, name: str, key: str = "") -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, key, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` and any span left open inside it (a task cut
        off by its time cap can leave wrappers unfinished)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            if self.spans[top][END] is None:
                self.spans[top][END] = now
            if top == idx:
                return

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, key, count, counts = layer.name, layer.key, layer.count, \
            self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, key(args, kwargs) if key else "", clock(), None,
                   stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                if stack and stack[-1] == idx:
                    stack.pop()
            if count:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def instrument(self, layers):
        """Trace every listed layer inside the ``with`` block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and
                   (n == "ellipticlab" or n.startswith("ellipticlab."))]
        patched = []
        for layer in layers:
            fn = getattr(sys.modules[layer.module], layer.attr)
            wrapper = self._wrap(layer, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, fn))
        try:
            yield
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def aggregate(self):
        """Per ``(name, key)``: total self time, total time, call count,
        and the durations of the calls made directly by a task, all scaled
        to the reference speed."""
        factor = []
        for i, rec in enumerate(self.spans):
            p = rec[PARENT]
            factor.append(self.scales.get(i, factor[p] if p >= 0 else 1.0))
        dur = [(rec[END] - rec[START]) * f
               for rec, f in zip(self.spans, factor)]
        child = [0.0] * len(self.spans)
        for rec, d in zip(self.spans, dur):
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += d
        self_s, total_s = defaultdict(float), defaultdict(float)
        calls, direct = defaultdict(int), defaultdict(list)
        for rec, c, d in zip(self.spans, child, dur):
            k = (rec[NAME], rec[KEY])
            self_s[k] += d - c
            total_s[k] += d
            calls[k] += 1
            if rec[PARENT] >= 0 and self.spans[rec[PARENT]][NAME] == "task":
                direct[k].append(d)
        return self_s, total_s, calls, direct

    def dump(self, path, meta: dict) -> None:
        doc = {"meta": meta,
               "fields": ["name", "key", "start", "end", "parent"],
               "spans": self.spans,
               "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)
