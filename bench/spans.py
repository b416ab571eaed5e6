"""Spans recorded from outside the program, by patching module attributes.

A span is (name, start, end, parent, op): ``parent`` is the index of the span
that was open when this one started (-1 for none) and ``op`` the id of the
operation it belongs to. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    """Installs timing wrappers on module attributes and removes them again.

    ``targets`` lists (span name, places): places are the (module, attribute)
    pairs the package calls one function through, and all of them get the
    same wrapper, so a call through any of them makes exactly one span. ``on_result`` optionally maps
    a span name to a function(counters, args, result) that adds counts.
    """

    def __init__(self, targets: list, on_result: dict | None = None):
        self.targets = targets
        self.on_result = on_result or {}
        self.spans = []
        self.counters = Counter()
        self.op = None
        self._open = []
        self._saved = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for name, places in self.targets:
            module, attr = places[0]
            wrapper = self._wrap(name, getattr(module, attr))
            for module, attr in places:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name, fn):
        hook = self.on_result.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = (name, start, end, parent, self.op)
            self.counters[name + "_calls"] += 1
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper


def self_times(spans) -> Counter:
    """Total self time per span name: each span's duration minus the part of
    its interval that its direct children cover."""
    covered = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    totals = Counter()
    for (name, start, end, _, _), children in zip(spans, covered):
        busy, reach = 0.0, start
        for lo, hi in sorted(children):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                busy += hi - lo
                reach = hi
        totals[name] += (end - start) - busy
    return totals
