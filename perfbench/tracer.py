"""In-memory spans recorded around calls into the program's layers.

The program's modules import each other's functions by name, so a wrapper
has to replace a function at every place a caller looks it up: the defining
module's attribute and each ``from .x import f`` binding elsewhere.  The
tracer does that for a given set of modules and restores every binding it
replaced when uninstalled.

Spans nest on a single stack.  That is exact for serial execution, which is
what the benchmark drives (one client, the sweep executor's default of one
worker); concurrent workers would interleave on the stack.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    job: int
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - _covered(children.get(i, ()), s.start, s.end) for i, s in enumerate(spans)
    ]


def outermost_in_layer(spans: list[Span], layer: str) -> list[Span]:
    """Spans of a layer that no other span of the same layer encloses."""
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        p = s.parent
        while p is not None and spans[p].layer != layer:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


class Tracer:
    """Collects spans and call counts while a job is active (``job`` set)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.job: int | None = None
        self._stack: list[int] = []
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.job, parent, time.perf_counter()))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def job_scope(self, job: int):
        self.job = job
        try:
            yield
        finally:
            self.job = None
            self._stack.clear()

    def span_wrapper(self, name: str, fn, attrs_hook=None):
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(idx)
            if attrs_hook is not None:
                span.attrs = attrs_hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.job is not None:
                counts[(self.job, name)] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def installed(self, modules: dict, counted=frozenset(), hooks=None, expected=()):
        """Wrap every public function defined in ``modules`` (layer name ->
        module) wherever any of those modules binds it.

        Names in ``counted`` get a call counter instead of a span, for
        functions called per minibatch, per pair or per file.  Names in
        ``expected`` that no module defines are listed in ``missing``.
        """
        hooks = hooks or {}
        originals = {}
        for layer, mod in modules.items():
            for fname, obj in vars(mod).items():
                if (
                    not fname.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = f"{layer}.{fname}"
        self.missing = sorted(set(expected) - set(originals.values()))

        wrappers = {}
        replaced = []
        for mod in modules.values():
            for fname, obj in list(vars(mod).items()):
                name = originals.get(id(obj))
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    if name in counted:
                        wrappers[id(obj)] = self.count_wrapper(name, obj)
                    else:
                        wrappers[id(obj)] = self.span_wrapper(name, obj, hooks.get(name))
                replaced.append((mod, fname, obj))
                setattr(mod, fname, wrappers[id(obj)])
        try:
            yield self
        finally:
            for mod, fname, obj in reversed(replaced):
                setattr(mod, fname, obj)
