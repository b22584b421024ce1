"""Spans recorded around calls into capsym, and the arithmetic on them.

A span is one call of a wrapped function: its name, its layer (the capsym
module that defines the function), start and end on the monotonic clock,
the index of the span that was open when it started, and an optional note
taken from the call's arguments and result.  Spans stay in memory until the
pass ends.

A span's self time is its duration minus the part of its interval that its
direct child spans cover.  A group's time counts each interval once: a span
is counted only when no span of the same group encloses it.
"""

from __future__ import annotations

import functools
import inspect
import time

clock = time.perf_counter


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "note")

    def __init__(self, name, layer, start, end=None, parent=-1, note=None):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.note = note

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from the functions it wraps, in one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, layer, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, clock(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced


def instrument(tracer, modules, notes=None):
    """Wrap every public function and public method that ``modules`` define.

    Each module name's last component is the layer.  Names imported from
    one module into another are rebound to the same wrapper, so a call is
    traced whichever module it goes through.  ``notes`` maps a span name
    (``function`` or ``Class.method``) to a note callable.
    """
    notes = notes or {}
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, tracer.wrap(obj, name, layer, notes.get(name)))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, obj, layer, notes)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


def _wrap_methods(tracer, cls, layer, notes):
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{cls.__name__}.{attr}"
        if inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(val, name, layer, notes.get(name)))
        elif isinstance(val, classmethod):
            setattr(cls, attr, classmethod(
                tracer.wrap(val.__func__, name, layer, notes.get(name))))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals, lo=float("-inf"), hi=float("inf")):
    """Length of the union of [start, end] intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: duration minus the union of its children."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - union_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def outermost(spans, member):
    """Indices of member spans that no other member span encloses."""
    inside = [False] * len(spans)
    keep = []
    for i, s in enumerate(spans):   # parents precede their children
        enclosed = s.parent >= 0 and (inside[s.parent] or member(spans[s.parent]))
        inside[i] = enclosed
        if member(s) and not enclosed:
            keep.append(i)
    return keep


def group_time(spans, member):
    """Time inside spans for which ``member`` holds, each instant once."""
    return sum(spans[i].duration for i in outermost(spans, member))


def has_ancestor(spans, i, member):
    p = spans[i].parent
    while p >= 0:
        if member(spans[p]):
            return True
        p = spans[p].parent
    return False


def coverage(spans, t0, t1):
    """Share of [t0, t1] covered by top-level spans."""
    top = [(s.start, s.end) for s in spans if s.parent < 0]
    return union_length(top, t0, t1) / (t1 - t0)
