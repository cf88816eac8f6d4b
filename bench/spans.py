"""In-memory span recorder for the traced benchmark run.

A span is one call into a library function: (id, name, start, end, thread,
parent).  Spans are recorded by wrapping public functions at the module
attribute their callers actually resolve at call time (for example
``estimators.run_backward_batch``, not ``engine.run_backward_batch``, because
the estimators import the name into their own namespace).  Each thread keeps
its own stack of open spans, so a span's parent is the innermost open span in
the same thread; spans opened in worker threads of a pool have no parent.

Nothing is written while recording.  ``restore`` (or closing the recorder)
removes every wrapper, leaving the module attributes exactly as they were;
the wrappers can be installed again afterwards, so a recorder can collect
the spans of several traced calls with untraced calls in between.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict, namedtuple

#: one recorded call
Span = namedtuple("Span", "id name start end thread parent")


class Recorder:
    """Wraps functions, collects spans, and restores every wrapper on exit.

    ``extra`` callables attached to a wrapped function receive
    ``(args, kwargs, result)`` after the call and return a small value kept
    in ``extras`` under the span's id (lane counts and the like); they run
    outside the span's own interval, so their cost lands in the parent's
    self time and in the measured tracing overhead, never in the wrapped
    layer.
    """

    def __init__(self):
        self.spans: list = []  # of Span
        self.extras: dict = {}  # span id -> value of the extra callable
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, extra):
        with self.span(name) as sid:
            out = fn(*args, **kwargs)
        if extra is not None:
            self.extras[sid] = extra(args, kwargs, out)
        return out

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._record(name, original, args, kwargs, extra)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields the span's id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, threading.get_ident(),
                                   parent))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path) -> None:
        """Dump every span as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": Span._fields, "spans": self.spans}, fh)


def subtree(spans: list, root_id: int) -> list:
    """The root span and every span below it through parent links."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = [s for s in spans if s.id == root_id]
    frontier = [root_id]
    while frontier:
        nxt = []
        for pid in frontier:
            for s in children.get(pid, ()):
                out.append(s)
                nxt.append(s.id)
        frontier = nxt
    return out


def self_times(spans: list) -> dict:
    """Span id -> duration minus the durations of its direct children.

    Children of one parent run in the parent's thread one after another, so
    their durations never overlap and their sum is the covered interval.
    """
    child_sum = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_sum[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child_sum[s.id] for s in spans}
