"""Outside-in span recorder for the traced benchmark run.

Tracing never edits the program. ``Tracer.wrap`` replaces a function at the
module attribute its callers look up (``pipeline.distance_matrix``,
``spectral.kmeans``, ...) with a wrapper that records one span per call, and
``Tracer.uninstall`` puts the originals back.

A name the program no longer has is skipped and noted in ``missing``, so its
metrics read 0 instead of the run failing.

A span holds its name, start, end, parent span and op id. Spans stay in memory
and are written out once, when the run ends. A span's self time is its
duration minus the time its child spans cover; calls run on one thread, so
children never overlap and that is the sum of their durations.

The SPD helpers are called tens of thousands of times per op, so they are
recorded as leaves: a call count and busy time per name, whose time still
counts as child time of the enclosing span. Constructors are counted only.
"""

import contextlib
import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # name -> [calls, busy_s]
        self.counts = defaultdict(int)
        self.op = None
        self.paused = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        self._add_child_time(span.duration)

    def _add_child_time(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]].child_s += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- installing wrappers ----------------------------------------------

    def _lookup(self, owner, attr: str):
        found = getattr(owner, attr, None)
        if found is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return found

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, module, attr: str, name, attrs=None) -> None:
        """Record a span per call of ``module.attr``.

        ``name`` is a string or ``name(args, kwargs) -> str``; ``attrs``, when
        given, maps ``(args, kwargs, result)`` to a dict stored on the span.
        """
        fn = self._lookup(module, attr)
        if fn is None:
            return

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        self._patch(module, attr, traced)

    def wrap_leaf(self, module, attr: str, name: str) -> None:
        """Count and time calls of ``module.attr`` without a span per call."""
        fn = self._lookup(module, attr)
        if fn is None:
            return
        leaf = self.leaves[name]

        def timed(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            started = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - started
                leaf[0] += 1
                leaf[1] += elapsed
                self._add_child_time(elapsed)

        self._patch(module, attr, timed)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of a method such as a dataclass ``__post_init__``."""
        fn = self._lookup(owner, attr)
        if fn is None:
            return

        def counted(*args, **kwargs):
            if not self.paused:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def wrap_pool_class(self, module, attr: str, name: str) -> None:
        """Replace an executor class so each pool becomes a span from its
        creation to its shutdown, tagged with its worker count."""
        base = self._lookup(module, attr)
        if base is None:
            return
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                parent = tracer._stack[-1] if tracer._stack else None
                self._span = Span(name, tracer.clock(), parent, tracer.op)
                self._span.attrs = {"workers": kwargs.get("max_workers", args[0] if args else 1)}
                tracer.spans.append(self._span)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._span.end is None:
                    self._span.end = tracer.clock()
                    tracer._add_child_time(self._span.duration)

        self._patch(module, attr, TracedPool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def named(self, name: str, ops=None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and s.end is not None and (ops is None or s.op in ops)
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s.end is None:
                    continue
                row = {
                    "id": i,
                    "name": s.name,
                    "start": s.start - self.origin,
                    "end": s.end - self.origin,
                    "parent": s.parent,
                    "op": s.op,
                    "self_s": s.self_s,
                }
                if s.attrs:
                    row["attrs"] = s.attrs
                fh.write(json.dumps(row, default=str) + "\n")
            for name, (calls, busy) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "busy_s": busy}) + "\n")
            for name, calls in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "calls": calls}) + "\n")
