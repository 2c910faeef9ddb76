"""Spans and counts recorded at the program's layer boundaries.

The recorder replaces a module attribute with a wrapper, under the name the
caller looks up (``gdoa.inference.compute_jh``, not
``gdoa.support_search.compute_jh``, because ``inference`` imported it by
name).  A wrapper always calls the optional ``before`` and ``after`` hooks,
which the benchmark uses to mark operations and capture outputs for its
checks; when tracing is on it also records a span
``(name, start_ns, end_ns, parent, op)``.  Spans stay in
memory and are written out by :meth:`Recorder.write`.  A name the program no
longer has is listed in ``absent`` instead of raising, so the per-layer
metrics that depend on it can be reported as absent.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns


class Recorder:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Wrap ``module.attr``.

        ``before()`` runs before each call and ``after(args, kwargs, result,
        seconds)`` after it; both run outside the span.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.add(name)
            return
        if not self.tracing and before is None and after is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            with self.span(name):
                t0 = perf_counter_ns()
                result = fn(*args, **kwargs)
                elapsed = (perf_counter_ns() - t0) * 1e-9
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def span(self, name: str):
        return _Span(self, name) if self.tracing else _NO_SPAN

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: total duration, total self time (ns) and number of spans.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap, because one caller
        runs at a time.
        """
        child = defaultdict(int)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, self_ns, calls = defaultdict(int), defaultdict(int), defaultdict(int)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            total[name] += t1 - t0
            self_ns[name] += t1 - t0 - child[idx]
            calls[name] += 1
        return total, self_ns, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{idx},{name},{t0},{t1},{parent},{op}\n")


class _Span:
    __slots__ = ("rec", "name", "idx", "t0")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.spans)
        rec.spans.append(None)
        rec._stack.append(self.idx)
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter_ns()
        rec = self.rec
        rec._stack.pop()
        parent = rec._stack[-1] if rec._stack else -1
        rec.spans[self.idx] = (self.name, self.t0, t1, parent, rec.op)
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()
