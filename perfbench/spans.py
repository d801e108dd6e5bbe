"""In-memory span tracer that times the package's layers from outside.

`Tracer.wrap` replaces a module attribute with a wrapper that records one
span per call: name, start, end, parent span and pass id.  Callers inside
the package look functions up through their module (`_kernels.reach_matrix`,
`setgen.sets_fast`), so the wrapper sees those calls too.  A span opened in
a worker thread with no open span of its own takes the innermost open span
of the main thread as its parent; the package only starts threads inside
`channel_sim.simulate`, which the main thread is blocked in.

A span's self time is its duration minus the part of its interval that its
child spans cover, so overlapping children in worker threads are counted
once.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# span record fields
NAME, START, END, PARENT, PASS = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.pass_id = 0
        self.enabled = True
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = [name, time.perf_counter(), None, parent, self.pass_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    @contextmanager
    def paused(self):
        """Run the harness's own work without spans or counters."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def reset(self) -> None:
        """Forget spans and counters (used after the warm-up pass)."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()

    # -- patching ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, on_call=None, span: bool = True) -> bool:
        """Replace `module.attr` with a recording wrapper.

        `on_call(tracer, args, kwargs, result)` updates counters after each
        call.  With `span=False` only the counters are kept, so the call's
        time stays in its caller's self time.  A missing attribute is
        skipped and its metrics read zero.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            if span:
                with self.span(name):
                    result = original(*args, **kwargs)
            else:
                result = original(*args, **kwargs)
            self.count(name + ".calls")
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))
        return True

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over the recorded spans."""
        children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        for record in self.spans:
            if record[PARENT] is not None:
                children[record[PARENT]].append((record[START], record[END]))
        totals: defaultdict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            start, end = record[START], record[END]
            covered = _covered(children.get(index, ()), start, end)
            totals[record[NAME]] += (end - start) - covered
        return dict(totals)

    def inclusive_times(self) -> dict[str, float]:
        totals: defaultdict[str, float] = defaultdict(float)
        for record in self.spans:
            totals[record[NAME]] += record[END] - record[START]
        return dict(totals)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
