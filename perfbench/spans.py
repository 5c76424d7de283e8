"""In-memory spans for the traced run, recorded from outside the program.

The benchmark wraps each layer's public entry points (see ``layers.py``)
with :meth:`Recorder.wrap`; the program itself is not edited.  A span is
``(name, start, end, span_id, parent, op, thread)``.  ``parent`` is the
span that caused it: the enclosing span on the same thread, or, for the
outermost span on a pool thread, the span the main thread was inside
when it started.  Spans stay in memory and are written out as Chrome
trace-event JSON when the run ends.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import sys
import threading
import time
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Union)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent: Optional[int]
    op: int
    thread: int


class Recorder:
    """Records spans and per-op counters from wrapped entry points.

    ``op`` is set by the benchmark loop before each operation; spans and
    counts made while it is set carry it, on every thread.  The thread
    that created the recorder is the main thread.
    """

    def __init__(self) -> None:
        self.main_thread = threading.get_ident()
        self.op = -1
        self.spans: List[Span] = []
        self.counts: Dict[int, collections.Counter] = \
            collections.defaultdict(collections.Counter)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._count_lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _parent(self, stack: List[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _timed(self, name: str, call: Callable[[], Any]) -> Any:
        stack = self._stack()
        span_id = next(self._ids)
        parent = self._parent(stack)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent,
                                   self.op, threading.get_ident()))

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` of the current op."""
        with self._count_lock:
            self.counts[self.op][name] += amount

    def wrap(self, fn: Callable, name: Union[str, Callable[..., str]],
             after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` recorded as span ``name``.

        ``name`` may be a callable of the call's arguments (one span
        name per rule instance, say).  ``after(result, *args,
        **kwargs)`` runs after a call that returned.  A call that
        returns a generator is recorded once for the call and once for
        each resumption, so every span nests inside its caller.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            result = recorder._timed(label, lambda: fn(*args, **kwargs))
            if after is not None:
                after(result, *args, **kwargs)
            if inspect.isgenerator(result):
                return recorder._resumed(label, result)
            return result

        return traced

    def _resumed(self, label: str, generator):
        try:
            while True:
                try:
                    item = self._timed(label,
                                       functools.partial(next, generator))
                except StopIteration as stop:
                    return stop.value
                yield item
        finally:
            self._timed(label, generator.close)

    # -- patching --------------------------------------------------------

    def patch_method(self, owner: type, attr: str,
                     name: Union[str, Callable[..., str]],
                     after: Optional[Callable[..., None]] = None) -> None:
        """Wrap ``owner.attr`` where ``owner`` defines it itself."""
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self.wrap(raw.__func__, name, after))
        else:
            wrapped = self.wrap(raw, name, after)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def patch_function(self, module: Any, attr: str, name: str,
                       after: Optional[Callable[..., None]] = None) -> None:
        """Wrap a module-level function, and every binding of it that
        a loaded ``repro`` module made with ``from ... import``."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, after)
        targets = [module] + [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and mod is not module
            and (key == "repro" or key.startswith("repro."))]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapped)
                    self._patches.append((target, key, original))

    def unpatch(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# -- arithmetic over recorded spans ------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``span_id -> self time``: each span's duration minus the part of
    it covered by its children on the same thread.  A child on another
    thread ran beside its parent, not inside it, and takes nothing off.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    covered: Dict[int, float] = collections.defaultdict(float)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None or parent.thread != span.thread:
            continue
        lo = max(span.start, parent.start)
        hi = min(span.end, parent.end)
        if hi > lo:
            covered[parent.span_id] += hi - lo
    return {span.span_id: (span.end - span.start) - covered[span.span_id]
            for span in spans}


class OpBreakdown(NamedTuple):
    """Where one op's time went, in seconds."""

    wall: float
    #: Self time per span name on the main thread.
    main: Dict[str, float]
    #: Self time per span name on every other thread (busy time).
    workers: Dict[str, float]
    #: Main-thread time inside the op that no span covers.
    unattributed: float
    #: Span count per name, main thread and workers together.
    calls: Dict[str, int]
    #: Calls per name that entered the layer from outside it (a span
    #: whose parent has another name).
    entries: Dict[str, int]


def breakdown(spans: Iterable[Span], start: float, end: float,
              main_thread: int) -> OpBreakdown:
    """Split one op's spans into main-thread self time, worker busy time
    and the main-thread time no span covers.

    ``unattributed`` is measured from the outermost main-thread spans
    alone, independently of the self times, so ``sum(main) + unattributed ==
    wall`` holds only when the spans nest as they should.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    main_self: Dict[str, float] = collections.defaultdict(float)
    worker_self: Dict[str, float] = collections.defaultdict(float)
    calls: Dict[str, int] = collections.Counter()
    entries: Dict[str, int] = collections.Counter()
    covered = 0.0
    for span in spans:
        side = main_self if span.thread == main_thread else worker_self
        side[span.name] += own[span.span_id]
        calls[span.name] += 1
        parent = by_id.get(span.parent)
        if parent is None or parent.name != span.name:
            entries[span.name] += 1
        if span.thread == main_thread and (
                parent is None or parent.thread != main_thread):
            covered += max(0.0, min(span.end, end) - max(span.start, start))
    wall = end - start
    return OpBreakdown(wall, dict(main_self), dict(worker_self),
                       wall - covered, dict(calls), dict(entries))


def chrome_trace(spans: Iterable[Span], main_thread: int,
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The spans as a Chrome trace-event document (Perfetto loads it)."""
    spans = sorted(spans, key=lambda span: (span.start, span.span_id))
    origin = spans[0].start if spans else 0.0
    threads = sorted({span.thread for span in spans},
                     key=lambda tid: (tid != main_thread, tid))
    tids = {tid: index for index, tid in enumerate(threads)}
    events: List[Dict[str, Any]] = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tids[tid],
         "args": {"name": "main" if tid == main_thread
                  else f"worker-{tids[tid]}"}}
        for tid in threads]
    for span in spans:
        events.append({
            "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "pid": 1, "tid": tids[span.thread],
            "args": {"span_id": span.span_id, "parent": span.parent,
                     "op": span.op}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": dict(meta or {})}
