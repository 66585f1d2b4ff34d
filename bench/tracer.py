"""Coroutine-aware span tracer, installed only for the traced run.

The tracer replaces public functions and methods of gplmt with wrappers at
the place each is looked up (a module attribute or a class attribute) and
restores the originals afterwards; gplmt's source is never changed.

Time accounting uses one stack of running spans. A synchronous call is on
the stack for its whole duration. A coroutine is on the stack only while
one of its resumes runs, so time it spends suspended is not busy time. The
span on top of the stack owns the time: that is its self time. Time spent
while no wrapped code runs belongs to the run's root span, reported as
`other`, and time the event loop spends blocked in its selector is `idle`.
Hence, per run, the self times of all spans plus idle equal the wall time.
"""
from __future__ import annotations

import asyncio
import functools
import selectors
import time
from contextlib import contextmanager

ROOT = "trace.other"
IDLE = "trace.idle"


class Span:
    """One traced call: `busy` is inclusive running time without idle."""

    __slots__ = ("id", "name", "parent", "run", "start", "end", "busy", "self_time", "idle", "sim")

    def __init__(self, span_id: int, name: str, parent: int, run: int, start: float):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = start
        self.end = start
        self.busy = 0.0
        self.self_time = 0.0
        self.idle = 0.0
        self.sim = 0.0


class Tracer:
    """Collects spans in memory; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []
        self._entered: list[float] = []
        self._mark = 0.0
        self._run = -1

    # -- accounting -----------------------------------------------------

    def _open(self, name: str, parent: int) -> Span:
        span = Span(len(self.spans), name, parent, self._run, self.clock())
        self.spans.append(span)
        return span

    def _current_id(self) -> int:
        return self._stack[-1].id if self._stack else -1

    def _enter(self, span: Span) -> None:
        now = self.clock()
        if self._stack:
            self._stack[-1].self_time += now - self._mark
        self._stack.append(span)
        self._entered.append(now)
        self._mark = now

    def _leave(self, span: Span) -> None:
        now = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span stack corrupted: left {span.name} while {top.name} ran")
        top.self_time += now - self._mark
        elapsed = now - self._entered.pop()
        top.busy += elapsed
        if span.name == IDLE:
            for outer in self._stack:
                outer.idle += elapsed
        self._mark = now

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def run(self, run_id: int):
        """Trace one run; yields the root span, which is closed on exit."""
        self._run = run_id
        self.counters = {}
        root = self._open(ROOT, -1)
        self._enter(root)
        try:
            yield root
        finally:
            self._leave(root)
            root.end = self.clock()

    # -- wrappers -------------------------------------------------------

    def wrap_sync(self, fn, name: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, tracer._current_id())
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(span)
                span.end = tracer.clock()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def wrap_async(self, fn, name: str, sim_time: bool = False):
        """Wrap a coroutine function; the span's parent is the span running
        when the coroutine object is created, even if a task runs it later."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._drive(name, tracer._current_id(), fn(*args, **kwargs), sim_time)

        return traced

    async def _drive(self, name: str, parent: int, coro, sim_time: bool):
        span = self._open(name, parent)
        loop_start = asyncio.get_running_loop().time() if sim_time else 0.0
        try:
            return await _Resumes(self, span, coro)
        finally:
            span.end = self.clock()
            if sim_time:
                span.sim = asyncio.get_running_loop().time() - loop_start

    # -- installation ---------------------------------------------------

    @contextmanager
    def installed(self, patches):
        """Apply (owner, attribute, wrapper) patches; restore them on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class _Resumes:
    """Awaitable that steps a coroutine, timing each resume as busy time."""

    __slots__ = ("tracer", "span", "coro")

    def __init__(self, tracer: Tracer, span: Span, coro):
        self.tracer = tracer
        self.span = span
        self.coro = coro

    def __await__(self):
        tracer, span, coro = self.tracer, self.span, self.coro
        value, error = None, None
        while True:
            tracer._enter(span)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer._leave(span)
            value, error = None, None
            try:
                value = yield yielded
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine, e.g. cancellation
                error = exc


class IdleTimingSelector(selectors.DefaultSelector):
    """Selector whose blocking wait is recorded as the idle pseudo-span."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        span = self._tracer._open(IDLE, self._tracer._current_id())
        self._tracer._enter(span)
        try:
            return super().select(timeout)
        finally:
            self._tracer._leave(span)
            span.end = self._tracer.clock()


class IdleTimingPolicy(asyncio.DefaultEventLoopPolicy):
    """Event-loop policy whose new loops report selector waits as idle."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def new_event_loop(self):
        return asyncio.SelectorEventLoop(IdleTimingSelector(self._tracer))


@contextmanager
def idle_timing(tracer: Tracer):
    """Route asyncio.new_event_loop() through IdleTimingPolicy meanwhile."""
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(IdleTimingPolicy(tracer))
    try:
        yield
    finally:
        asyncio.set_event_loop_policy(previous)


def totals(spans, run: int | None = None) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy, self and sim seconds (optionally one run)."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        if run is not None and span.run != run:
            continue
        entry = out.setdefault(span.name, {"calls": 0, "busy": 0.0, "self": 0.0, "sim": 0.0})
        entry["calls"] += 1
        entry["busy"] += span.busy - span.idle
        entry["self"] += span.self_time
        entry["sim"] += span.sim
    return out


def write_spans(spans, path, append: bool = False) -> None:
    """Write spans as tab-separated lines: id, parent, run, name, start,
    end, busy, self, idle, sim (seconds); ids are unique within a run."""
    with open(path, "a" if append else "w", encoding="utf-8") as handle:
        if not append:
            handle.write("id\tparent\trun\tname\tstart\tend\tbusy\tself\tidle\tsim\n")
        for s in spans:
            handle.write(
                f"{s.id}\t{s.parent}\t{s.run}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                f"{s.busy:.9f}\t{s.self_time:.9f}\t{s.idle:.9f}\t{s.sim:.9f}\n"
            )
