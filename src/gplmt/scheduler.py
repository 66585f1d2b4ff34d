"""Execution engine for steps programs.

Steps launch in document order and run concurrently; synchronize blocks a
steps block until everything launched before it has finished; repeat loops
re-run a nested block under decidable bounds; register-teardown records
work that is guaranteed to run at the end, whatever happens in between.

The engine is plain asyncio and takes every instant from the running
loop's time(), so the same code runs on RealTimeEventLoop, in wall seconds
since the run began, or on VirtualTimeEventLoop, where time advances only
when every runnable coroutine is blocked. Virtual runs are fully
deterministic: steps launch in document order, nodes within a step run in
name order, and the ready queue is FIFO.
"""
from __future__ import annotations

import asyncio
import contextlib
import contextvars
import heapq
import itertools
import math
import selectors
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .model import (
    CallTask,
    EnvPairs,
    ErrorMode,
    Experiment,
    ExperimentReport,
    GetTask,
    NodeState,
    ParTask,
    PutTask,
    RegisterTeardown,
    RelativeTime,
    Repeat,
    RunTask,
    SeqTask,
    Step,
    StepsItem,
    TargetDef,
    Task,
    Tasklist,
    TaskOutcome,
    TimeSpec,
    _merge_env,
    resolve_group,
)
from .telemetry import (
    EventKind,
    EventLog,
    ExecutionEvent,
    artifact_label,
    render_report,
    write_report,
)
from .transport import (
    MockScript,
    RateLimiterConfig,
    Session,
    SessionClosed,
    SessionPool,
    TransportError,
    make_transport_factory,
)


# --------------------------------------------------------------------------
# the engine's loops


class _Handle(asyncio.Handle):
    """asyncio.Handle as a loop with debug mode off builds it: the same
    slots, set without a get_debug() call or a source traceback."""

    __slots__ = ()

    def __init__(self, callback, args, loop, context):
        self._context = contextvars.copy_context() if context is None else context
        self._loop = loop
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._repr = None
        self._source_traceback = None


class _TimerHandle(asyncio.TimerHandle):
    """asyncio.TimerHandle as _Handle is asyncio.Handle; built only on the
    heap, so it is scheduled from the start. Its cancel() tells the loop,
    which counts cancelled timers to purge them, as asyncio's does."""

    __slots__ = ()

    def __init__(self, when, callback, args, loop, context):
        self._context = contextvars.copy_context() if context is None else context
        self._loop = loop
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._repr = None
        self._source_traceback = None
        self._when = when
        self._scheduled = True

    def cancel(self):
        if not self._cancelled:
            self._loop._timer_handle_cancelled(self)
            self._cancelled = True
            self._callback = None
            self._args = None


class _EngineLoop(asyncio.SelectorEventLoop):
    """Base of both engine loops. With debug mode off, call_soon and
    call_at build lean handles and queue them as asyncio does: the ready
    queue and the timer heap get the same entries in the same order.
    With debug mode on they are asyncio's own, with every check.

    `run_context` is the context of the run on this loop, which its tasks
    and the mock transport's timers share (see ExperimentRunner.run)."""

    run_context: contextvars.Context | None = None

    def call_soon(self, callback, *args, context=None):
        if self._debug:
            return super().call_soon(callback, *args, context=context)
        if self._closed:
            raise RuntimeError("Event loop is closed")
        handle = _Handle(callback, args, self, context)
        self._ready.append(handle)
        return handle

    def call_at(self, when, callback, *args, context=None):
        if self._debug:
            return super().call_at(when, callback, *args, context=context)
        if when is None:
            raise TypeError("when cannot be None")
        if self._closed:
            raise RuntimeError("Event loop is closed")
        timer = _TimerHandle(when, callback, args, self, context)
        heapq.heappush(self._scheduled, timer)
        return timer


# --------------------------------------------------------------------------
# virtual time


class _VirtualSelector(selectors.DefaultSelector):
    """Selector that never blocks; waiting time is converted into clock
    advancement by the owning loop."""

    def __init__(self, loop_ref):
        super().__init__()
        self._loop_ref = loop_ref

    def select(self, timeout=None):
        ready = super().select(0)
        if ready:
            return ready
        if timeout is None:
            raise RuntimeError(
                "deadlock: every coroutine is blocked and no timer is scheduled"
            )
        if timeout > 0:
            self._loop_ref._advance()
        return []


class VirtualTimeEventLoop(_EngineLoop):
    """Event loop whose clock jumps straight to the next scheduled timer.

    Sleeps cost no wall time and timers fire at exact instants, which makes
    runs over the mock transport both fast and reproducible. Absolute
    instants count from the Unix epoch.
    """

    wall_zero = 0.0  # Unix time at time() == 0

    def __init__(self):
        self._vtime = 0.0
        super().__init__(selector=_VirtualSelector(self))
        self._clock_resolution = 1e-9  # replaces the base's; _advance keeps it current

    def time(self):
        return self._vtime

    def _advance(self):
        # asyncio passes select a positive timeout only while a timer is
        # scheduled, capped at a day; the next timer is the true wake-up
        self._vtime = max(self._vtime, self._scheduled[0]._when)
        # Must scale with the magnitude of the clock: at large virtual times
        # one float ulp exceeds a fixed resolution and timers would starve.
        # Time moves only here, so the resolution is set only here.
        self._clock_resolution = max(1e-9, 4.0 * math.ulp(self._vtime))


class RealTimeEventLoop(_EngineLoop):
    """Event loop whose time() counts wall seconds from its creation, as
    VirtualTimeEventLoop's counts virtual ones: the engine reads every
    instant of a run from the running loop, whichever it is."""

    def __init__(self):
        self._mono_zero = time.monotonic()
        self.wall_zero = time.time()  # Unix time at time() == 0
        super().__init__()

    def time(self):
        return time.monotonic() - self._mono_zero


# --------------------------------------------------------------------------
# engine


# Bound once: on CPython 3.11 every `EnumClass.MEMBER` read goes through the
# enum metaclass's attribute hook, several times the cost of a plain read,
# and these are read on every node, task or event.
_SUCCESS, _FAILED, _TIMED_OUT = TaskOutcome.SUCCESS, TaskOutcome.FAILED, TaskOutcome.TIMED_OUT
_ABORT_TASKLIST, _ABORT_STEP = ErrorMode.ABORT_TASKLIST, ErrorMode.ABORT_STEP
_NODE_SUCCEEDED, _NODE_FAILED = NodeState.SUCCEEDED, NodeState.FAILED
_NODE_SKIPPED = NodeState.SKIPPED
_TASK_START, _TASK_END = EventKind.TASK_START, EventKind.TASK_END
_new_tuple = tuple.__new__  # builds a named tuple without its Python __new__
_NOT_ASKED = object()  # an execution that has not asked for its node's turn


class _PanicSignal(Exception):
    """Raised inside the engine to unwind to the teardown phase."""


class _Abort(Exception):
    """Ends a tasklist body: `outcome` is the body's worst, `mode` how far
    the failure reaches. A passed deadline is TimedOut and abort-tasklist;
    abort-step and panic escalate beyond the tasklist."""

    def __init__(self, outcome: TaskOutcome, mode: ErrorMode):
        self.outcome = outcome
        self.mode = mode


_SEVERITY = {
    TaskOutcome.SUCCESS: 0,
    TaskOutcome.FAILED: 1,
    TaskOutcome.CONNECTION_LOST: 2,
    TaskOutcome.TIMED_OUT: 3,
}


def _worse(a: TaskOutcome, b: TaskOutcome) -> TaskOutcome:
    if a is b:
        return a
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


@dataclass
class _StepContext:
    """Shared state of one step or teardown execution across its per-node tasks."""

    step_index: int | None
    exec_label: str
    stop_instant: float | None = None
    step_task: asyncio.Task | None = None
    is_teardown: bool = False
    outcomes: dict[str, NodeState] = field(default_factory=dict)
    node_tasks: dict[str, asyncio.Task] = field(default_factory=dict)


@dataclass(slots=True)
class _NodeRun:
    """What every task of one node's execution shares; a cleanup runs under
    a copy with its own session and the artifact label prefix "c".

    `contained` marks a teardown or cleanup: every tasklist it runs, callees
    included, runs as abort-tasklist. `faulted` is set when the controller
    itself faulted in one of its tasks, a callee's cleanup included. Not
    frozen: a frozen dataclass sets each field through object.__setattr__.
    """

    session: Session
    leaf: TargetDef
    env: EnvPairs
    ctx: _StepContext
    contained: bool
    label_prefix: str = ""
    faulted: bool = field(default=False, init=False)


class ExperimentRunner:
    """Single-run executor; create one per experiment execution.

    Once run() has ended, nothing the runner built is in a reference cycle,
    so reference counting alone frees the runner, its pool, its maps and
    its tasks; the caller keeps only the report and the log it passed in.
    run() drops the pool's `emit` and its step tasks, each step drops its
    node tasks, and no frame keeps an exception whose traceback leads back
    to that frame.
    """

    def __init__(
        self,
        experiment: Experiment,
        transport_factory,
        limiter_config: RateLimiterConfig | None,
        event_log: EventLog,
        run_dir: Path | None = None,
    ):
        self.experiment = experiment
        self.targets = experiment.target_map()
        self.tasklists = experiment.tasklist_map()
        self.log = event_log
        self.run_dir = run_dir
        self.pool = SessionPool(transport_factory, self.emit, run_dir, limiter_config)

        self.registry: list[RegisterTeardown] = []
        self.panicked = False
        self._now = None  # the running loop's time(), bound by run()
        self._wall_zero = 0.0  # Unix time at the loop's time() == 0
        self._step_counter = itertools.count()
        self._all_step_tasks: list[asyncio.Task] = []
        self._shared: dict = {}  # see _share
        self._context: contextvars.Context | None = None  # see run

    # -- event helpers ------------------------------------------------------

    def emit(
        self,
        kind: EventKind,
        node: str | None = None,
        step_index: int | None = None,
        tasklist: str | None = None,
        task_path: tuple[int, ...] | None = None,
        detail: str = "",
        outcomes: tuple[tuple[str, NodeState], ...] = (),
        artifacts: tuple[str, ...] = (),
    ) -> None:
        self.log.record(
            _new_tuple(ExecutionEvent, (
                self._now(), kind, node, step_index, tasklist, task_path, detail,
                outcomes, artifacts,
            ))
        )

    def _share(self, value):
        """The run's first object equal to `value`: an event field that
        repeats across nodes (a task path, a TaskStart or TaskEnd detail)
        is then held once per run, not once per node."""
        return self._shared.setdefault(value, value)

    # -- top level ------------------------------------------------------

    async def run(self) -> ExperimentReport:
        loop = asyncio.get_running_loop()
        self._now = loop.time
        self._wall_zero = loop.wall_zero
        # Nothing in a run reads a context variable, so its tasks and timers
        # share one copy of the context instead of each taking its own.
        self._context = loop.run_context = contextvars.copy_context()
        try:
            self.emit(EventKind.EXPERIMENT_START)
            try:
                await self.execute_steps_block(self.experiment.steps.items)
            except (_PanicSignal, asyncio.CancelledError):
                # The cancelled steps must fully unwind (releasing their node
                # turns) before any teardown may start, also after a Ctrl-C.
                with contextlib.suppress(asyncio.CancelledError):
                    await asyncio.gather(*self._all_step_tasks, return_exceptions=True)
            # Every step has ended. A step's exception holds frames that
            # hold this runner, so the runner lets go of the step tasks.
            self._all_step_tasks = []
            await self.drain_teardowns()
        finally:
            await self.pool.close_all()  # also when a controller fault ends the run
            self.pool.emit = None  # the pool's one reference back to this runner
            loop.run_context = None

        # ExperimentEnd changes neither the status nor the summary, so the
        # report is rendered once and only its event tuple is replaced.
        report, summary = render_report(self.log.events)
        self.emit(EventKind.EXPERIMENT_END, detail=report.overall.value)
        report = replace(report, events=self.log.events)
        if self.run_dir is not None:
            write_report(self.run_dir, report, summary)
        if asyncio.current_task().cancelling():
            raise asyncio.CancelledError  # the run was interrupted; its report is written
        return report

    def trigger_panic(self, node: str, tasklist: str, detail: str, own_step: asyncio.Task | None) -> None:
        if self.panicked:
            return
        self.panicked = True
        self.emit(EventKind.PANIC, node=node, tasklist=tasklist, detail=detail)
        for task in self._all_step_tasks:
            if task is not own_step and not task.done():
                task.cancel()

    # -- steps blocks ------------------------------------------------------

    async def execute_steps_block(self, items: tuple[StepsItem, ...]) -> None:
        """Run one block: launch steps concurrently, honor barriers, record
        teardowns, loop repeats. Returns when every launched step finished."""
        pending: list[asyncio.Task] = []
        try:
            for item in items:
                if self.panicked:
                    raise _PanicSignal()
                if isinstance(item, Step):
                    pending.append(asyncio.create_task(self.execute_step(item), context=self._context))
                    self._all_step_tasks.append(pending[-1])
                elif isinstance(item, RegisterTeardown):
                    self.registry.append(item)
                elif isinstance(item, Repeat):
                    await self.execute_repeat(item)
                else:  # Synchronize
                    await self._barrier(pending)
            if pending:
                await asyncio.gather(*pending)
        finally:
            pending.clear()  # a step's exception, raised through here, holds this frame

    async def _barrier(self, pending: list[asyncio.Task]) -> None:
        if pending:
            await asyncio.gather(*pending)
        self.emit(EventKind.BARRIER_RELEASE, detail=f"waited={len(pending)}")
        pending.clear()

    async def execute_repeat(self, repeat: Repeat) -> None:
        """Loop the body while every given bound still admits an iteration.

        Bounds are checked between iterations only; a running iteration is
        never pre-empted by during/until. Without `iterations`, a Warning
        stops the loop after an iteration that took no (virtual) time.
        """
        entered = self._now()
        completed = 0
        while True:
            if self.panicked:
                raise _PanicSignal()
            if repeat.iterations is not None and completed >= repeat.iterations:
                break
            if repeat.during is not None and self._now() - entered >= repeat.during:
                break
            if repeat.until is not None and self._wall_zero + self._now() >= repeat.until.timestamp():
                break
            began = self._now()
            await self.execute_steps_block(repeat.body)
            completed += 1
            if repeat.iterations is None and self._now() == began:
                bound = f"during={repeat.during:g}s" if repeat.until is None else f"until={repeat.until}"
                self.emit(EventKind.WARNING, detail=f"repeat {bound}: an iteration took no time; stopped")
                break

    # -- steps ------------------------------------------------------

    def _instant(self, spec: TimeSpec) -> float:
        if isinstance(spec, RelativeTime):
            return spec.offset
        return spec.instant.timestamp() - self._wall_zero

    def _resolve_nodes(self, targets_ref: str) -> list[tuple[TargetDef, EnvPairs]]:
        leaves = resolve_group(self.targets[targets_ref])
        if self.experiment.node_filter is not None:
            leaves = [
                (leaf, env) for leaf, env in leaves if leaf.name in self.experiment.node_filter
            ]
        overrides = self.experiment.env_overrides
        if overrides:
            leaves = [(leaf, _merge_env(env, overrides)) for leaf, env in leaves]
        leaves.sort(key=lambda pair: pair[0].name)
        return leaves

    async def execute_step(self, step: Step) -> None:
        step_index = next(self._step_counter)
        if step.start is not None:
            await asyncio.sleep(self._instant(step.start) - self._now())
        ctx = _StepContext(
            step_index=step_index,
            exec_label=str(step_index),
            stop_instant=self._instant(step.stop) if step.stop is not None else None,
            step_task=asyncio.current_task(),
        )
        try:
            await self._execute_on_nodes(ctx, self.tasklists[step.tasklist_ref], step.targets_ref)
        finally:
            ctx.step_task = None  # the step's exception holds this frame, which holds ctx
        if self.panicked:
            raise _PanicSignal()

    async def _execute_on_nodes(
        self, ctx: _StepContext, tasklist: Tasklist, targets_ref: str
    ) -> None:
        """Run the tasklist on every node the targets resolve to, one task
        per node, between the start and end events of the step or teardown."""
        if ctx.is_teardown:
            start, end, what = EventKind.TEARDOWN_START, EventKind.TEARDOWN_END, "teardown"
        else:
            start, end, what = EventKind.STEP_START, EventKind.STEP_END, "step"
        leaves = self._resolve_nodes(targets_ref)
        self.emit(
            start,
            step_index=ctx.step_index,
            tasklist=tasklist.name,
            detail=f"targets={targets_ref} nodes={len(leaves)}",
        )
        if not leaves:
            self.emit(
                EventKind.WARNING,
                step_index=ctx.step_index,
                tasklist=tasklist.name,
                detail=f"{what} resolves to zero nodes (targets={targets_ref})",
            )
            self.emit(end, step_index=ctx.step_index, tasklist=tasklist.name)
            return
        ctx.outcomes = {leaf.name: _NODE_SKIPPED for leaf, _ in leaves}
        for leaf, env in leaves:
            ctx.node_tasks[leaf.name] = asyncio.create_task(
                self.execute_tasklist(tasklist, leaf, env, ctx), name=leaf.name, context=self._context
            )
        interrupted = False
        try:
            results = await asyncio.gather(*ctx.node_tasks.values(), return_exceptions=True)
        except asyncio.CancelledError:
            if self.panicked and not ctx.is_teardown:
                raise
            # The run was cancelled (Ctrl-C): the gather cancelled and awaited
            # every node task, as abort-step would; the step ends, then unwinds.
            interrupted = True
            results = [None if t.cancelled() else t.exception() for t in ctx.node_tasks.values()]
        finally:
            # Every node task has ended. Their exceptions hold frames that
            # hold ctx, so ctx lets go of the tasks.
            ctx.node_tasks = {}
        for node, result in zip(ctx.outcomes, results):
            if isinstance(result, Exception):  # a controller fault outside execute_tasklist's try
                ctx.outcomes[node] = _NODE_FAILED
                detail = f"controller: {type(result).__name__}: {result}"
                self.emit(EventKind.WARNING, node, ctx.step_index, tasklist.name, detail=detail)
        outcomes = tuple(sorted(ctx.outcomes.items()))
        detail = " ".join(f"{node}={state._value_}" for node, state in outcomes)
        self.emit(
            end, step_index=ctx.step_index, tasklist=tasklist.name, detail=detail, outcomes=outcomes
        )
        if interrupted:
            raise asyncio.CancelledError

    # -- per-node tasklist execution ----------------------------------------

    async def execute_tasklist(
        self,
        tasklist: Tasklist,
        leaf: TargetDef,
        env: EnvPairs,
        ctx: _StepContext,
    ) -> None:
        """Run one tasklist on one node; outcome lands in ctx.outcomes.

        The node's turn is taken before its session and held through the
        tasklist and its cleanup, so executions on one node serialize and
        each acquires the session afresh: one that an earlier execution lost
        is reconnected. The step's stop time bounds the wait for both. One
        try turns whatever the node's execution raised into its state, an
        optional Warning and an optional escalation; only cancellation
        propagates. A teardown always runs its tasklist as abort-tasklist.
        """
        node = leaf.name
        turns = self.pool.node_turns
        taken = _NOT_ASKED  # what turns.take returned, once this execution asked
        run: _NodeRun | None = None
        state = _NODE_FAILED
        warning = reason = ""
        escalation: ErrorMode | None = None
        try:
            try:
                if ctx.stop_instant is None:
                    taken = turns.take(node)
                    if taken is not None:
                        await taken
                    session = await self.pool.acquire(leaf)
                else:
                    if ctx.stop_instant <= self._now():
                        raise asyncio.TimeoutError()
                    async with asyncio.timeout_at(ctx.stop_instant):
                        taken = turns.take(node)
                        if taken is not None:
                            await taken
                        session = await self.pool.acquire(leaf)
                run = _NodeRun(session, leaf, env, ctx, contained=ctx.is_teardown)
                deadline = self._deadline(tasklist.timeout, ctx.stop_instant)
                if await self._run_tasks(run, tasklist, tasklist.tasks, deadline, ()) is _SUCCESS:
                    state = _NODE_SUCCEEDED
            except _Abort as exc:
                if exc.mode is not _ABORT_TASKLIST:
                    escalation, reason = exc.mode, f"on-error={exc.mode.value}"
            except asyncio.CancelledError:
                ctx.outcomes[node] = state = NodeState.ABORTED
                if run is None or (self.panicked and not ctx.is_teardown):
                    raise
            except Exception as exc:
                if run is not None:
                    # a fault of the controller itself, outside any one task
                    warning = f"controller: {type(exc).__name__}: {exc}"
                elif isinstance(exc, asyncio.TimeoutError) and ctx.stop_instant is not None:
                    warning = "stop time passed before execution began"
                else:
                    # No session (or the node name cannot name its artifact
                    # directory): the node's first failure, subject to the
                    # error mode; without a session no cleanup can run.
                    warning, reason = f"session: {exc}", str(exc)
                    escalation = None if ctx.is_teardown else tasklist.on_error
            ctx.outcomes[node] = state
            if warning:
                self.emit(EventKind.WARNING, node, ctx.step_index, tasklist.name, detail=warning)
            if escalation is not None:
                self._apply_escalation(escalation, ctx, node, tasklist.name, reason)
            if (
                run is not None
                and tasklist.cleanup is not None
                and (not self.panicked or ctx.is_teardown)
                and await self._run_cleanup(run, tasklist.cleanup)
                and state is _NODE_SUCCEEDED
            ):
                # the controller faulted in the cleanup; an aborted node stays Aborted
                ctx.outcomes[node] = _NODE_FAILED
        finally:
            if taken is not _NOT_ASKED:
                turns.release(node, taken)

    def _deadline(self, timeout: float | None, outer: float | None) -> float | None:
        """Now plus `timeout`, capped by the `outer` deadline; None bounds nothing."""
        if timeout is None:
            return outer
        own = self._now() + timeout
        return own if outer is None else min(outer, own)

    def _cancel_step_siblings(self, ctx: _StepContext, failing_node: str) -> None:
        # A node whose tasklist has ended has its state; its cleanup runs on.
        for name, task in ctx.node_tasks.items():
            if name != failing_node and ctx.outcomes[name] is _NODE_SKIPPED:
                task.cancel()

    def _apply_escalation(
        self, mode: ErrorMode, ctx: _StepContext, node: str, tasklist: str, detail: str
    ) -> None:
        if mode is ErrorMode.PANIC:
            self.trigger_panic(node, tasklist, detail, ctx.step_task)
            self._cancel_step_siblings(ctx, node)
        elif mode is _ABORT_STEP:
            self._cancel_step_siblings(ctx, node)

    async def _run_cleanup(self, run: _NodeRun, cleanup_ref: str) -> bool:
        """Run a cleanup tasklist to completion on the same node.

        Cleanups are contained: effective mode abort-tasklist, bounded by
        their own timeout only, and their own cleanup attribute does not
        chain further. A lost session is re-acquired first; failures are
        logged with the body's worst outcome and never escalate. Returns
        whether the controller itself faulted in one of its tasks, a
        callee's cleanup included.
        """
        cleanup = self.tasklists[cleanup_ref]
        node = run.leaf.name
        try:
            session = await self.pool.acquire(run.leaf)
        except Exception as exc:
            detail = f"cleanup session: {exc}"
            self.emit(EventKind.WARNING, node, run.ctx.step_index, cleanup.name, detail=detail)
            return False
        cleanup_run = _NodeRun(session, run.leaf, run.env, run.ctx, True, "c")
        deadline = self._deadline(cleanup.timeout, None)
        try:
            worst = await self._run_tasks(cleanup_run, cleanup, cleanup.tasks, deadline, ())
        except _Abort as exc:
            worst = exc.outcome
        if worst is not _SUCCESS:
            detail = f"cleanup finished {worst.value}"
            self.emit(EventKind.WARNING, node, run.ctx.step_index, cleanup.name, detail=detail)
        return cleanup_run.faulted

    # -- task trees ------------------------------------------------------
    #
    # A failure ends a tasklist body as one _Abort. What returns normally is
    # Success, or Failed when a callee absorbed a failure of its own: that
    # taint lets the body carry on, and since Failed is the least severe
    # failure, an _Abort's outcome is always the worst of the body it ends.
    # A failed task raises it as abort-tasklist; the task sequence it
    # belongs to applies the governing error mode (see _run_tasks).

    async def _run_tasks(
        self,
        run: _NodeRun,
        governing: Tasklist,
        tasks: tuple[Task, ...],
        deadline: float | None,
        path: tuple[int, ...],
        first: int = 0,
    ) -> TaskOutcome:
        """Run a task sequence under one governing tasklist; its tasks have
        the indices `first`, `first + 1`, ... below `path`. A task whose
        deadline has passed does not start. A command or transfer runs here,
        between its TaskStart and TaskEnd, and costs no coroutine of its
        own.

        Whatever the session raises becomes a leaf's outcome:
        ConnectionLost for a closed session, Failed for any other transport
        error, and Failed with a `controller:` detail for a fault of the
        controller itself (a failed artifact write, say). Any outcome but
        Success raises it as an abort-tasklist _Abort.

        A failure of a task in the sequence takes the governing error mode
        here, but a passed deadline stays abort-tasklist, and so does every
        failure of a contained run (teardown or cleanup).
        """
        worst = _SUCCESS
        for index, task in enumerate(tasks, first):
            task_path = self._share(path + (index,))
            try:
                if deadline is not None and self._now() >= deadline:
                    raise _Abort(_TIMED_OUT, _ABORT_TASKLIST)
                if isinstance(task, RunTask):
                    verb, target = "run", task.command
                elif isinstance(task, GetTask):
                    verb, target = "get", task.remote_path
                elif isinstance(task, PutTask):
                    verb, target = "put", task.local_path
                else:
                    if isinstance(task, SeqTask):
                        outcome = await self._run_tasks(run, governing, task.children, deadline, task_path)
                    elif isinstance(task, ParTask):
                        outcome = await self._run_par(run, governing, task, deadline, task_path)
                    else:
                        outcome = await self._run_call(run, task, deadline, task_path)
                    if outcome is not _SUCCESS:
                        worst = _FAILED
                    continue
                node = run.leaf.name
                step_index = run.ctx.step_index
                detail = self._share(f"{verb} {target}")
                self.emit(_TASK_START, node, step_index, governing.name, task_path, detail)
                artifacts: tuple[str, ...] = ()
                try:
                    if verb == "run":
                        label = None  # names the artifact files, so only a run directory needs one
                        if self.run_dir is not None:
                            label = artifact_label(f"{run.label_prefix}{run.ctx.exec_label}", task_path)
                        result = await run.session.exec(target, run.env, deadline, artifact_label=label)
                        detail = self._share(f"{result.outcome._value_} exit={result.exit_code}")
                        if result.stdout_ref:
                            artifacts = (result.stdout_ref, result.stderr_ref)
                            detail += f" stdout={result.stdout_ref} stderr={result.stderr_ref}"
                    elif verb == "get":
                        result = await run.session.fetch(target, deadline)
                        artifacts, detail = (result.stdout_ref,), f"Success artifact={result.stdout_ref}"
                    else:
                        result = await run.session.push(target, target, deadline)
                        detail = "Success"
                    outcome = result.outcome
                    if outcome is not _SUCCESS and verb != "run":  # a transfer's detail names its path
                        artifacts, detail = (), f"{outcome._value_} {verb}={target}"
                except SessionClosed:
                    outcome = TaskOutcome.CONNECTION_LOST
                    detail = outcome.value
                except TransportError:
                    outcome = _FAILED
                    detail = f"Failed {verb}={target}"
                except Exception as exc:
                    outcome = _FAILED
                    detail = f"Failed controller: {type(exc).__name__}: {exc}"
                    run.faulted = True
                self.emit(_TASK_END, node, step_index, governing.name, task_path, detail, artifacts=artifacts)
                if outcome is not _SUCCESS:
                    raise _Abort(outcome, _ABORT_TASKLIST)
            except _Abort as exc:
                if (
                    exc.mode is _ABORT_TASKLIST
                    and exc.outcome is not _TIMED_OUT
                    and governing.on_error is not _ABORT_TASKLIST
                    and not run.contained
                ):
                    raise _Abort(exc.outcome, governing.on_error) from None
                raise
        return worst

    async def _run_par(
        self,
        run: _NodeRun,
        governing: Tasklist,
        task: ParTask,
        deadline: float | None,
        path: tuple[int, ...],
    ) -> TaskOutcome:
        """All children start at once; the construct ends with the last one.

        Each child runs as a one-task sequence at its own index, so a
        failing leaf takes the governing error mode as it would in a
        `<seq>`. Failures are applied only after every started child has
        been collected, so parallel work is never torn down halfway by a
        sibling: a fault of the controller first, then the first escalation
        or passed deadline in tree order, else an abort-tasklist _Abort
        with the worst outcome of all children. A child's escalation is
        raised as a new _Abort: raising the child's own would put this
        frame, which holds it, into its traceback.
        """
        results = await asyncio.gather(*[
            asyncio.create_task(
                self._run_tasks(run, governing, (child,), deadline, path, index), context=self._context
            )
            for index, child in enumerate(task.children)
        ], return_exceptions=True)
        worst = _SUCCESS
        aborts = []
        for result in results:
            if isinstance(result, _Abort):
                aborts.append(result)
                result = result.outcome
            elif isinstance(result, BaseException):
                raise result
            worst = _worse(worst, result)
        if not aborts:
            return worst
        for abort in aborts:
            if abort.mode is not _ABORT_TASKLIST or abort.outcome is _TIMED_OUT:
                raise _Abort(abort.outcome, abort.mode)
        raise _Abort(worst, _ABORT_TASKLIST)

    async def _run_call(
        self,
        run: _NodeRun,
        task: CallTask,
        deadline: float | None,
        path: tuple[int, ...],
    ) -> TaskOutcome:
        """Execute the referenced tasklist inline, inheriting the deadline.

        The callee's own timeout and abort-tasklist failures stay contained:
        the call reports Failed and the caller carries on. abort-step and
        panic escalate through, except inside a teardown or cleanup, and so
        does a timeout once the caller's own deadline has passed too. The
        callee's cleanup runs only when the callee's own body failed, and
        not before a panic.
        """
        callee = self.tasklists[task.ref]
        callee_deadline = self._deadline(callee.timeout, deadline)
        reraise: tuple[TaskOutcome, ErrorMode] | None = None  # not the _Abort: see _run_par
        try:
            if await self._run_tasks(run, callee, callee.tasks, callee_deadline, path) is _SUCCESS:
                return _SUCCESS
        except _Abort as exc:
            if exc.mode is ErrorMode.PANIC:
                raise
            if exc.mode is _ABORT_STEP or (
                exc.outcome is _TIMED_OUT and deadline is not None and self._now() >= deadline
            ):
                reraise = (exc.outcome, exc.mode)
        if callee.cleanup is not None and await self._run_cleanup(run, callee.cleanup):
            run.faulted = True
        if reraise is not None:
            raise _Abort(*reraise)
        return _FAILED

    # -- teardowns ------------------------------------------------------

    async def drain_teardowns(self) -> None:
        """Run every registration exactly once, newest first.

        Teardown failures are logged and never stop later teardowns; the
        effective error mode is always abort-tasklist.
        """
        for ordinal, registration in enumerate(reversed(self.registry)):
            ctx = _StepContext(step_index=None, exec_label=f"t{ordinal}", is_teardown=True)
            with contextlib.suppress(asyncio.CancelledError):  # a Ctrl-C ends only this teardown
                await self._execute_on_nodes(
                    ctx, self.tasklists[registration.tasklist_ref], registration.targets_ref
                )


# --------------------------------------------------------------------------
# facades


def run_experiment(
    experiment: Experiment,
    transport_factory=None,
    real_time: bool = False,
    limiter_config: RateLimiterConfig | None = None,
    event_log: EventLog | None = None,
    run_dir: str | Path | None = None,
) -> ExperimentReport:
    """Execute an experiment to completion and return its report.

    The run gets a loop of its own: a RealTimeEventLoop with `real_time`,
    else a VirtualTimeEventLoop (and, with no transport factory, an empty
    mock deployment): a dry run. Operational failures are data in the
    report, never exceptions. A first SIGINT (Ctrl-C) ends the steps as
    abort-step does, runs the teardowns and then raises KeyboardInterrupt.
    """
    if transport_factory is None:
        transport_factory = make_transport_factory(MockScript())
    run_dir = Path(run_dir) if run_dir is not None else None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
    own_log = event_log is None
    if event_log is None:
        event_log = EventLog(run_dir / "events.jsonl" if run_dir is not None else None)
    runner = ExperimentRunner(
        experiment, transport_factory, limiter_config, event_log, run_dir=run_dir
    )
    loop_factory = RealTimeEventLoop if real_time else VirtualTimeEventLoop
    try:
        with asyncio.Runner(loop_factory=loop_factory) as loop_runner:
            return loop_runner.run(runner.run())
    finally:
        if own_log:
            event_log.close()


def dry_run(
    experiment: Experiment,
    mock_script: MockScript | None = None,
    limiter_config: RateLimiterConfig | None = None,
    event_log: EventLog | None = None,
    run_dir: str | Path | None = None,
) -> ExperimentReport:
    """Full execution on the mock transport and virtual clock."""
    factory = make_transport_factory(mock_script or MockScript())
    return run_experiment(
        experiment, factory, limiter_config=limiter_config, event_log=event_log, run_dir=run_dir
    )
