"""Execution engine for steps programs.

Steps launch in document order and run concurrently; synchronize blocks a
steps block until everything launched before it has finished; repeat loops
re-run a nested block under decidable bounds; register-teardown records
work that is guaranteed to run at the end, whatever happens in between.

The engine is plain asyncio and never inspects the clock type, so the same
code runs against wall time or against VirtualTimeEventLoop, where time
advances only when every runnable coroutine is blocked. Virtual runs are
fully deterministic: steps launch in document order, nodes within a step
run in name order, and the ready queue is FIFO.
"""
from __future__ import annotations

import asyncio
import itertools
import math
import selectors
import time
from collections.abc import Awaitable
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
    RateLimiter,
    RateLimiterConfig,
    Session,
    SessionClosed,
    SessionPool,
    TransportError,
    make_transport_factory,
)


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
            self._loop_ref._advance(timeout)
        return []


class VirtualTimeEventLoop(asyncio.SelectorEventLoop):
    """Event loop whose clock jumps straight to the next scheduled timer.

    Sleeps cost no wall time and timers fire at exact instants, which makes
    runs over the mock transport both fast and reproducible.
    """

    def __init__(self):
        self._vtime = 0.0
        super().__init__(selector=_VirtualSelector(self))
        self._clock_resolution = 1e-9  # replaces the base's; _advance keeps it current

    def time(self):
        return self._vtime

    def _advance(self, timeout):
        # timeout only bounds how long a real select would block (asyncio
        # caps it at a day); the next timer is the true wake-up instant
        heap = self._scheduled
        if heap:
            self._vtime = max(self._vtime, heap[0]._when)
        else:
            self._vtime += timeout
        # Must scale with the magnitude of the clock: at large virtual times
        # one float ulp exceeds a fixed resolution and timers would starve.
        # Time moves only here, so the resolution is set only here.
        self._clock_resolution = max(1e-9, 4.0 * math.ulp(self._vtime))


class Clock:
    """Experiment-relative time source shared by engine and transports.

    now() starts near 0 at experiment start; wall() is Unix time, used only
    to evaluate absolute time specs.
    """

    def now(self) -> float:
        raise NotImplementedError

    def wall(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> Awaitable[None]:
        return asyncio.sleep(max(0.0, seconds))

    def sleep_until(self, instant: float) -> Awaitable[None]:
        return self.sleep(instant - self.now())


class VirtualClock(Clock):
    """Reads the running virtual loop; wall time starts at the Unix epoch.

    While run_experiment drives a loop of its own, the clock is bound to it:
    now() is then that loop's time(), without asking asyncio for the
    running loop on every read. Hence one clock serves one run at a time.
    """

    def now(self) -> float:
        return asyncio.get_running_loop().time()

    def wall(self) -> float:
        return self.now()


class RealClock(Clock):
    def __init__(self):
        self._mono_zero = time.monotonic()
        self._wall_zero = time.time()

    def now(self) -> float:
        return time.monotonic() - self._mono_zero

    def wall(self) -> float:
        return self._wall_zero + self.now()


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
_LEAF_TASKS = (RunTask, GetTask, PutTask)
_new_tuple = tuple.__new__  # builds a named tuple without its Python __new__


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
    """Single-run executor; create one per experiment execution."""

    def __init__(
        self,
        experiment: Experiment,
        transport_factory,
        clock: Clock,
        limiter_config: RateLimiterConfig | None,
        event_log: EventLog,
        run_dir: Path | None = None,
    ):
        self.experiment = experiment
        self.targets = experiment.target_map()
        self.tasklists = experiment.tasklist_map()
        self.transport_factory = transport_factory
        self.clock = clock
        self.limiter_config = limiter_config
        self.log = event_log
        self.run_dir = run_dir

        self.registry: list[RegisterTeardown] = []
        self.panicked = False
        self.pool: SessionPool | None = None
        self.limiter: RateLimiter | None = None
        self._step_counter = itertools.count()
        self._all_step_tasks: list[asyncio.Task] = []
        self._shared: dict = {}  # see _share

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
                self.clock.now(), kind, node, step_index, tasklist, task_path, detail,
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
        self.limiter = RateLimiter(self.limiter_config, self.clock)
        self.pool = SessionPool(self.transport_factory, emit=self.emit, artifact_root=self.run_dir)
        try:
            self.emit(EventKind.EXPERIMENT_START)
            try:
                await self.execute_steps_block(self.experiment.steps.items)
            except (_PanicSignal, asyncio.CancelledError):
                pass
            await self._drain_step_tasks()
            await self.drain_teardowns()
        finally:
            await self.pool.close_all()  # also when a failing sink ends the run

        # ExperimentEnd changes neither the status nor the summary, so the
        # report is rendered once and only its event tuple is replaced.
        report, summary = render_report(self.log.events)
        self.emit(EventKind.EXPERIMENT_END, detail=report.overall.value)
        report = replace(report, events=self.log.events)
        if self.run_dir is not None:
            write_report(self.run_dir, report, summary)
        return report

    async def _drain_step_tasks(self) -> None:
        # After a panic the cancelled tasks must fully unwind (releasing
        # their node locks) before any teardown work may start.
        if self._all_step_tasks:
            await asyncio.gather(*self._all_step_tasks, return_exceptions=True)

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
        for item in items:
            if self.panicked:
                raise _PanicSignal()
            if isinstance(item, Step):
                task = asyncio.create_task(self.execute_step(item))
                pending.append(task)
                self._all_step_tasks.append(task)
            elif isinstance(item, RegisterTeardown):
                self.registry.append(item)
            elif isinstance(item, Repeat):
                await self.execute_repeat(item)
            else:  # Synchronize
                await self._barrier(pending)
        if pending:
            await asyncio.gather(*pending)

    async def _barrier(self, pending: list[asyncio.Task]) -> None:
        if pending:
            await asyncio.gather(*pending)
        self.emit(EventKind.BARRIER_RELEASE, detail=f"waited={len(pending)}")
        pending.clear()

    async def execute_repeat(self, repeat: Repeat) -> None:
        """Loop the body while every given bound still admits an iteration.

        Bounds are checked between iterations only; a running iteration is
        never pre-empted by during/until.
        """
        entered = self.clock.now()
        completed = 0
        while True:
            if self.panicked:
                raise _PanicSignal()
            if repeat.iterations is not None and completed >= repeat.iterations:
                break
            if repeat.during is not None and self.clock.now() - entered >= repeat.during:
                break
            if repeat.until is not None and self.clock.wall() >= repeat.until.timestamp():
                break
            await self.execute_steps_block(repeat.body)
            completed += 1

    # -- steps ------------------------------------------------------

    def _instant(self, spec: TimeSpec) -> float:
        if isinstance(spec, RelativeTime):
            return spec.offset
        wall_base = self.clock.wall() - self.clock.now()
        return spec.instant.timestamp() - wall_base

    def _resolve_nodes(self, targets_ref: str) -> list[tuple[TargetDef, EnvPairs]]:
        leaves = resolve_group(self.targets[targets_ref], self.targets)
        if self.experiment.node_filter is not None:
            leaves = [
                (leaf, env) for leaf, env in leaves if leaf.name in self.experiment.node_filter
            ]
        if self.experiment.env_overrides:
            merged = []
            for leaf, env in leaves:
                table = dict(env)
                table.update(self.experiment.env_overrides)
                merged.append((leaf, tuple(table.items())))
            leaves = merged
        leaves.sort(key=lambda pair: pair[0].name)
        return leaves

    async def execute_step(self, step: Step) -> None:
        step_index = next(self._step_counter)
        if step.start is not None:
            await self.clock.sleep_until(self._instant(step.start))
        ctx = _StepContext(
            step_index=step_index,
            exec_label=str(step_index),
            stop_instant=self._instant(step.stop) if step.stop is not None else None,
            step_task=asyncio.current_task(),
        )
        await self._execute_on_nodes(ctx, self.tasklists[step.tasklist_ref], step.targets_ref)
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
                self.execute_tasklist(tasklist, leaf, env, ctx)
            )
        await asyncio.gather(*ctx.node_tasks.values(), return_exceptions=True)
        outcomes = tuple(sorted(ctx.outcomes.items()))
        detail = " ".join(f"{node}={state._value_}" for node, state in outcomes)
        self.emit(
            end, step_index=ctx.step_index, tasklist=tasklist.name, detail=detail, outcomes=outcomes
        )

    # -- per-node tasklist execution ----------------------------------------

    async def execute_tasklist(
        self,
        tasklist: Tasklist,
        leaf: TargetDef,
        env: EnvPairs,
        ctx: _StepContext,
    ) -> None:
        """Run one tasklist on one node; outcome lands in ctx.outcomes.

        The node's lock is taken before its session and held through the
        tasklist and its cleanup, so executions on one node serialize and
        each acquires the session afresh: one that an earlier execution lost
        is reconnected. One try turns whatever the node's execution raised
        into its state, an optional Warning and an optional escalation; only
        cancellation propagates. A teardown always runs its tasklist as
        abort-tasklist.
        """
        node = leaf.name
        lock = self.pool.node_lock(node)
        locked = False
        run: _NodeRun | None = None
        state = _NODE_FAILED
        warning = reason = ""
        escalation: ErrorMode | None = None
        try:
            try:
                if ctx.stop_instant is None:
                    await lock.acquire()
                    locked = True
                    session = await self.pool.acquire(leaf, self.limiter, self.clock)
                else:
                    remaining = ctx.stop_instant - self.clock.now()
                    if remaining <= 0:
                        raise asyncio.TimeoutError()
                    session = await asyncio.wait_for(self._acquire_node(leaf, lock), remaining)
                    locked = True
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
            if locked:
                lock.release()

    async def _acquire_node(self, leaf: TargetDef, lock: asyncio.Lock) -> Session:
        """Take the node's lock, then its session, as one awaitable for a
        stop time's wait_for; the lock is released again if no session
        comes of it. Without a stop time execute_tasklist awaits both
        itself: one frame fewer per parked node."""
        await lock.acquire()
        try:
            return await self.pool.acquire(leaf, self.limiter, self.clock)
        except BaseException:
            lock.release()
            raise

    def _deadline(self, timeout: float | None, outer: float | None) -> float | None:
        """Now plus `timeout`, capped by the `outer` deadline; None bounds nothing."""
        if timeout is None:
            return outer
        own = self.clock.now() + timeout
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
            session = await self.pool.acquire(run.leaf, self.limiter, self.clock)
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
    ) -> TaskOutcome:
        """Run a task sequence under one governing tasklist.

        A failure of a task in it takes the governing error mode here, but
        a passed deadline stays abort-tasklist, and so does every failure
        of a contained run (teardown or cleanup).
        """
        worst = _SUCCESS
        for index, task in enumerate(tasks):
            child = self._run_leaf if isinstance(task, _LEAF_TASKS) else self._run_one
            try:
                if await child(run, governing, task, deadline, self._share(path + (index,))) is not _SUCCESS:
                    worst = _FAILED
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

    async def _run_one(
        self,
        run: _NodeRun,
        governing: Tasklist,
        task: SeqTask | ParTask | CallTask,
        deadline: float | None,
        path: tuple[int, ...],
    ) -> TaskOutcome:
        """Run a seq, par or call construct; leaves go to _run_leaf."""
        if deadline is not None and self.clock.now() >= deadline:
            raise _Abort(_TIMED_OUT, _ABORT_TASKLIST)
        if isinstance(task, SeqTask):
            return await self._run_tasks(run, governing, task.children, deadline, path)
        if isinstance(task, ParTask):
            return await self._run_par(run, governing, task, deadline, path)
        return await self._run_call(run, task, deadline, path)

    async def _run_leaf(
        self,
        run: _NodeRun,
        governing: Tasklist,
        task: RunTask | GetTask | PutTask,
        deadline: float | None,
        path: tuple[int, ...],
    ) -> TaskOutcome:
        """Run one command or transfer between its TaskStart and TaskEnd.

        Whatever the session raises becomes the task's outcome here:
        ConnectionLost for a closed session, Failed for any other transport
        error, and Failed with a `controller:` detail for a fault of the
        controller itself (a failed artifact write, say). Any outcome but
        Success raises it as an abort-tasklist _Abort.
        """
        if deadline is not None and self.clock.now() >= deadline:
            raise _Abort(_TIMED_OUT, _ABORT_TASKLIST)
        node = run.leaf.name
        step_index = run.ctx.step_index
        if isinstance(task, RunTask):
            verb, target = "run", task.command
        elif isinstance(task, GetTask):
            verb, target = "get", task.remote_path
        else:
            verb, target = "put", task.local_path
        detail = self._share(f"{verb} {target}")
        self.emit(_TASK_START, node, step_index, governing.name, path, detail)
        artifacts: tuple[str, ...] = ()
        try:
            if isinstance(task, RunTask):
                label = None  # names the artifact files, so only a run directory needs one
                if self.run_dir is not None:
                    label = artifact_label(f"{run.label_prefix}{run.ctx.exec_label}", path)
                result = await run.session.exec(target, run.env, deadline, artifact_label=label)
                outcome = result.outcome
                detail = self._share(f"{outcome._value_} exit={result.exit_code}")
                if result.stdout_ref:
                    artifacts = (result.stdout_ref, result.stderr_ref)
                    detail += f" stdout={result.stdout_ref} stderr={result.stderr_ref}"
            elif isinstance(task, GetTask):
                destination = await run.session.fetch(target)
                artifacts = (f"{node}/{destination.name}",)
                outcome, detail = _SUCCESS, f"Success artifact={artifacts[0]}"
            else:
                await run.session.push(target, target)
                outcome, detail = _SUCCESS, "Success"
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
        self.emit(_TASK_END, node, step_index, governing.name, path, detail, artifacts=artifacts)
        if outcome is not _SUCCESS:
            raise _Abort(outcome, _ABORT_TASKLIST)
        return outcome

    async def _run_par(
        self,
        run: _NodeRun,
        governing: Tasklist,
        task: ParTask,
        deadline: float | None,
        path: tuple[int, ...],
    ) -> TaskOutcome:
        """All children start at once; the construct ends with the last one.

        Failures are applied only after every started child has been
        collected, so parallel work is never torn down halfway by a sibling:
        a fault of the controller first, then the first escalation or
        passed deadline in tree order, else an abort-tasklist _Abort with
        the worst outcome of all children.
        """
        children = [
            asyncio.create_task(
                (self._run_leaf if isinstance(child, _LEAF_TASKS) else self._run_one)(
                    run, governing, child, deadline, self._share(path + (index,))
                )
            )
            for index, child in enumerate(task.children)
        ]
        results = await asyncio.gather(*children, return_exceptions=True)
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
                raise abort
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
        reraise: _Abort | None = None
        try:
            if await self._run_tasks(run, callee, callee.tasks, callee_deadline, path) is _SUCCESS:
                return _SUCCESS
        except _Abort as exc:
            if exc.mode is ErrorMode.PANIC:
                raise
            if exc.mode is _ABORT_STEP or (
                exc.outcome is _TIMED_OUT and deadline is not None and self.clock.now() >= deadline
            ):
                reraise = exc
        if callee.cleanup is not None and await self._run_cleanup(run, callee.cleanup):
            run.faulted = True
        if reraise is not None:
            raise reraise
        return _FAILED

    # -- teardowns ------------------------------------------------------

    async def drain_teardowns(self) -> None:
        """Run every registration exactly once, newest first.

        Teardown failures are logged and never stop later teardowns; the
        effective error mode is always abort-tasklist.
        """
        for ordinal, registration in enumerate(reversed(self.registry)):
            ctx = _StepContext(step_index=None, exec_label=f"t{ordinal}", is_teardown=True)
            await self._execute_on_nodes(
                ctx, self.tasklists[registration.tasklist_ref], registration.targets_ref
            )


# --------------------------------------------------------------------------
# facades


def run_experiment(
    experiment: Experiment,
    transport_factory=None,
    clock: Clock | None = None,
    limiter_config: RateLimiterConfig | None = None,
    event_log: EventLog | None = None,
    run_dir: str | Path | None = None,
) -> ExperimentReport:
    """Execute an experiment to completion and return its report.

    With no clock given, execution happens on the virtual clock (and, with
    no transport factory, against an empty mock deployment): a dry run.
    Operational failures are data in the report, never exceptions.
    """
    if clock is None:
        clock = VirtualClock()
    if transport_factory is None:
        transport_factory = make_transport_factory(clock, force_mock=True)
    run_dir = Path(run_dir) if run_dir is not None else None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
    own_log = event_log is None
    if event_log is None:
        event_log = EventLog(run_dir / "events.jsonl" if run_dir is not None else None)
    runner = ExperimentRunner(
        experiment, transport_factory, clock, limiter_config, event_log, run_dir=run_dir
    )
    virtual = isinstance(clock, VirtualClock)
    loop = VirtualTimeEventLoop() if virtual else asyncio.new_event_loop()
    if virtual:
        clock.now = loop.time  # bound while this loop runs; see VirtualClock
    try:
        return loop.run_until_complete(runner.run())
    finally:
        loop.close()
        if virtual:
            del clock.now
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
    clock = VirtualClock()
    factory = make_transport_factory(clock, mock_script, force_mock=True)
    return run_experiment(experiment, factory, clock, limiter_config, event_log, run_dir)
