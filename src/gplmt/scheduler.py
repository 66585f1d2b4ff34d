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
    ArtifactPathError,
    EventKind,
    EventLog,
    ExecutionEvent,
    render_report,
    write_report,
)
from .transport import (
    DEFAULT_RECONNECT_BUDGET,
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

    @property
    def _clock_resolution(self):
        # Must scale with the magnitude of the clock: at large virtual times
        # one float ulp exceeds a fixed resolution and timers would starve.
        return max(1e-9, 4.0 * math.ulp(self._vtime))

    @_clock_resolution.setter
    def _clock_resolution(self, value):
        pass  # the base constructor assigns it; the property stays in charge

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
    """Reads the running virtual loop; wall time starts at the Unix epoch."""

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


class _PanicSignal(Exception):
    """Raised inside the engine to unwind to the teardown phase."""


class _Escalation(Exception):
    """A task failure whose error mode reaches beyond its own tasklist."""

    def __init__(self, mode: ErrorMode):
        super().__init__(mode.value)
        self.mode = mode


class _DeadlineHit(Exception):
    """A tasklist deadline (timeout or step stop) has passed."""


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


@dataclass(frozen=True)
class _NodeRun:
    """What every task of one node's execution shares; a cleanup runs under
    a copy with its own session and the artifact label prefix "c".

    `contained` marks a teardown or cleanup: every tasklist it runs, callees
    included, runs as abort-tasklist.
    """

    session: Session
    leaf: TargetDef
    env: EnvPairs
    ctx: _StepContext
    contained: bool
    label_prefix: str = ""


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
        reconnect_budget: int = DEFAULT_RECONNECT_BUDGET,
    ):
        self.experiment = experiment
        self.targets = experiment.target_map()
        self.tasklists = experiment.tasklist_map()
        self.transport_factory = transport_factory
        self.clock = clock
        self.limiter_config = limiter_config
        self.log = event_log
        self.run_dir = run_dir
        self.reconnect_budget = reconnect_budget

        self.registry: list[RegisterTeardown] = []
        self.panicked = False
        self.pool: SessionPool | None = None
        self.limiter: RateLimiter | None = None
        self._step_counter = itertools.count()
        self._all_step_tasks: list[asyncio.Task] = []

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
            ExecutionEvent(
                self.clock.now(), kind, node, step_index, tasklist, task_path, detail,
                outcomes, artifacts,
            )
        )

    def _emit_connection(self, kind: EventKind, node: str, detail: str) -> None:
        self.emit(kind, node, detail=detail)

    # -- top level ------------------------------------------------------

    async def run(self) -> ExperimentReport:
        self.limiter = RateLimiter(self.limiter_config, self.clock)
        self.pool = SessionPool(
            self.transport_factory,
            emit=self._emit_connection,
            artifact_root=self.run_dir,
            reconnect_budget=self.reconnect_budget,
        )
        self.emit(EventKind.EXPERIMENT_START)
        try:
            await self.execute_steps_block(self.experiment.steps.items)
        except (_PanicSignal, asyncio.CancelledError):
            pass
        await self._drain_step_tasks()
        await self.drain_teardowns()
        await self.pool.close_all()

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
        # their session locks) before any teardown work may start.
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
        ctx.outcomes = {leaf.name: NodeState.SKIPPED for leaf, _ in leaves}
        for leaf, env in leaves:
            ctx.node_tasks[leaf.name] = asyncio.create_task(
                self.execute_tasklist(tasklist, leaf, env, ctx)
            )
        await asyncio.gather(*ctx.node_tasks.values(), return_exceptions=True)
        outcomes = tuple(sorted(ctx.outcomes.items()))
        detail = " ".join(f"{node}={state.value}" for node, state in outcomes)
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

        A teardown always runs its tasklist as abort-tasklist.
        """
        node = leaf.name
        try:
            session = await self._enter_node(leaf, ctx)
        except asyncio.TimeoutError:
            ctx.outcomes[node] = NodeState.FAILED
            detail = "stop time passed before execution began"
            self.emit(EventKind.WARNING, node, ctx.step_index, tasklist.name, detail=detail)
            return
        except asyncio.CancelledError:
            ctx.outcomes[node] = NodeState.ABORTED
            raise
        except (TransportError, ArtifactPathError) as exc:
            # Session acquisition failed, or the node name cannot name its
            # artifact directory: the node's first failure, subject to the
            # error mode; without a session no cleanup can run.
            ctx.outcomes[node] = NodeState.FAILED
            detail = f"session: {exc}"
            self.emit(EventKind.WARNING, node, ctx.step_index, tasklist.name, detail=detail)
            mode = None if ctx.is_teardown else tasklist.on_error
            self._apply_escalation(mode, ctx, node, tasklist.name, str(exc))
            return
        try:
            run = _NodeRun(session, leaf, env, ctx, contained=ctx.is_teardown)
            await self._body_and_cleanup(run, tasklist)
        except Exception as exc:
            # A fault of the controller itself (a failed artifact write, an
            # engine bug) fails the node and is logged; no error mode applies.
            ctx.outcomes[node] = NodeState.FAILED
            detail = f"controller: {type(exc).__name__}: {exc}"
            self.emit(EventKind.WARNING, node, ctx.step_index, tasklist.name, detail=detail)
        finally:
            session.lock.release()

    def _enter_node(self, leaf: TargetDef, ctx: _StepContext) -> Awaitable[Session]:
        """Acquire the node session and its per-node execution lock,
        bounded by the step's stop time.

        A plain method returning the awaitable, so that a node parked on the
        rate limiter holds one coroutine frame fewer; it raises TimeoutError
        itself when the stop time has already passed.
        """
        if ctx.stop_instant is None:
            return self._acquire_node(leaf)
        remaining = ctx.stop_instant - self.clock.now()
        if remaining <= 0:
            raise asyncio.TimeoutError()
        return asyncio.wait_for(self._acquire_node(leaf), remaining)

    async def _acquire_node(self, leaf: TargetDef) -> Session:
        session = await self.pool.acquire(leaf, self.limiter, self.clock)
        await session.lock.acquire()
        return session

    async def _body_and_cleanup(self, run: _NodeRun, governing: Tasklist) -> None:
        ctx, node = run.ctx, run.leaf.name
        deadline = self._deadline(governing.timeout, ctx.stop_instant)
        escalation: ErrorMode | None = None
        detail = ""
        try:
            worst, _ = await self._run_tasks(run, governing, governing.tasks, deadline, ())
            state = NodeState.SUCCEEDED if worst is TaskOutcome.SUCCESS else NodeState.FAILED
        except _DeadlineHit:
            state = NodeState.FAILED
        except _Escalation as exc:
            state = NodeState.FAILED
            escalation = exc.mode
            detail = f"on-error={exc.mode.value}"
        except asyncio.CancelledError:
            ctx.outcomes[node] = NodeState.ABORTED
            if self.panicked and not ctx.is_teardown:
                raise
            state = NodeState.ABORTED
        ctx.outcomes[node] = state

        self._apply_escalation(escalation, ctx, node, governing.name, detail)
        if escalation is ErrorMode.PANIC:
            return
        if governing.cleanup is not None and (not self.panicked or ctx.is_teardown):
            await self._run_cleanup(run, governing.cleanup)

    def _deadline(self, timeout: float | None, outer: float | None) -> float | None:
        """Now plus `timeout`, capped by the `outer` deadline; None bounds nothing."""
        if timeout is None:
            return outer
        own = self.clock.now() + timeout
        return own if outer is None else min(outer, own)

    def _cancel_step_siblings(self, ctx: _StepContext, failing_node: str) -> None:
        for name, task in ctx.node_tasks.items():
            if name != failing_node and not task.done():
                task.cancel()

    def _apply_escalation(
        self, mode: ErrorMode | None, ctx: _StepContext, node: str, tasklist: str, detail: str
    ) -> None:
        if mode is ErrorMode.PANIC:
            self.trigger_panic(node, tasklist, detail, ctx.step_task)
            self._cancel_step_siblings(ctx, node)
        elif mode is ErrorMode.ABORT_STEP:
            self._cancel_step_siblings(ctx, node)

    async def _run_cleanup(self, run: _NodeRun, cleanup_ref: str) -> None:
        """Run a cleanup tasklist to completion on the same node.

        Cleanups are contained: effective mode abort-tasklist, bounded by
        their own timeout only, and their own cleanup attribute does not
        chain further. A lost session is re-acquired first; failures are
        logged and never escalate.
        """
        cleanup = self.tasklists[cleanup_ref]
        node = run.leaf.name
        try:
            session = await self.pool.acquire(run.leaf, self.limiter, self.clock)
        except TransportError as exc:
            detail = f"cleanup session: {exc}"
            self.emit(EventKind.WARNING, node, run.ctx.step_index, cleanup.name, detail=detail)
            return
        deadline = self._deadline(cleanup.timeout, None)
        try:
            worst, _ = await self._run_tasks(
                replace(run, session=session, contained=True, label_prefix="c"),
                cleanup,
                cleanup.tasks,
                deadline,
                (),
            )
        except _DeadlineHit:
            worst = TaskOutcome.TIMED_OUT
        if worst is not TaskOutcome.SUCCESS:
            detail = f"cleanup finished {worst.value}"
            self.emit(EventKind.WARNING, node, run.ctx.step_index, cleanup.name, detail=detail)

    # -- task trees ------------------------------------------------------

    async def _run_tasks(
        self,
        run: _NodeRun,
        governing: Tasklist,
        tasks: tuple[Task, ...],
        deadline: float | None,
        path: tuple[int, ...],
    ) -> tuple[TaskOutcome, bool]:
        """Run a task sequence under one governing tasklist.

        Returns (worst outcome, saw-uncontained-failure). Failures from
        directly governed tasks trigger the governing error mode, which a
        contained run (teardown or cleanup) takes as abort-tasklist; failures
        already absorbed by a callee's own mode only taint the outcome.
        """
        worst = TaskOutcome.SUCCESS
        uncontained = False
        for index, task in enumerate(tasks):
            outcome, contained = await self._run_one(
                run, governing, task, deadline, path + (index,)
            )
            worst = _worse(worst, outcome)
            if outcome is not TaskOutcome.SUCCESS and not contained:
                uncontained = True
                if governing.on_error is not ErrorMode.ABORT_TASKLIST and not run.contained:
                    raise _Escalation(governing.on_error)
                break
        return worst, uncontained

    async def _run_one(
        self,
        run: _NodeRun,
        governing: Tasklist,
        task: Task,
        deadline: float | None,
        path: tuple[int, ...],
    ) -> tuple[TaskOutcome, bool]:
        if deadline is not None and self.clock.now() >= deadline:
            raise _DeadlineHit()
        if isinstance(task, RunTask):
            return await self._run_command(run, governing, task, deadline, path), False
        if isinstance(task, (GetTask, PutTask)):
            return await self._run_transfer(run, governing, task, path), False
        if isinstance(task, SeqTask):
            worst, uncontained = await self._run_tasks(
                run, governing, task.children, deadline, path
            )
            return worst, not uncontained and worst is not TaskOutcome.SUCCESS
        if isinstance(task, ParTask):
            return await self._run_par(run, governing, task, deadline, path)
        return await self._run_call(run, task, deadline, path)

    async def _run_command(
        self,
        run: _NodeRun,
        governing: Tasklist,
        task: RunTask,
        deadline: float | None,
        path: tuple[int, ...],
    ) -> TaskOutcome:
        node = run.leaf.name
        label = None  # names the artifact files, so only a run directory needs one
        if self.run_dir is not None:
            label = f"{run.label_prefix}{run.ctx.exec_label}-" + "-".join(map(str, path))
        step_index = run.ctx.step_index
        self.emit(
            EventKind.TASK_START, node, step_index, governing.name, path, f"run {task.command}"
        )
        artifacts: tuple[str, ...] = ()
        try:
            result = await run.session.exec(task.command, run.env, deadline, artifact_label=label)
        except SessionClosed:
            outcome = TaskOutcome.CONNECTION_LOST
            detail = outcome.value
        else:
            outcome = result.outcome
            detail = f"{outcome.value} exit={result.exit_code}"
            if result.stdout_ref:
                artifacts = (result.stdout_ref, result.stderr_ref)
                detail += f" stdout={result.stdout_ref} stderr={result.stderr_ref}"
        self.emit(
            EventKind.TASK_END, node, step_index, governing.name, path, detail, artifacts=artifacts
        )
        if outcome is TaskOutcome.TIMED_OUT:
            raise _DeadlineHit()
        return outcome

    async def _run_transfer(
        self,
        run: _NodeRun,
        governing: Tasklist,
        task: GetTask | PutTask,
        path: tuple[int, ...],
    ) -> TaskOutcome:
        node = run.leaf.name
        verb = "get" if isinstance(task, GetTask) else "put"
        file_path = task.remote_path if isinstance(task, GetTask) else task.local_path
        step_index = run.ctx.step_index
        self.emit(
            EventKind.TASK_START, node, step_index, governing.name, path, f"{verb} {file_path}"
        )
        outcome = TaskOutcome.SUCCESS
        detail = "Success"
        artifacts: tuple[str, ...] = ()
        try:
            if isinstance(task, GetTask):
                destination = await run.session.fetch(task.remote_path)
                artifacts = (f"{node}/{destination.name}",)
                detail = f"Success artifact={artifacts[0]}"
            else:
                await run.session.push(task.local_path, task.local_path)
        except SessionClosed:
            outcome = TaskOutcome.CONNECTION_LOST
            detail = TaskOutcome.CONNECTION_LOST.value
        except TransportError:
            outcome = TaskOutcome.FAILED
            detail = f"Failed {verb}={file_path}"
        self.emit(
            EventKind.TASK_END, node, step_index, governing.name, path, detail, artifacts=artifacts
        )
        return outcome

    async def _run_par(
        self,
        run: _NodeRun,
        governing: Tasklist,
        task: ParTask,
        deadline: float | None,
        path: tuple[int, ...],
    ) -> tuple[TaskOutcome, bool]:
        """All children start at once; the construct ends with the last one.

        Escalation and deadline exhaustion are applied after the already
        started children have been collected, first child in tree order
        winning, so parallel work is never torn down halfway by a sibling.
        """
        children = [
            asyncio.create_task(self._run_one(run, governing, child, deadline, path + (index,)))
            for index, child in enumerate(task.children)
        ]
        results = await asyncio.gather(*children, return_exceptions=True)
        worst = TaskOutcome.SUCCESS
        uncontained = False
        to_raise: BaseException | None = None
        for result in results:
            if isinstance(result, _Escalation):
                worst = _worse(worst, TaskOutcome.FAILED)
                uncontained = True
                if to_raise is None:
                    to_raise = result
            elif isinstance(result, _DeadlineHit):
                worst = _worse(worst, TaskOutcome.TIMED_OUT)
                if to_raise is None:
                    to_raise = result
            elif isinstance(result, BaseException):
                raise result
            else:
                outcome, contained = result
                worst = _worse(worst, outcome)
                if outcome is not TaskOutcome.SUCCESS and not contained:
                    uncontained = True
        if to_raise is not None:
            raise to_raise
        return worst, not uncontained and worst is not TaskOutcome.SUCCESS

    async def _run_call(
        self,
        run: _NodeRun,
        task: CallTask,
        deadline: float | None,
        path: tuple[int, ...],
    ) -> tuple[TaskOutcome, bool]:
        """Execute the referenced tasklist inline, inheriting the deadline.

        The callee's own timeout and abort-tasklist failures stay contained:
        the call reports Failed and the caller carries on. abort-step and
        panic escalate through, except inside a teardown or cleanup. The
        callee's cleanup runs only when the callee's own body failed.
        """
        callee = self.tasklists[task.ref]
        callee_deadline = self._deadline(callee.timeout, deadline)
        worst = TaskOutcome.SUCCESS
        reraise: BaseException | None = None
        try:
            worst, _ = await self._run_tasks(run, callee, callee.tasks, callee_deadline, path)
        except _DeadlineHit as exc:
            worst = TaskOutcome.TIMED_OUT
            if deadline is not None and self.clock.now() >= deadline:
                reraise = exc  # the caller's own deadline has passed too
        except _Escalation as exc:
            worst = TaskOutcome.FAILED
            if exc.mode is ErrorMode.PANIC:
                raise
            reraise = exc
        if worst is not TaskOutcome.SUCCESS and callee.cleanup is not None:
            await self._run_cleanup(run, callee.cleanup)
        if reraise is not None:
            raise reraise
        if worst is not TaskOutcome.SUCCESS:
            return TaskOutcome.FAILED, True
        return TaskOutcome.SUCCESS, False

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
    reconnect_budget: int = DEFAULT_RECONNECT_BUDGET,
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
    loop = VirtualTimeEventLoop() if isinstance(clock, VirtualClock) else asyncio.new_event_loop()
    runner = ExperimentRunner(
        experiment,
        transport_factory,
        clock,
        limiter_config,
        event_log,
        run_dir=run_dir,
        reconnect_budget=reconnect_budget,
    )
    try:
        return loop.run_until_complete(runner.run())
    finally:
        loop.close()
        if own_log:
            event_log.close()


def dry_run(
    experiment: Experiment,
    mock_script: MockScript | None = None,
    limiter_config: RateLimiterConfig | None = None,
    event_log: EventLog | None = None,
    run_dir: str | Path | None = None,
    reconnect_budget: int = DEFAULT_RECONNECT_BUDGET,
) -> ExperimentReport:
    """Full execution on the mock transport and virtual clock."""
    clock = VirtualClock()
    factory = make_transport_factory(clock, mock_script, force_mock=True)
    return run_experiment(
        experiment,
        factory,
        clock,
        limiter_config,
        event_log,
        run_dir,
        reconnect_budget,
    )
