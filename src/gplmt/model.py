"""In-memory representation of an experiment and of execution outcomes.

Everything here is immutable after construction; values can be shared freely
across concurrent executors.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Iterable, Iterator, Mapping, NamedTuple, Union


class UnknownTargetError(KeyError):
    """A target name does not resolve to any definition."""


class TargetKind(enum.Enum):
    LOCAL = "local"
    SSH = "ssh"
    PLANETLAB = "planetlab"
    GROUP = "group"


class ErrorMode(enum.Enum):
    """What happens to the surrounding execution when a task fails."""

    ABORT_TASKLIST = "abort-tasklist"
    ABORT_STEP = "abort-step"
    PANIC = "panic"


#: Applied when a tasklist declares no failure mode (least destructive mode).
DEFAULT_ERROR_MODE = ErrorMode.ABORT_TASKLIST

EnvPairs = tuple[tuple[str, str], ...]


class TargetDef(NamedTuple):
    """A named node, node group, or PlanetLab slice reference.

    For kind=GROUP, ``members`` holds the nested definitions (a member may in
    turn be a group). For kind=PLANETLAB, ``ssh_password`` doubles as the API
    credential. ``env_exports`` are exported into the shell environment of
    every command run on the target.

    A named tuple, immutable and cheap to build: a load builds one per
    target and per slice node. Derive a changed copy with ``_replace``.
    """

    name: str
    kind: TargetKind
    ssh_user: str | None = None
    ssh_password: str | None = None
    ssh_host: str | None = None
    planetlab_api_url: str | None = None
    planetlab_slice: str | None = None
    planetlab_user: str | None = None
    members: tuple[TargetDef, ...] = ()
    env_exports: EnvPairs = ()

    def is_leaf(self) -> bool:
        return self.kind is not TargetKind.GROUP


@dataclass(frozen=True)
class RunTask:
    command: str


@dataclass(frozen=True)
class GetTask:
    remote_path: str


@dataclass(frozen=True)
class PutTask:
    local_path: str


@dataclass(frozen=True)
class SeqTask:
    children: tuple[Task, ...] = ()


@dataclass(frozen=True)
class ParTask:
    children: tuple[Task, ...] = ()


@dataclass(frozen=True)
class CallTask:
    ref: str


Task = Union[RunTask, GetTask, PutTask, SeqTask, ParTask, CallTask]


@dataclass(frozen=True)
class Tasklist:
    """A named command sequence with failure policy.

    ``timeout`` is in seconds and bounds the whole tasklist; ``cleanup`` names
    another tasklist that runs after this one, even when this one aborts.
    """

    name: str
    tasks: tuple[Task, ...] = ()
    on_error: ErrorMode = DEFAULT_ERROR_MODE
    timeout: float | None = None
    cleanup: str | None = None


@dataclass(frozen=True)
class RelativeTime:
    """Offset in seconds from experiment start."""

    offset: float


@dataclass(frozen=True)
class AbsoluteTime:
    """A wall-clock instant (timezone-aware)."""

    instant: datetime


TimeSpec = Union[RelativeTime, AbsoluteTime]


@dataclass(frozen=True)
class Step:
    tasklist_ref: str
    targets_ref: str
    start: TimeSpec | None = None
    stop: TimeSpec | None = None


@dataclass(frozen=True)
class Synchronize:
    """Barrier: wait for every previously launched step of the block."""


@dataclass(frozen=True)
class RegisterTeardown:
    tasklist_ref: str
    targets_ref: str


@dataclass(frozen=True)
class Repeat:
    """Bounded loop over a nested steps block.

    At least one of ``iterations``, ``during`` (seconds), ``until`` must be
    set so termination is decidable. Bounds are checked between iterations.
    """

    body: tuple[StepsItem, ...] = ()
    iterations: int | None = None
    during: float | None = None
    until: datetime | None = None


StepsItem = Union[Step, Synchronize, RegisterTeardown, Repeat]


@dataclass(frozen=True)
class StepsProgram:
    items: tuple[StepsItem, ...] = ()


@dataclass(frozen=True)
class Experiment:
    """A fully resolved experiment: targets, tasklists, and the steps program.

    ``node_filter`` and ``env_overrides`` are runtime riders set by the CLI
    (--only / --set); they influence target resolution without rewriting any
    definition.
    """

    targets: tuple[TargetDef, ...] = ()
    tasklists: tuple[Tasklist, ...] = ()
    steps: StepsProgram = StepsProgram()
    source_documents: tuple[str, ...] = ()
    node_filter: frozenset[str] | None = None
    env_overrides: EnvPairs = ()

    def target_map(self) -> dict[str, TargetDef]:
        """All target definitions by name, including nested group members."""
        out: dict[str, TargetDef] = {}
        for top in self.targets:
            for t in iter_target_defs(top):
                out.setdefault(t.name, t)
        return out

    def tasklist_map(self) -> dict[str, Tasklist]:
        return {t.name: t for t in self.tasklists}

    def with_node_filter(self, names: frozenset[str] | None) -> Experiment:
        return replace(self, node_filter=names)

    def with_env_overrides(self, pairs: EnvPairs) -> Experiment:
        return replace(self, env_overrides=pairs)


class TaskOutcome(enum.Enum):
    SUCCESS = "Success"
    FAILED = "Failed"
    TIMED_OUT = "TimedOut"
    CONNECTION_LOST = "ConnectionLost"


class TaskResult(NamedTuple):
    """Outcome of one command on one node.

    A named tuple, immutable and cheap to build: one per command run.
    """

    exit_code: int
    stdout_ref: str = ""
    stderr_ref: str = ""
    outcome: TaskOutcome = TaskOutcome.SUCCESS


class NodeState(enum.Enum):
    """How one node's execution of a step or teardown ended."""

    SUCCEEDED = "Succeeded"
    FAILED = "Failed"
    ABORTED = "Aborted"  # cancelled after it started
    SKIPPED = "Skipped"  # cancelled before it started


#: Node states that make a run CompletedWithErrors.
ERROR_NODE_STATES = frozenset({NodeState.FAILED, NodeState.ABORTED})


class OverallStatus(enum.Enum):
    COMPLETED = "Completed"
    COMPLETED_WITH_ERRORS = "CompletedWithErrors"
    PANICKED = "Panicked"


@dataclass(frozen=True)
class ExperimentReport:
    """Final run summary: the event log plus per-node, per-tasklist outcomes.

    ``per_node_outcomes`` maps "node|tasklist#s<step>" for a step execution
    and "node|tasklist#t<ordinal>" for a teardown to a NodeState value.
    <step> is the step execution ordinal from the event log; <ordinal>
    counts teardown executions from 0 in the order they ran.
    """

    events: tuple = ()
    per_node_outcomes: Mapping[str, str] = field(default_factory=dict)
    overall: OverallStatus = OverallStatus.COMPLETED
    artifacts: tuple[str, ...] = ()


def iter_target_defs(target: TargetDef) -> Iterator[TargetDef]:
    """Preorder walk over a target definition and its nested members."""
    yield target
    for m in target.members:
        yield from iter_target_defs(m)


def _merge_env(outer: EnvPairs, inner: EnvPairs) -> EnvPairs:
    if not inner:
        return outer  # shared by every leaf below, not copied per leaf
    merged = dict(outer)
    merged.update(inner)  # inner wins; first-seen key order is kept
    return tuple(merged.items())


def resolve_group(
    target: TargetDef | str,
    all_targets: Mapping[str, TargetDef],
) -> list[tuple[TargetDef, EnvPairs]]:
    """Flatten a target to its leaf nodes with their effective environments.

    Returns every non-group target reachable from ``target``, deduplicated by
    name (first occurrence wins), each paired with the env_exports merged
    along the path from the outermost group to the leaf; inner definitions
    override outer ones on variable-name collision.

    Raises UnknownTargetError when a name does not resolve.
    """
    if isinstance(target, str):
        try:
            target = all_targets[target]
        except KeyError:
            raise UnknownTargetError(target) from None

    leaves: list[tuple[TargetDef, EnvPairs]] = []
    seen: set[str] = set()

    def walk(t: TargetDef, env: EnvPairs) -> None:
        env = _merge_env(env, t.env_exports)
        if t.is_leaf():
            if t.name not in seen:
                seen.add(t.name)
                leaves.append((t, env))
            return
        for member in t.members:
            walk(member, env)

    walk(target, ())
    return leaves


def call_graph(experiment: Experiment) -> dict[str, list[str]]:
    """Edges tasklist -> tasklists it references via call tasks."""

    def refs(tasks: tuple[Task, ...]) -> Iterator[str]:
        for t in tasks:
            if isinstance(t, CallTask):
                yield t.ref
            elif isinstance(t, (SeqTask, ParTask)):
                yield from refs(t.children)

    return {tl.name: list(refs(tl.tasks)) for tl in experiment.tasklists}


def depth_first(
    graph: Mapping[str, list[str]], roots: Iterable[str] | None = None
) -> tuple[list[str] | None, list[str]]:
    """Depth-first walk from ``roots`` (default: every node, in order),
    without recursion. Returns the first cycle met, as a closed path
    [a, ..., a], or None; and the names finished so far, each after every
    name it reaches, so callees come before callers when there is no cycle.
    Edges to names that are not keys of ``graph`` are ignored."""
    state: dict[str, int] = {}  # 1 = on the stack, 2 = finished
    finished: list[str] = []
    for root in graph if roots is None else roots:
        if root in state:
            continue
        state[root] = 1
        stack, edges = [root], [iter(graph[root])]
        while edges:
            for ref in edges[-1]:
                seen = state.get(ref)
                if seen == 1:
                    return stack[stack.index(ref):] + [ref], finished
                if seen is None and ref in graph:
                    state[ref] = 1
                    stack.append(ref)
                    edges.append(iter(graph[ref]))
                    break
            else:
                edges.pop()
                name = stack.pop()
                state[name] = 2
                finished.append(name)
    return None, finished


def find_cycle(
    graph: Mapping[str, list[str]], roots: Iterable[str] | None = None
) -> list[str] | None:
    """First cycle met by a depth-first walk from ``roots``; see depth_first."""
    return depth_first(graph, roots)[0]


def cleanup_cycles(experiment: Experiment) -> Iterator[tuple[str, str]]:
    """(owner, first tasklist met twice) for every tasklist whose chain of
    cleanup references runs into a cycle, in definition order."""
    graph = {tl.name: [tl.cleanup] if tl.cleanup else [] for tl in experiment.tasklists}
    for tl in experiment.tasklists:
        cycle = find_cycle(graph, [tl.name])
        if cycle is not None:
            yield tl.name, cycle[0]


def iter_steps_items(items: tuple[StepsItem, ...]) -> Iterator[StepsItem]:
    """All items of a steps block, descending into repeat bodies."""
    for item in items:
        yield item
        if isinstance(item, Repeat):
            yield from iter_steps_items(item.body)


def static_step_execution_bound(program: StepsProgram) -> int | None:
    """Upper bound on step executions, or None when a repeat is bounded only
    by during/until (finite, but with no static count)."""

    def bound(items: tuple[StepsItem, ...]) -> int | None:
        total = 0
        for item in items:
            if isinstance(item, Step):
                total += 1
            elif isinstance(item, Repeat):
                inner = bound(item.body)
                if inner is None or item.iterations is None:
                    return None
                total += inner * item.iterations
        return total

    return bound(program.items)


def audit(experiment: Experiment) -> list[str]:
    """Check every model invariant on an Experiment value.

    Returns a list of human-readable violations; empty means the value is
    well-formed. The parser must never emit an Experiment for which this
    returns a non-empty list.
    """
    problems: list[str] = []
    targets = experiment.target_map()
    tasklists = experiment.tasklist_map()

    # A group may embed a previously defined target by reference, so the same
    # value can appear twice; only conflicting definitions are duplicates.
    by_target_name: dict[str, TargetDef] = {}
    for top in experiment.targets:
        for t in iter_target_defs(top):
            if by_target_name.setdefault(t.name, t) != t:
                problems.append(f"duplicate target name {t.name!r}")
    by_tl_name: dict[str, Tasklist] = {}
    for tl in experiment.tasklists:
        if by_tl_name.setdefault(tl.name, tl) != tl:
            problems.append(f"duplicate tasklist name {tl.name!r}")

    for top in experiment.targets:
        for t in iter_target_defs(top):
            problems.extend(_audit_target(t))

    for tl in experiment.tasklists:
        if tl.timeout is not None and tl.timeout <= 0:
            problems.append(f"tasklist {tl.name!r} has non-positive timeout")
        if tl.cleanup is not None and tl.cleanup not in tasklists:
            problems.append(f"tasklist {tl.name!r} cleanup {tl.cleanup!r} is undefined")
    problems.extend(
        f"cleanup chain of {owner!r} is cyclic at {at!r}"
        for owner, at in cleanup_cycles(experiment)
    )
    cycle = find_cycle(call_graph(experiment))
    if cycle is not None:
        problems.append(f"call graph contains a cycle through {cycle[0]!r}")

    for item in iter_steps_items(experiment.steps.items):
        if isinstance(item, (Step, RegisterTeardown)):
            if item.tasklist_ref not in tasklists:
                problems.append(f"unknown tasklist reference {item.tasklist_ref!r}")
            if item.targets_ref not in targets:
                problems.append(f"unknown target reference {item.targets_ref!r}")
        if isinstance(item, Step):
            if (
                isinstance(item.start, RelativeTime)
                and isinstance(item.stop, RelativeTime)
                and not item.start.offset < item.stop.offset
            ):
                problems.append("step start must precede stop")
            for ts in (item.start, item.stop):
                if isinstance(ts, RelativeTime) and ts.offset < 0:
                    problems.append("relative time offsets must be non-negative")
        if isinstance(item, Repeat):
            if item.iterations is None and item.during is None and item.until is None:
                problems.append("repeat carries no termination bound")
            if item.iterations is not None and item.iterations <= 0:
                problems.append("repeat iterations must be positive")
    for tl in experiment.tasklists:
        problems.extend(_audit_call_refs(tl, tasklists))
    return problems


def _audit_target(t: TargetDef) -> list[str]:
    problems = []
    conn = {
        "ssh_user": t.ssh_user,
        "ssh_password": t.ssh_password,
        "ssh_host": t.ssh_host,
        "planetlab_api_url": t.planetlab_api_url,
        "planetlab_slice": t.planetlab_slice,
        "planetlab_user": t.planetlab_user,
    }
    if t.kind is TargetKind.LOCAL:
        if any(v is not None for v in conn.values()) or t.members:
            problems.append(f"local target {t.name!r} must not carry connection fields")
    elif t.kind is TargetKind.SSH:
        if not (t.ssh_host and t.ssh_user):
            problems.append(f"ssh target {t.name!r} requires host and user")
    elif t.kind is TargetKind.PLANETLAB:
        if not (t.planetlab_api_url and t.planetlab_slice and t.planetlab_user):
            problems.append(f"planetlab target {t.name!r} requires api-url, slice, user")
    elif t.kind is TargetKind.GROUP:
        # empty groups are legal: slice expansion can yield zero live nodes
        if any(v is not None for v in conn.values()):
            problems.append(f"group {t.name!r} must not carry connection fields")
    return problems


def _audit_call_refs(tl: Tasklist, tasklists: Mapping[str, Tasklist]) -> list[str]:
    problems = []

    def walk(tasks: tuple[Task, ...]) -> None:
        for t in tasks:
            if isinstance(t, CallTask) and t.ref not in tasklists:
                problems.append(f"tasklist {tl.name!r} calls undefined {t.ref!r}")
            elif isinstance(t, (SeqTask, ParTask)):
                walk(t.children)

    walk(tl.tasks)
    return problems
