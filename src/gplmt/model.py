"""In-memory representation of an experiment and of execution outcomes.

Everything here is immutable after construction; values can be shared freely
across concurrent executors.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Mapping, NamedTuple, Union


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
        """All target definitions by name, including nested group members,
        in preorder; the first definition of a name wins."""
        out: dict[str, TargetDef] = {}
        stack = list(reversed(self.targets))
        while stack:
            t = stack.pop()
            out.setdefault(t.name, t)
            stack += reversed(t.members)
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

    # Not in repr(): asyncio.Runner's SIGINT handler, which holds the task that
    # returns the report, is formatted with repr() twice per run (CPython 3.11).
    events: tuple = field(default=(), repr=False)
    per_node_outcomes: Mapping[str, str] = field(default_factory=dict)
    overall: OverallStatus = OverallStatus.COMPLETED
    artifacts: tuple[str, ...] = ()


def _merge_env(outer: EnvPairs, inner: EnvPairs) -> EnvPairs:
    if not inner:
        return outer  # shared by every leaf below, not copied per leaf
    merged = dict(outer)
    merged.update(inner)  # inner wins; first-seen key order is kept
    return tuple(merged.items())


def resolve_group(target: TargetDef) -> list[tuple[TargetDef, EnvPairs]]:
    """Flatten a target to its leaf nodes with their effective environments.

    Returns every non-group target reachable from ``target``, deduplicated by
    name (first occurrence wins), each paired with the env_exports merged
    along the path from the outermost group to the leaf; inner definitions
    override outer ones on variable-name collision.
    """
    leaves: dict[str, tuple[TargetDef, EnvPairs]] = {}
    stack = [(target, ())]
    while stack:
        t, env = stack.pop()
        env = _merge_env(env, t.env_exports)
        if t.kind is TargetKind.GROUP:
            stack += [(m, env) for m in reversed(t.members)]
        elif t.name not in leaves:
            leaves[t.name] = (t, env)
    return list(leaves.values())


def depth_first(graph: Mapping[str, list[str]]) -> tuple[list[str] | None, list[str]]:
    """Depth-first walk from every node, in order, without recursion.
    Returns the first cycle met, as a closed path [a, ..., a], or None; and
    the names finished so far, each after every name it reaches, so callees
    come before callers when there is no cycle. Edges to names that are not
    keys of ``graph`` are ignored."""
    state: dict[str, int] = {}  # 1 = on the stack, 2 = finished
    finished: list[str] = []
    for root in graph:
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
