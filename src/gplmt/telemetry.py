"""Append-only event log, artifact layout, and final report rendering.

A run directory holds one events.jsonl (one JSON object per line, flushed
per event), per-node artifact directories, and the rendered report files.
Event timestamps are seconds since experiment start, so dry runs of the
same experiment produce byte-identical logs.
"""
from __future__ import annotations

import enum
import json
import threading
from datetime import datetime, timezone
from pathlib import Path, PurePosixPath
from typing import NamedTuple

from .model import ERROR_NODE_STATES, ExperimentReport, NodeState, OverallStatus


class SinkIoError(Exception):
    """The event sink could not be written; fatal for the controller."""


class RunDirError(Exception):
    """The run directory could not be created (collision or I/O failure)."""


class ArtifactPathError(Exception):
    """A remote-supplied name would escape the run directory."""


class EventKind(str, enum.Enum):
    """Event kinds; a str mix-in, so each member equals its log name."""

    EXPERIMENT_START = "ExperimentStart"
    STEP_START = "StepStart"
    STEP_END = "StepEnd"
    TASK_START = "TaskStart"
    TASK_END = "TaskEnd"
    BARRIER_RELEASE = "BarrierRelease"
    TEARDOWN_START = "TeardownStart"
    TEARDOWN_END = "TeardownEnd"
    CONNECT_ATTEMPT = "ConnectAttempt"
    CONNECT_SUCCESS = "ConnectSuccess"
    CONNECT_LOST = "ConnectLost"
    WARNING = "Warning"
    PANIC = "Panic"
    EXPERIMENT_END = "ExperimentEnd"


class ExecutionEvent(NamedTuple):
    """One log record; optional fields stay None where they do not apply.

    A named tuple, immutable and cheap to build: a run records one per
    connection attempt and per task start and end.

    ``outcomes`` (the (node, NodeState) pairs of a StepEnd or TeardownEnd)
    and ``artifacts`` (the run-directory refs a TaskEnd wrote) are what the
    report reads. They live in memory only: the JSON line spells them out
    in ``detail`` for people and is never parsed back into them.
    """

    timestamp: float
    kind: EventKind
    node: str | None = None
    step_index: int | None = None
    tasklist: str | None = None
    task_path: tuple[int, ...] | None = None
    detail: str = ""
    outcomes: tuple[tuple[str, NodeState], ...] = ()
    artifacts: tuple[str, ...] = ()

    def to_json_line(self) -> str:
        record: dict[str, object] = {"ts": self.timestamp, "kind": self.kind.value}
        if self.node is not None:
            record["node"] = self.node
        if self.step_index is not None:
            record["step"] = self.step_index
        if self.tasklist is not None:
            record["tasklist"] = self.tasklist
        if self.task_path is not None:
            record["path"] = list(self.task_path)
        record["detail"] = self.detail
        return json.dumps(record, separators=(",", ":"))


def event_from_json_line(line: str) -> ExecutionEvent:
    """Read one events.jsonl line back. The line holds no typed outcomes or
    artifacts, so the event carries neither; a report rendered from loaded
    events lists no node outcomes and no artifacts."""
    record = json.loads(line)
    return ExecutionEvent(
        timestamp=record["ts"],
        kind=EventKind(record["kind"]),
        node=record.get("node"),
        step_index=record.get("step"),
        tasklist=record.get("tasklist"),
        task_path=tuple(record["path"]) if "path" in record else None,
        detail=record.get("detail", ""),
    )


def load_events(path: str | Path) -> list[ExecutionEvent]:
    with open(path, encoding="utf-8") as handle:
        return [event_from_json_line(line) for line in handle if line.strip()]


class EventLog:
    """In-memory event list, optionally mirrored to an events.jsonl file.

    record() is safe under concurrent callers; each event is written as one
    whole line and flushed before the call returns.
    """

    def __init__(self, path: str | Path | None = None):
        self._events: list[ExecutionEvent] = []
        self._lock = threading.Lock()
        self._handle = None
        if path is not None:
            try:
                self._handle = open(path, "w", encoding="utf-8")
            except OSError as exc:
                raise SinkIoError(str(exc)) from exc

    def record(self, event: ExecutionEvent) -> None:
        with self._lock:
            self._events.append(event)
            if self._handle is not None:
                try:
                    self._handle.write(event.to_json_line() + "\n")
                    self._handle.flush()
                except OSError as exc:
                    raise SinkIoError(str(exc)) from exc

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                handle, self._handle = self._handle, None
                try:
                    handle.close()  # flushes again what a failed write left buffered
                except OSError as exc:
                    raise SinkIoError(str(exc)) from exc

    @property
    def events(self) -> tuple[ExecutionEvent, ...]:
        with self._lock:
            return tuple(self._events)


def create_run_dir(base: str | Path, experiment_name: str, wall_time: float) -> Path:
    """Make `<base>/<utc-microsecond-stamp>-<experiment-name>`.

    Refuses to reuse an existing directory: a collision means two runs would
    interleave their artifacts.
    """
    stamp = datetime.fromtimestamp(wall_time, tz=timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    run_dir = Path(base) / f"{stamp}-{_safe_component(experiment_name)}"
    try:
        run_dir.mkdir(parents=True, exist_ok=False)
    except FileExistsError:
        raise RunDirError(f"run directory already exists: {run_dir}") from None
    except OSError as exc:
        raise RunDirError(str(exc)) from exc
    return run_dir


def _safe_component(name: str) -> str:
    if not name or name in (".", "..") or "/" in name or "\\" in name or "\0" in name:
        raise ArtifactPathError(f"unsafe path component: {name!r}")
    return name


def artifact_path(run_dir: str | Path, node: str, filename: str) -> Path:
    """Resolve `<run_dir>/<node>/<filename>`, rejecting traversal attempts.

    ``filename`` is reduced to its basename first: remote-supplied names must
    never navigate the controller's filesystem.
    """
    run_dir = Path(run_dir)
    basename = PurePosixPath(filename).name
    path = run_dir / _safe_component(node) / _safe_component(basename)
    if not path.resolve().is_relative_to(run_dir.resolve()):
        raise ArtifactPathError(f"path escapes the run directory: {filename!r}")
    return path


def node_artifact_dir(run_dir: str | Path, node: str) -> Path:
    directory = Path(run_dir) / _safe_component(node)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def render_report(
    events: tuple[ExecutionEvent, ...] | list[ExecutionEvent],
) -> tuple[ExperimentReport, str]:
    """Classify a closed event log and render the human summary, in one
    pass over the events.

    Outcomes and artifacts come from the events' typed fields; a detail is
    only copied into the summary, never read.

    Overall status: Panicked when a Panic event exists; otherwise
    CompletedWithErrors when any step or teardown reported a node in one of
    the ERROR_NODE_STATES; otherwise Completed.
    """
    events = tuple(events)
    panicked = failed = False
    outcomes: dict[str, str] = {}
    artifacts: dict[str, None] = {}  # insertion-ordered and free of repeats
    step_lines: list[str] = []
    teardown_lines: list[str] = []
    warning_lines: list[str] = []

    for event in events:
        kind = event.kind
        if kind is EventKind.TASK_END:
            for ref in event.artifacts:
                artifacts[ref] = None
            continue
        if kind is EventKind.STEP_END:
            suffix = f"s{event.step_index}"
            step_lines.append(f"  step {event.step_index} {event.tasklist}: {event.detail}")
        elif kind is EventKind.TEARDOWN_END:
            suffix = f"t{len(teardown_lines)}"
            teardown_lines.append(f"  {event.tasklist}: {event.detail}")
        else:
            if kind is EventKind.WARNING:
                warning_lines.append(f"  t={event.timestamp:g} {event.detail}")
            elif kind is EventKind.PANIC:
                panicked = True
            continue
        for node, state in event.outcomes:
            outcomes[f"{node}|{event.tasklist}#{suffix}"] = state.value
            failed = failed or state in ERROR_NODE_STATES

    if panicked:
        overall = OverallStatus.PANICKED
    elif failed:
        overall = OverallStatus.COMPLETED_WITH_ERRORS
    else:
        overall = OverallStatus.COMPLETED

    report = ExperimentReport(
        events=events,
        per_node_outcomes=outcomes,
        overall=overall,
        artifacts=tuple(artifacts),
    )

    lines = [f"overall: {overall.value}"]
    for title, section in (
        ("steps:", step_lines),
        ("teardowns:", teardown_lines),
        ("artifacts:", [f"  {a}" for a in report.artifacts]),
        ("warnings:", warning_lines),
    ):
        if section:
            lines.append(title)
            lines.extend(section)
    return report, "\n".join(lines) + "\n"


def write_report(run_dir: str | Path, report: ExperimentReport, summary: str) -> None:
    """Write report.json and report.txt into the run directory."""
    run_dir = Path(run_dir)
    payload = {
        "overall": report.overall.value,
        "per_node_outcomes": dict(report.per_node_outcomes),
        "artifacts": list(report.artifacts),
        "events": len(report.events),
    }
    try:
        with open(run_dir / "report.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        with open(run_dir / "report.txt", "w", encoding="utf-8") as handle:
            handle.write(summary)
    except OSError as exc:
        raise SinkIoError(str(exc)) from exc
