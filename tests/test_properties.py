"""Engine invariants checked over generated experiments.

Hypothesis builds small experiments (local targets, tasklists of run tasks
with random error modes and optional cleanups, steps with optional
barriers, teardown registrations) plus a mock script with per-node exit
codes and durations, and a fault to inject: the k-th artifact write of the
run fails with ENOSPC, or none does. Every dry run, into a run directory of
its own, must keep the invariants below.
"""
from __future__ import annotations

import collections
import errno
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from gplmt.model import (
    ErrorMode,
    Experiment,
    NodeState,
    OverallStatus,
    RegisterTeardown,
    RunTask,
    Step,
    StepsProgram,
    Synchronize,
    TargetDef,
    TargetKind,
    Tasklist,
)
from gplmt.scheduler import dry_run
from gplmt.transport import MockScript

from .oracles import report_from_log_lines

CLEANUP = "cl"


@st.composite
def experiments(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 4)))]
    leaves = tuple(TargetDef(name, TargetKind.LOCAL) for name in nodes)
    targets = leaves + (TargetDef("all", TargetKind.GROUP, members=leaves),)
    target_names = st.sampled_from(nodes + ["all"])

    cleanup_tasks = tuple(RunTask(f"{CLEANUP}_{j}") for j in range(draw(st.integers(1, 2))))
    tasklists = [Tasklist(CLEANUP, cleanup_tasks)]
    commands = [task.command for task in cleanup_tasks]
    for t in range(draw(st.integers(1, 3))):
        tasks = tuple(RunTask(f"c{t}_{j}") for j in range(draw(st.integers(1, 3))))
        commands += [task.command for task in tasks]
        tasklists.append(Tasklist(
            f"tl{t}", tasks,
            on_error=draw(st.sampled_from(list(ErrorMode))),
            cleanup=draw(st.sampled_from([None, CLEANUP])),
        ))
    tasklist_names = st.sampled_from([tl.name for tl in tasklists[1:]])

    items = []
    for _ in range(draw(st.integers(1, 4))):
        items.append(Step(draw(tasklist_names), draw(target_names)))
        if draw(st.booleans()):
            items.append(Synchronize())
    for _ in range(draw(st.integers(0, 2))):
        registration = RegisterTeardown(draw(tasklist_names), draw(target_names))
        items.insert(draw(st.integers(0, len(items))), registration)

    script = {
        name: {"rules": [
            {"pattern": command, "exit": draw(st.sampled_from([0, 0, 1])),
             "duration": draw(st.sampled_from([0, 1, 2]))}
            for command in commands
        ]}
        for name in nodes
    }
    experiment = Experiment(
        targets=targets, tasklists=tuple(tasklists), steps=StepsProgram(tuple(items))
    )
    fault = draw(st.one_of(st.none(), st.integers(0, 24)))
    return experiment, MockScript.from_json(json.dumps({"nodes": script})), fault


def _run(experiment, script, fault):
    """Dry-run into a fresh run directory whose `fault`-th artifact write
    raises ENOSPC. Returns the report, the events.jsonl lines, whether the
    fault struck, and what was written outside the run directory."""
    real_write_bytes = Path.write_bytes
    written: list[Path] = []

    def write_bytes(path, data):
        written.append(path)
        if len(written) - 1 == fault:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write_bytes(path, data)

    with tempfile.TemporaryDirectory() as root:
        run_dir = Path(root) / "run"
        with mock.patch.object(Path, "write_bytes", write_bytes):
            report = dry_run(experiment, script, run_dir=run_dir)
        lines = (run_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
        outside = [p for p in written if not p.resolve().is_relative_to(run_dir.resolve())]
        struck = fault is not None and fault < len(written)
        return report, lines, struck, outside + sorted(set(os.listdir(root)) - {"run"})


@settings(max_examples=50, deadline=None)
@given(experiments())
def test_generated_experiments_keep_the_engine_invariants(case):
    experiment, script, fault = case
    report, lines, struck, outside = _run(experiment, script, fault)  # on the virtual loop
    assert _run(experiment, script, fault)[1] == lines
    assert outside == []  # no file lands outside the run directory
    events = report.events
    kinds = [e.kind.value for e in events]

    # every TaskStart is closed by its TaskEnd unless the node was aborted:
    # its step ended with the node Aborted, or a panic cancelled the step
    step_outcomes = {e.step_index: dict(e.outcomes) for e in events if e.kind.value == "StepEnd"}
    open_tasks: collections.Counter = collections.Counter()
    for event in events:
        key = (event.node, event.step_index, event.tasklist, event.task_path)
        if event.kind.value == "TaskStart":
            open_tasks[key] += 1
        elif event.kind.value == "TaskEnd":
            assert open_tasks[key] > 0, event
            open_tasks[key] -= 1
    for (node, step, _, _), count in open_tasks.items():
        if count:
            assert step is not None
            if step in step_outcomes:
                assert step_outcomes[step][node] is NodeState.ABORTED
            else:
                assert "Panic" in kinds

    # an injected fault fails the one task whose write it struck, and the
    # run does not end Completed, also when it struck a cleanup
    faulted = [e for e in events if e.kind.value == "TaskEnd" and "controller:" in e.detail]
    assert len(faulted) == struck
    for event in faulted:
        assert event.detail == "Failed controller: OSError: [Errno 28] No space left on device"
        assert report.overall is not OverallStatus.COMPLETED

    # each registration that was reached runs exactly once, newest first
    registered = [i.tasklist_ref for i in experiment.steps.items if isinstance(i, RegisterTeardown)]
    teardowns = [e for e in events if e.kind.value in ("TeardownStart", "TeardownEnd")]
    assert [e.kind.value for e in teardowns] == ["TeardownStart", "TeardownEnd"] * (len(teardowns) // 2)
    ran = [e.tasklist for e in teardowns[::2]]
    assert ran[::-1] == registered[:len(ran)]
    if "Panic" not in kinds:
        assert len(ran) == len(registered)

    # every finished step or teardown reports exactly its nodes= count of keys
    starts = {e.step_index: e for e in events if e.kind.value == "StepStart"}
    teardown_starts = iter(teardowns[::2])
    teardown_ordinal = 0
    for event in events:
        if event.kind.value == "StepEnd":
            start, suffix = starts[event.step_index], f"#s{event.step_index}"
        elif event.kind.value == "TeardownEnd":
            start, suffix = next(teardown_starts), f"#t{teardown_ordinal}"
            teardown_ordinal += 1
        else:
            continue
        expected = int(start.detail.rpartition("nodes=")[2])
        keys = [k for k in report.per_node_outcomes if k.endswith(f"|{event.tasklist}{suffix}")]
        assert len(keys) == expected, (event, keys)

    assert (report.overall is OverallStatus.PANICKED) == ("Panic" in kinds)

    # the report, read from typed fields, equals a fold of the logged prose
    assert (dict(report.per_node_outcomes), report.overall.value) == report_from_log_lines(lines)
