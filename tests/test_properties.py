"""Engine invariants checked over generated experiments.

Hypothesis builds small experiments (local targets, tasklists of run tasks
with random error modes, steps with optional barriers, teardown
registrations) plus a mock script with per-node exit codes and durations,
and every dry run must keep the invariants below.
"""
from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from gplmt.model import (
    ErrorMode,
    Experiment,
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
from gplmt.telemetry import EventLog
from gplmt.transport import MockScript

from .oracles import report_from_log_lines


@st.composite
def experiments(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 4)))]
    leaves = tuple(TargetDef(name, TargetKind.LOCAL) for name in nodes)
    targets = leaves + (TargetDef("all", TargetKind.GROUP, members=leaves),)
    target_names = st.sampled_from(nodes + ["all"])

    tasklists = []
    commands = []
    for t in range(draw(st.integers(1, 3))):
        tasks = tuple(RunTask(f"c{t}_{j}") for j in range(draw(st.integers(1, 3))))
        commands += [task.command for task in tasks]
        tasklists.append(Tasklist(f"tl{t}", tasks, on_error=draw(st.sampled_from(list(ErrorMode)))))
    tasklist_names = st.sampled_from([tl.name for tl in tasklists])

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
    return experiment, MockScript.from_json(json.dumps({"nodes": script}))


def _run(experiment, script):
    log = EventLog()
    report = dry_run(experiment, script, event_log=log)
    return report, [e.to_json_line() for e in log.events]


@settings(max_examples=50, deadline=None)
@given(experiments())
def test_generated_experiments_keep_the_engine_invariants(case):
    experiment, script = case
    report, lines = _run(experiment, script)  # finishes on the virtual loop
    assert _run(experiment, script)[1] == lines
    events = report.events
    kinds = [e.kind.value for e in events]

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
