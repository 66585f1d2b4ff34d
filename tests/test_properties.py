"""Engine invariants checked over generated experiments.

The one generator is tests/differential.py's `random_experiment`, over the
whole language: start and stop times, rate limits, connection losses and
reconnect failures, timeouts, cleanups, calls, seq and par, gets, repeats,
barriers and teardowns. Hypothesis draws a seed for it, an order of the
odd node names below (the experiment takes the first one to five), and
two faults to inject: the k-th artifact write of the run fails with
ENOSPC, or none does, and the j-th events.jsonl record fails with ENOSPC,
or none does. Every dry run, under the experiment's own rate limit and
into a run directory of its own, must keep the invariants below, and
with the cyclic collector off it must free its runner as it returns.
"""
from __future__ import annotations

import collections
import errno
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from gplmt.model import NodeState, OverallStatus, RegisterTeardown, resolve_group
from gplmt.scheduler import dry_run
from gplmt.telemetry import SinkIoError

from .conftest import full_disk_log, without_collector
from .differential import random_experiment
from .oracles import report_from_log_lines

# Odd names among plain ones: the prose "a=Failed b=Succeeded" reads the
# same for nodes "a" and "b" as for node "a=Failed b" alone.
NODE_NAMES = ("n0", "n1", "n 2", "x=y", "a", "b", "a=Failed b")


def _run(experiment, script, limit, fault, sink_fault=None):
    """Dry-run under the rate limit `limit` into a fresh run directory
    whose `fault`-th artifact write and `sink_fault`-th events.jsonl write
    raise ENOSPC. Returns the report, the lines events.jsonl would hold
    without the sink fault, whether the artifact fault struck, and what was
    written outside the run directory. Checks that the run freed its
    runner without the collector, that the sink fault left exactly its
    line out of the file, and that only it makes closing the log fail."""
    real_write_bytes = Path.write_bytes
    written: list[Path] = []

    def write_bytes(path, data):
        written.append(path)
        if len(written) - 1 == fault:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write_bytes(path, data)

    with tempfile.TemporaryDirectory() as root:
        run_dir = Path(root) / "run"
        run_dir.mkdir()
        log = full_disk_log(run_dir / "events.jsonl", lambda k: k == sink_fault)
        try:
            with mock.patch.object(Path, "write_bytes", write_bytes), without_collector() as runners:
                report = dry_run(
                    experiment, script, limiter_config=limit, event_log=log, run_dir=run_dir
                )
                assert [runner() for runner in runners] == [None]
        finally:
            try:
                log.close()
                sink_failed = False
            except SinkIoError:
                sink_failed = True
        lines = [event.to_json_line() for event in report.events]
        assert sink_failed == (sink_fault is not None and sink_fault < len(lines))
        kept = [line for k, line in enumerate(lines) if k != sink_fault]
        assert (run_dir / "events.jsonl").read_text(encoding="utf-8").splitlines() == kept
        outside = [p for p in written if not p.resolve().is_relative_to(run_dir.resolve())]
        struck = fault is not None and fault < len(written)
        return report, lines, struck, outside + sorted(set(os.listdir(root)) - {"run"})


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.permutations(NODE_NAMES),
    st.one_of(st.none(), st.integers(0, 24)),
    st.one_of(st.none(), st.integers(0, 40)),
)
def test_generated_experiments_keep_the_engine_invariants(seed, names, fault, sink_fault):
    experiment, script, limit = random_experiment(random.Random(seed), names)
    report, lines, struck, outside = _run(experiment, script, limit, fault, sink_fault)
    # two runs give identical logs, and a failed record changes no event
    assert _run(experiment, script, limit, fault)[1] == lines
    assert outside == []  # no file lands outside the run directory
    events = report.events
    kinds = [e.kind.value for e in events]
    assert not any("SinkIoError" in e.detail for e in events)

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

    # the limiter's bound, with its own comparison: at most max_attempts
    # connect attempts fall in the window (t - interval, t] ending at each
    if limit is not None:
        attempts = [e.timestamp for e in events if e.kind.value == "ConnectAttempt"]
        for t in attempts:
            window = [s for s in attempts if t - limit.interval < s <= t]
            assert len(window) <= limit.max_attempts, (t, window, limit)

    # the report, read from typed fields, equals a fold of the logged prose
    targets = experiment.target_map()
    members = {name: [leaf.name for leaf, _ in resolve_group(targets[name])] for name in targets}
    assert (dict(report.per_node_outcomes), report.overall.value) == report_from_log_lines(lines, members)
