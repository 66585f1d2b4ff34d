from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from gplmt.model import NodeState, OverallStatus
from gplmt.telemetry import (
    ArtifactPathError,
    EventKind,
    EventLog,
    ExecutionEvent,
    RunDirError,
    SinkIoError,
    artifact_path,
    create_run_dir,
    event_from_json_line,
    load_events,
    node_artifact_dir,
    render_report,
    write_report,
)


def ev(kind, ts=0.0, **kwargs):
    return ExecutionEvent(timestamp=ts, kind=kind, **kwargs)


# --- event serialization ---


def test_json_line_is_compact_and_omits_absent_fields():
    line = ev(EventKind.EXPERIMENT_START, detail="targets=2").to_json_line()
    assert line == '{"ts":0.0,"kind":"ExperimentStart","detail":"targets=2"}'


def test_json_line_includes_all_present_fields():
    event = ExecutionEvent(
        timestamp=1.5,
        kind=EventKind.TASK_END,
        node="alpha",
        step_index=2,
        tasklist="doPing",
        task_path=(0, 1),
        detail="Success exit=0",
    )
    line = event.to_json_line()
    record = json.loads(line)
    assert record == {
        "ts": 1.5,
        "kind": "TaskEnd",
        "node": "alpha",
        "step": 2,
        "tasklist": "doPing",
        "path": [0, 1],
        "detail": "Success exit=0",
    }
    # the typed fields stay in memory: the line is the same with them
    typed = event._replace(
        outcomes=(("alpha", NodeState.FAILED),), artifacts=("alpha/stdout-2-0-1.log",)
    )
    assert typed.to_json_line() == line


def test_round_trip_minimal_event():
    event = ev(EventKind.BARRIER_RELEASE, ts=3.0, detail="waited=2")
    assert event_from_json_line(event.to_json_line()) == event


def test_from_json_line_tolerates_missing_detail():
    event = event_from_json_line('{"ts":0.25,"kind":"Warning"}')
    assert event.detail == ""
    assert event.kind is EventKind.WARNING


@given(
    ts=st.floats(allow_nan=False, allow_infinity=False),
    kind=st.sampled_from(list(EventKind)),
    node=st.none() | st.text(min_size=1, max_size=12),
    step=st.none() | st.integers(min_value=0, max_value=999),
    tasklist=st.none() | st.text(min_size=1, max_size=12),
    path=st.none() | st.tuples(st.integers(0, 9), st.integers(0, 9)),
    detail=st.text(max_size=40),
)
def test_round_trip_preserves_every_field(ts, kind, node, step, tasklist, path, detail):
    event = ExecutionEvent(ts, kind, node, step, tasklist, path, detail)
    assert event_from_json_line(event.to_json_line()) == event


def test_events_are_immutable():
    event = ev(EventKind.WARNING, detail="slow")
    with pytest.raises(AttributeError):
        event.detail = "fast"
    with pytest.raises(AttributeError):
        event.timestamp = 1.0


def test_event_fields_and_defaults():
    assert ExecutionEvent._fields == (
        "timestamp", "kind", "node", "step_index", "tasklist", "task_path", "detail",
        "outcomes", "artifacts",
    )
    assert ExecutionEvent._field_defaults == {
        "node": None, "step_index": None, "tasklist": None, "task_path": None, "detail": "",
        "outcomes": (), "artifacts": (),
    }
    assert ExecutionEvent(0.0, EventKind.WARNING).detail == ""
    assert ExecutionEvent(0.0, EventKind.WARNING).node is None


def test_json_lines_contain_no_embedded_newlines():
    event = ev(EventKind.WARNING, detail="line one\nline two")
    line = event.to_json_line()
    assert "\n" not in line
    assert event_from_json_line(line).detail == "line one\nline two"


# --- event log ---


def test_memory_only_log_keeps_order():
    log = EventLog()
    first = ev(EventKind.EXPERIMENT_START)
    second = ev(EventKind.EXPERIMENT_END, ts=1.0, detail="Completed")
    log.record(first)
    log.record(second)
    assert log.events == (first, second)
    log.close()


def test_events_property_returns_immutable_snapshot():
    log = EventLog()
    log.record(ev(EventKind.EXPERIMENT_START))
    snapshot = log.events
    log.record(ev(EventKind.EXPERIMENT_END, ts=2.0))
    assert isinstance(snapshot, tuple)
    assert len(snapshot) == 1
    assert len(log.events) == 2


def test_file_backed_log_flushes_each_record(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.record(ev(EventKind.EXPERIMENT_START, detail="targets=1"))
    # flushed before record() returns, so readable while the log stays open
    assert len(path.read_text().splitlines()) == 1
    log.record(ev(EventKind.EXPERIMENT_END, ts=4.0, detail="Completed"))
    log.close()
    assert load_events(path) == list(log.events)


def test_load_events_skips_blank_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    line = ev(EventKind.WARNING, detail="odd").to_json_line()
    path.write_text(line + "\n\n" + line + "\n")
    assert len(load_events(path)) == 2


def test_unwritable_sink_raises(tmp_path):
    with pytest.raises(SinkIoError):
        EventLog(tmp_path / "missing" / "events.jsonl")


# --- run directory layout ---


def test_create_run_dir_uses_utc_microsecond_stamp(tmp_path):
    run = create_run_dir(tmp_path, "demo", 0.0)
    assert run.name == "19700101T000000.000000Z-demo"
    assert run.is_dir()


def test_create_run_dir_stamp_reflects_wall_time(tmp_path):
    run = create_run_dir(tmp_path, "x", 1700000000.123456)
    assert run.name == "20231114T221320.123456Z-x"


def test_create_run_dir_refuses_collision(tmp_path):
    create_run_dir(tmp_path, "demo", 0.0)
    with pytest.raises(RunDirError):
        create_run_dir(tmp_path, "demo", 0.0)


def test_create_run_dir_rejects_unsafe_name(tmp_path):
    with pytest.raises(ArtifactPathError):
        create_run_dir(tmp_path, "a/b", 0.0)


def test_artifact_path_joins_node_and_basename(tmp_path):
    path = artifact_path(tmp_path, "alpha", "out.pcap")
    assert path == tmp_path / "alpha" / "out.pcap"


def test_artifact_path_strips_remote_directories(tmp_path):
    # remote-supplied names must never navigate the controller's tree
    path = artifact_path(tmp_path, "alpha", "/var/log/trace.log")
    assert path == tmp_path / "alpha" / "trace.log"
    assert artifact_path(tmp_path, "alpha", "a/../b.txt").name == "b.txt"


@pytest.mark.parametrize("bad", ["", ".", "..", "a/..", "x\0y"])
def test_artifact_path_rejects_traversal(tmp_path, bad):
    with pytest.raises(ArtifactPathError):
        artifact_path(tmp_path, "alpha", bad)


@pytest.mark.parametrize("bad", ["", "..", "a/b", "a\\b"])
def test_artifact_path_rejects_bad_node_names(tmp_path, bad):
    with pytest.raises(ArtifactPathError):
        artifact_path(tmp_path, bad, "out.log")


def test_node_artifact_dir_creates_directory(tmp_path):
    directory = node_artifact_dir(tmp_path, "beta")
    assert directory == tmp_path / "beta"
    assert directory.is_dir()
    # idempotent
    assert node_artifact_dir(tmp_path, "beta") == directory


# --- report rendering ---


SUCCEEDED, FAILED = NodeState.SUCCEEDED, NodeState.FAILED


def _clean_run():
    return [
        ev(EventKind.EXPERIMENT_START, detail="targets=2"),
        ev(EventKind.STEP_END, ts=2.0, step_index=0, tasklist="doPing",
           detail="alpha=Success beta=Success",
           outcomes=(("alpha", SUCCEEDED), ("beta", SUCCEEDED))),
        ev(EventKind.TEARDOWN_END, ts=3.0, tasklist="stopMon",
           detail="alpha=Success", outcomes=(("alpha", SUCCEEDED),)),
        ev(EventKind.EXPERIMENT_END, ts=3.0, detail="Completed"),
    ]


def test_render_report_completed():
    report, summary = render_report(_clean_run())
    assert report.overall is OverallStatus.COMPLETED
    assert report.per_node_outcomes == {
        "alpha|doPing#s0": "Succeeded",
        "beta|doPing#s0": "Succeeded",
        "alpha|stopMon#t0": "Succeeded",
    }
    assert summary.startswith("overall: Completed\n")


@pytest.mark.parametrize("state", ["Failed", "Aborted"])
def test_render_report_flags_bad_step_outcomes(state):
    events = _clean_run()
    events[1] = ev(EventKind.STEP_END, ts=2.0, step_index=0, tasklist="doPing",
                   detail=f"alpha={state} beta=Success",
                   outcomes=(("alpha", NodeState(state)), ("beta", SUCCEEDED)))
    report, _ = render_report(events)
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS
    assert report.per_node_outcomes["alpha|doPing#s0"] == state


def test_render_report_flags_teardown_failures():
    events = _clean_run()
    events[2] = ev(EventKind.TEARDOWN_END, ts=3.0, tasklist="stopMon",
                   detail="alpha=Failed", outcomes=(("alpha", FAILED),))
    report, _ = render_report(events)
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_render_report_panic_wins_over_errors():
    events = _clean_run()
    events.insert(2, ev(EventKind.PANIC, ts=2.5, node="alpha", detail="exit=1"))
    events[1] = ev(EventKind.STEP_END, ts=2.0, step_index=0, tasklist="doPing",
                   detail="alpha=Failed", outcomes=(("alpha", FAILED),))
    report, summary = render_report(events)
    assert report.overall is OverallStatus.PANICKED
    assert summary.startswith("overall: Panicked\n")


def test_render_report_ignores_non_outcome_detail():
    events = [
        ev(EventKind.STEP_END, ts=1.0, step_index=0, tasklist="noop",
           detail="vacuous: no live nodes"),
    ]
    report, _ = render_report(events)
    assert report.per_node_outcomes == {}
    assert report.overall is OverallStatus.COMPLETED


def test_teardown_ordinals_count_up():
    events = [
        ev(EventKind.TEARDOWN_END, ts=1.0, tasklist="first", detail="a=Succeeded",
           outcomes=(("a", SUCCEEDED),)),
        ev(EventKind.TEARDOWN_END, ts=2.0, tasklist="second", detail="a=Succeeded",
           outcomes=(("a", SUCCEEDED),)),
    ]
    report, _ = render_report(events)
    assert set(report.per_node_outcomes) == {"a|first#t0", "a|second#t1"}


def test_report_collects_and_deduplicates_artifacts():
    events = [
        ev(EventKind.TASK_END, ts=1.0, node="alpha", step_index=0, tasklist="t",
           detail="Success exit=0 stdout=alpha/stdout-0.log stderr=alpha/stderr-0.log",
           artifacts=("alpha/stdout-0.log", "alpha/stderr-0.log")),
        ev(EventKind.TASK_END, ts=2.0, node="alpha", step_index=1, tasklist="t",
           detail="Success artifact=alpha/out.pcap", artifacts=("alpha/out.pcap",)),
        ev(EventKind.TASK_END, ts=3.0, node="alpha", step_index=2, tasklist="t",
           detail="Success artifact=alpha/out.pcap", artifacts=("alpha/out.pcap",)),
    ]
    report, summary = render_report(events)
    assert report.artifacts == (
        "alpha/stdout-0.log",
        "alpha/stderr-0.log",
        "alpha/out.pcap",
    )
    assert "artifacts:" in summary


def test_report_reads_nothing_out_of_details():
    # a detail that spells a failure and a log ref is only summary text
    report, summary = render_report([
        ev(EventKind.TASK_END, node="a", step_index=0, tasklist="t",
           detail="Success artifact=a/out.pcap stdout=a/x stderr=a/y"),
        ev(EventKind.STEP_END, step_index=0, tasklist="t", detail="a=Failed",
           outcomes=(("a", SUCCEEDED),)),
    ])
    assert report.per_node_outcomes == {"a|t#s0": "Succeeded"}
    assert report.overall is OverallStatus.COMPLETED
    assert report.artifacts == ()
    assert "step 0 t: a=Failed" in summary


def test_summary_lists_warnings_with_timestamps():
    events = _clean_run()
    events.insert(1, ev(EventKind.WARNING, ts=0.5, node="beta", detail="slow start"))
    _, summary = render_report(events)
    assert "warnings:" in summary
    assert "t=0.5 slow start" in summary


def test_summary_sections_for_steps_and_teardowns():
    _, summary = render_report(_clean_run())
    assert "steps:" in summary
    assert "step 0 doPing: alpha=Success beta=Success" in summary
    assert "teardowns:" in summary
    assert "stopMon: alpha=Success" in summary


def test_write_report_emits_json_and_text(tmp_path):
    report, summary = render_report(_clean_run())
    write_report(tmp_path, report, summary)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["overall"] == "Completed"
    assert payload["per_node_outcomes"]["alpha|doPing#s0"] == "Succeeded"
    assert payload["artifacts"] == []
    assert payload["events"] == 4
    assert (tmp_path / "report.txt").read_text() == summary


def test_write_report_failure_raises(tmp_path):
    report, summary = render_report([])
    with pytest.raises(SinkIoError):
        write_report(tmp_path / "absent", report, summary)
