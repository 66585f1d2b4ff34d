from __future__ import annotations

import argparse
import errno
import itertools
import json
import tempfile
from pathlib import Path

import pytest

import gplmt
from gplmt import cli
from gplmt.cli import (
    EXIT_COMPLETED,
    EXIT_ERRORS,
    EXIT_PANIC,
    EXIT_USAGE,
    CliMode,
    build_arg_parser,
    config_from_args,
    filter_targets,
    main,
    parse_env_override,
    parse_max_connects,
)
from gplmt.model import UnknownTargetError
from gplmt.parser import load_experiment
from gplmt.planetlab import FakePlanetLabApi
from gplmt.telemetry import EventLog, SinkIoError

FIXTURES = Path(gplmt.__file__).parent / "fixtures"

SMALL_DOC = """
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="alpha" />
 </steps>
</experiment>
"""


def write_doc(tmp_path, xml, name="exp.xml"):
    path = tmp_path / name
    path.write_text(xml, encoding="utf-8")
    return path


def run_dir_of(log_dir: Path) -> Path:
    entries = [p for p in log_dir.iterdir() if p.is_dir()]
    assert len(entries) == 1
    return entries[0]


# --- option parsing ---


@pytest.mark.parametrize(
    "text,count,interval",
    [
        ("10/1s", 10, 1.0),
        ("3/500ms", 3, 0.5),
        ("100/2m", 100, 120.0),
        ("5/1h", 5, 3600.0),
        ("7/1.5s", 7, 1.5),
    ],
)
def test_parse_max_connects_accepts_rates(text, count, interval):
    config = parse_max_connects(text)
    assert (config.max_attempts, config.interval) == (count, interval)


@pytest.mark.parametrize("text", ["10", "10/", "/1s", "10/1", "10/1d", "0/1s", "x/1s", "10/1s extra"])
def test_parse_max_connects_rejects_garbage(text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_max_connects(text)


def test_parse_env_override_splits_on_first_equals():
    assert parse_env_override("VAR=VALUE") == ("VAR", "VALUE")
    assert parse_env_override("A=b=c") == ("A", "b=c")
    assert parse_env_override("EMPTY=") == ("EMPTY", "")


@pytest.mark.parametrize("text", ["NOVALUE", "=x", ""])
def test_parse_env_override_rejects_malformed(text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_env_override(text)


def test_config_defaults_to_run_mode():
    args = build_arg_parser().parse_args(["exp.xml"])
    config = config_from_args(args)
    assert config.mode is CliMode.RUN
    assert config.log_dir == Path("gplmt-logs")
    assert config.target_filter == []
    assert config.rate_limit is None


def test_config_collects_repeated_and_comma_separated_only():
    args = build_arg_parser().parse_args(
        ["exp.xml", "--only", "a,b", "--only", "c", "--set", "X=1", "--set", "Y=2"])
    config = config_from_args(args)
    assert config.target_filter == ["a", "b", "c"]
    assert config.env_overrides == [("X", "1"), ("Y", "2")]


def test_mode_flags_are_mutually_exclusive(capsys):
    assert main(["exp.xml", "--validate", "--dry-run"]) == EXIT_USAGE
    assert "not allowed" in capsys.readouterr().err


def test_usage_errors_exit_one_not_two(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["exp.xml", "--no-such-flag"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert gplmt.__version__ in capsys.readouterr().out


# --- target filtering ---


def test_filter_targets_empty_list_is_identity(tmp_path):
    experiment, _ = load_experiment(write_doc(tmp_path, SMALL_DOC))
    assert filter_targets(experiment, []) is experiment


def test_filter_targets_expands_group_names():
    experiment, _ = load_experiment(FIXTURES / "nested_groups.xml")
    filtered = filter_targets(experiment, ["east"])
    assert filtered.node_filter == frozenset({"e1", "e2"})


def test_filter_targets_unknown_name_raises(tmp_path):
    experiment, _ = load_experiment(write_doc(tmp_path, SMALL_DOC))
    with pytest.raises(UnknownTargetError):
        filter_targets(experiment, ["nope"])


# --- validate mode ---


def test_validate_clean_document(tmp_path, capsys):
    path = write_doc(tmp_path, SMALL_DOC)
    assert main([str(path), "--validate"]) == EXIT_COMPLETED
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ""


def test_validate_reports_all_diagnostics_on_stderr(tmp_path, capsys):
    bad = SMALL_DOC.replace('targets="alpha"', 'targets="ghost"').replace(
        '<tasklist name="work"><run>true</run></tasklist>',
        '<tasklist name="work"><run>true</run></tasklist>'
        '<tasklist name="work"><run>true</run></tasklist>')
    path = write_doc(tmp_path, bad)
    assert main([str(path), "--validate"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "UnknownReference" in err
    assert "DuplicateName" in err
    assert err.count("Error:") >= 2  # collect-all, not fail-fast


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "absent.xml"), "--validate"]) == EXIT_USAGE
    assert "IoError" in capsys.readouterr().err


# --- dry-run mode ---


def test_dry_run_prints_timeline_and_writes_run_dir(tmp_path, capsys):
    path = write_doc(tmp_path, SMALL_DOC)
    log_dir = tmp_path / "logs"
    assert main([str(path), "--dry-run", "--log-dir", str(log_dir)]) == EXIT_COMPLETED

    out = capsys.readouterr()
    assert "ExperimentStart" in out.out
    assert "run true" in out.out
    assert "gplmt: run directory:" in out.err
    assert "gplmt: overall: Completed" in out.err

    run = run_dir_of(log_dir)
    assert run.name.endswith("-exp")  # stamped with the document stem
    assert (run / "events.jsonl").is_file()
    assert (run / "report.json").is_file()
    assert (run / "report.txt").is_file()


def test_dry_run_exit_codes_reflect_outcomes(tmp_path):
    failing = main([
        str(FIXTURES / "abort_step.xml"), "--dry-run",
        "--mock-script", str(FIXTURES / "scripts" / "abort_step.json"),
        "--log-dir", str(tmp_path / "a"),
    ])
    assert failing == EXIT_ERRORS
    panicking = main([
        str(FIXTURES / "panic_teardown.xml"), "--dry-run",
        "--mock-script", str(FIXTURES / "scripts" / "panic.json"),
        "--log-dir", str(tmp_path / "b"),
    ])
    assert panicking == EXIT_PANIC


def test_dry_run_only_restricts_nodes(tmp_path):
    code = main([
        str(FIXTURES / "nested_groups.xml"), "--dry-run",
        "--only", "east", "--log-dir", str(tmp_path / "logs"),
    ])
    assert code == EXIT_COMPLETED
    events = [json.loads(line) for line in
              (run_dir_of(tmp_path / "logs") / "events.jsonl").read_text().splitlines()]
    ran_on = {e.get("node") for e in events if e["kind"] == "TaskStart"}
    assert ran_on == {"e1", "e2"}


def test_dry_run_unknown_only_target(tmp_path, capsys):
    path = write_doc(tmp_path, SMALL_DOC)
    code = main([str(path), "--dry-run", "--only", "ghost",
                 "--log-dir", str(tmp_path / "logs")])
    assert code == EXIT_USAGE
    assert "unknown target" in capsys.readouterr().err


def test_bad_mock_script_is_a_usage_error(tmp_path, capsys):
    path = write_doc(tmp_path, SMALL_DOC)
    missing = main([str(path), "--dry-run", "--mock-script",
                    str(tmp_path / "absent.json"), "--log-dir", str(tmp_path / "l1")])
    assert missing == EXIT_USAGE
    broken_file = tmp_path / "broken.json"
    broken_file.write_text("{not json")
    broken = main([str(path), "--dry-run", "--mock-script", str(broken_file),
                   "--log-dir", str(tmp_path / "l2")])
    assert broken == EXIT_USAGE
    assert capsys.readouterr().err.count("mock script") == 2


def test_max_connects_throttles_a_dry_run(tmp_path):
    code = main([
        str(FIXTURES / "fanout_rate_limit.xml"), "--dry-run",
        "--mock-script", str(FIXTURES / "scripts" / "fanout.json"),
        "--max-connects", "10/1s", "--log-dir", str(tmp_path / "logs"),
    ])
    assert code == EXIT_COMPLETED
    events = [json.loads(line) for line in
              (run_dir_of(tmp_path / "logs") / "events.jsonl").read_text().splitlines()]
    attempts = [e["ts"] for e in events if e["kind"] == "ConnectAttempt"]
    assert len(attempts) == 50
    assert max(attempts) == 4.0  # 50 nodes at 10 per second


def test_bad_max_connects_is_a_usage_error(tmp_path, capsys):
    path = write_doc(tmp_path, SMALL_DOC)
    assert main([str(path), "--dry-run", "--max-connects", "fast"]) == EXIT_USAGE
    assert "expected N/DUR" in capsys.readouterr().err


def test_dry_run_expands_slices_offline(tmp_path, capsys):
    doc = """
<experiment>
 <targets>
   <target name="testbed" type="planetlab" api-url="https://api.example/"
           slice="myslice" user="me@example.org" />
 </targets>
 <tasklists>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="testbed" />
 </steps>
</experiment>
"""
    path = write_doc(tmp_path, doc, name="slice.xml")
    log_dir = tmp_path / "logs"
    # no network: the slice becomes an empty group and the step is vacuous
    assert main([str(path), "--dry-run", "--log-dir", str(log_dir)]) == EXIT_COMPLETED
    err = capsys.readouterr().err
    assert "expands to zero nodes in a dry run" in err
    events = [json.loads(line) for line in
              (run_dir_of(log_dir) / "events.jsonl").read_text().splitlines()]
    assert events[0]["kind"] == "Warning"
    assert events[0]["ts"] == 0.0
    assert not any(e["kind"] == "TaskStart" for e in events)


# --- run mode ---


def test_run_mode_executes_real_commands(tmp_path, capsys):
    out_file = tmp_path / "out.txt"
    doc = SMALL_DOC.replace(
        "<run>true</run>",
        f'<run>printf "%s" "$TOKEN" > {out_file}</run>')
    path = write_doc(tmp_path, doc)
    code = main([str(path), "--set", "TOKEN=xyz",
                 "--log-dir", str(tmp_path / "logs")])
    assert code == EXIT_COMPLETED
    assert out_file.read_text() == "xyz"
    assert "gplmt: overall: Completed" in capsys.readouterr().err


def test_run_mode_with_mock_script_forces_the_mock(tmp_path):
    # ssh targets with a mock script must never reach a real client
    doc = SMALL_DOC.replace(
        '<target name="alpha" type="local" />',
        '<target name="alpha" type="ssh"><user>u</user><host>unroutable.invalid</host></target>')
    path = write_doc(tmp_path, doc)
    script = tmp_path / "mock.json"
    script.write_text("{}")
    code = main([str(path), "--mock-script", str(script),
                 "--log-dir", str(tmp_path / "logs")])
    assert code == EXIT_COMPLETED


def test_run_mode_prints_no_timeline(tmp_path, capsys):
    path = write_doc(tmp_path, SMALL_DOC)
    assert main([str(path), "--log-dir", str(tmp_path / "logs")]) == EXIT_COMPLETED
    assert capsys.readouterr().out == ""  # timeline is a dry-run affordance


# --- hostile input and sink failures ---


def test_failing_node_whose_name_contains_equals_is_an_error(tmp_path):
    """A failing node named "x=y" still makes the run CompletedWithErrors."""
    doc = """
<experiment>
 <targets><target name="x=y" type="local" /></targets>
 <tasklists><tasklist name="t"><run>false</run></tasklist></tasklists>
 <steps><step tasklist="t" targets="x=y" /></steps>
</experiment>
"""
    path = write_doc(tmp_path, doc)
    script = tmp_path / "mock.json"
    script.write_text('{"nodes": {"x=y": {"rules": [{"pattern": "*", "exit": 1}]}}}')
    log_dir = tmp_path / "logs"
    code = main([str(path), "--dry-run", "--mock-script", str(script),
                 "--log-dir", str(log_dir)])
    assert code == EXIT_ERRORS
    payload = json.loads((run_dir_of(log_dir) / "report.json").read_text())
    assert payload["overall"] == "CompletedWithErrors"
    assert payload["per_node_outcomes"] == {"x=y|t#s0": "Failed"}


def test_failing_node_whose_name_contains_a_space_keeps_its_own_key(tmp_path):
    """A failing node "a b" and a succeeding node "b" in one step both keep
    their own report key; the StepEnd detail reads "a b=Failed b=Succeeded"."""
    doc = """
<experiment>
 <targets>
   <target name="pair" type="group">
     <target name="a b" type="local" />
     <target name="b" type="local" />
   </target>
 </targets>
 <tasklists><tasklist name="t"><run>work</run></tasklist></tasklists>
 <steps><step tasklist="t" targets="pair" /></steps>
</experiment>
"""
    path = write_doc(tmp_path, doc)
    script = tmp_path / "mock.json"
    script.write_text('{"nodes": {"a b": {"rules": [{"pattern": "*", "exit": 1}]}}}')
    log_dir = tmp_path / "logs"
    code = main([str(path), "--dry-run", "--mock-script", str(script),
                 "--log-dir", str(log_dir)])
    assert code == EXIT_ERRORS
    run_dir = run_dir_of(log_dir)
    payload = json.loads((run_dir / "report.json").read_text())
    assert payload["overall"] == "CompletedWithErrors"
    assert payload["per_node_outcomes"] == {"a b|t#s0": "Failed", "b|t#s0": "Succeeded"}
    events = [json.loads(line) for line in (run_dir / "events.jsonl").read_text().splitlines()]
    assert [e["detail"] for e in events if e["kind"] == "StepEnd"] == ["a b=Failed b=Succeeded"]


def test_logs_of_a_node_whose_name_contains_a_space_are_listed_whole(tmp_path):
    doc = """
<experiment>
 <targets>
   <target name="pair" type="group">
     <target name="a b" type="local" />
     <target name="b" type="local" />
   </target>
 </targets>
 <tasklists><tasklist name="t"><run>work</run></tasklist></tasklists>
 <steps><step tasklist="t" targets="pair" /></steps>
</experiment>
"""
    log_dir = tmp_path / "logs"
    code = main([str(write_doc(tmp_path, doc)), "--dry-run", "--log-dir", str(log_dir)])
    assert code == EXIT_COMPLETED
    run_dir = run_dir_of(log_dir)
    artifacts = json.loads((run_dir / "report.json").read_text())["artifacts"]
    assert artifacts == [
        "a b/stdout-0-0.log", "a b/stderr-0-0.log", "b/stdout-0-0.log", "b/stderr-0-0.log",
    ]
    assert all((run_dir / artifact).is_file() for artifact in artifacts)


def test_fetched_file_whose_name_contains_a_space_is_listed_whole(tmp_path):
    doc = """
<experiment>
 <targets><target name="n" type="local" /></targets>
 <tasklists><tasklist name="t"><get>dir/my file.txt</get></tasklist></tasklists>
 <steps><step tasklist="t" targets="n" /></steps>
</experiment>
"""
    log_dir = tmp_path / "logs"
    code = main([str(write_doc(tmp_path, doc)), "--dry-run", "--log-dir", str(log_dir)])
    assert code == EXIT_COMPLETED
    run_dir = run_dir_of(log_dir)
    artifacts = json.loads((run_dir / "report.json").read_text())["artifacts"]
    assert artifacts == ["n/my file.txt"]
    assert all((run_dir / artifact).is_file() for artifact in artifacts)


def test_node_names_with_spaces_and_equals_keep_their_outcomes_and_artifacts(tmp_path):
    """Names that look like the log's own "node=State" and "stdout=" prose
    key their own outcomes and artifacts: the report reads typed values,
    not the details."""
    doc = """
<experiment>
 <targets>
   <target name="odd" type="group">
     <target name="a b" type="local" />
     <target name="x stderr=y" type="local" />
     <target name="n stdout=n" type="local" />
     <target name="a=Failed b" type="local" />
   </target>
 </targets>
 <tasklists><tasklist name="t"><run>work</run><get>out dir/my file.txt</get></tasklist></tasklists>
 <steps><step tasklist="t" targets="odd" /></steps>
</experiment>
"""
    nodes = ["a b", "a=Failed b", "n stdout=n", "x stderr=y"]  # name order
    path = write_doc(tmp_path, doc)
    for failing in (None, "n stdout=n"):
        work = tmp_path / str(failing)
        work.mkdir()
        script = work / "mock.json"
        rules = {failing: {"rules": [{"pattern": "work", "exit": 1}]}} if failing else {}
        script.write_text(json.dumps({"nodes": rules}))
        code = main([str(path), "--dry-run", "--mock-script", str(script),
                     "--log-dir", str(work / "logs")])

        assert code == (EXIT_ERRORS if failing else EXIT_COMPLETED)
        run_dir = run_dir_of(work / "logs")
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["per_node_outcomes"] == {
            f"{node}|t#s0": "Failed" if node == failing else "Succeeded" for node in nodes
        }
        # a failed run skips the node's get
        expected = []
        for node in nodes:
            expected += [f"{node}/stdout-0-0.log", f"{node}/stderr-0-0.log"]
            if node != failing:
                expected.append(f"{node}/my file.txt")
        assert payload["artifacts"] == expected
        assert all((run_dir / artifact).is_file() for artifact in expected)


def test_slice_hostname_that_is_not_a_host_name_exits_one(tmp_path, capsys):
    script = tmp_path / "mock.json"
    script.write_text("{}")
    log_dir = tmp_path / "logs"
    with FakePlanetLabApi("myslice", "sekrit", [("../../../escape", "boot")],
                          user="me@example.org") as api:
        doc = f"""
<experiment>
 <targets>
   <target name="pl" type="planetlab" api-url="{api.url}"
           slice="myslice" user="me@example.org"><password>sekrit</password></target>
 </targets>
 <tasklists>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="pl" />
 </steps>
</experiment>
"""
        path = write_doc(tmp_path, doc)
        code = main([str(path), "--mock-script", str(script), "--log-dir", str(log_dir)])
    assert code == EXIT_USAGE
    assert "gplmt: error: slice API:" in capsys.readouterr().err
    assert not log_dir.exists()


def test_event_sink_failure_at_any_event_exits_one(tmp_path, capsys, monkeypatch):
    fixture = str(FIXTURES / "listing1.xml")
    assert main([fixture, "--dry-run", "--log-dir", str(tmp_path / "clean")]) == EXIT_COMPLETED
    total = len((run_dir_of(tmp_path / "clean") / "events.jsonl").read_text().splitlines())
    record = EventLog.record
    for healthy in range(total):
        count = itertools.count()

        def record_until_the_disk_fills(self, event):
            if next(count) >= healthy:
                raise SinkIoError("No space left on device")
            record(self, event)

        monkeypatch.setattr(EventLog, "record", record_until_the_disk_fills)
        capsys.readouterr()
        code = main([fixture, "--dry-run", "--log-dir", str(tmp_path / f"logs{healthy}")])
        assert code == EXIT_USAGE, healthy
        err = capsys.readouterr().err
        assert "gplmt: error: No space left on device" in err, healthy
        assert "Traceback" not in err, healthy


class _OneShotFullHandle:
    """A file handle whose `fail_at`-th write (counting from 0) raises ENOSPC
    once; every other write goes through."""

    def __init__(self, handle, fail_at):
        self._handle = handle
        self._writes = itertools.count()
        self._fail_at = fail_at

    def write(self, text):
        if next(self._writes) == self._fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._handle.write(text)

    def flush(self):
        self._handle.flush()

    def close(self):
        self._handle.close()


def test_one_shot_event_sink_failure_at_any_event_exits_one(tmp_path, capsys, monkeypatch):
    """A write that fails once leaves a hole in events.jsonl even when the
    engine absorbs the error and every later write succeeds."""
    fixture = str(FIXTURES / "listing1.xml")
    assert main([fixture, "--dry-run", "--log-dir", str(tmp_path / "clean")]) == EXIT_COMPLETED
    total = len((run_dir_of(tmp_path / "clean") / "events.jsonl").read_text().splitlines())
    for position in range(total):

        def event_log(path, position=position):
            log = EventLog(path)
            log._handle = _OneShotFullHandle(log._handle, position)
            return log

        monkeypatch.setattr(cli, "EventLog", event_log)
        capsys.readouterr()
        code = main([fixture, "--dry-run", "--log-dir", str(tmp_path / f"logs{position}")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, position
        assert "gplmt: error: [Errno 28] No space left on device" in err, position
        assert "Traceback" not in err, position


class _FullFromHandle(_OneShotFullHandle):
    """A file handle whose every write from the `fail_at`-th on raises ENOSPC."""

    def write(self, text):
        if next(self._writes) >= self._fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._handle.write(text)


def test_a_sink_that_keeps_failing_still_closes_the_ssh_sessions(
    tmp_path, capsys, monkeypatch, fake_ssh
):
    """Every event write from the ninth on fails, after both ssh sessions
    are up. The run exits 1 and leaves no ssh control directory behind."""
    control_root = tmp_path / "tmp"
    control_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(control_root))
    doc = """
<experiment>
 <targets>
   <target name="both" type="group">
     <target name="a" type="ssh"><user>u</user><host>a.example</host></target>
     <target name="b" type="ssh"><user>u</user><host>b.example</host></target>
   </target>
 </targets>
 <tasklists>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="both" />
 </steps>
</experiment>
"""

    def event_log(path):
        log = EventLog(path)
        log._handle = _FullFromHandle(log._handle, 8)
        return log

    monkeypatch.setattr(cli, "EventLog", event_log)
    code = main([str(write_doc(tmp_path, doc)), "--log-dir", str(tmp_path / "logs")])
    assert code == EXIT_USAGE
    assert "gplmt: error: [Errno 28] No space left on device" in capsys.readouterr().err
    logged = (run_dir_of(tmp_path / "logs") / "events.jsonl").read_text().splitlines()
    assert [json.loads(line)["kind"] for line in logged].count("ConnectSuccess") == 2
    assert list(control_root.iterdir()) == []


def test_ssh_client_that_cannot_start_fails_the_node(tmp_path, capsys, monkeypatch):
    """On the real clock a missing ssh client makes the connect raise an
    OSError: a session failure of that node, not an error of the run."""
    monkeypatch.setenv("GPLMT_SSH_CLIENT", str(tmp_path / "no-such-ssh"))
    doc = """
<experiment>
 <targets>
   <target name="both" type="group">
     <target name="remote" type="ssh"><user>u</user><host>remote.example</host></target>
     <target name="here" type="local" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="both" />
 </steps>
</experiment>
"""
    path = write_doc(tmp_path, doc)
    code = main([str(path), "--log-dir", str(tmp_path / "logs")])
    assert code == EXIT_ERRORS
    err = capsys.readouterr().err
    assert "gplmt: overall: CompletedWithErrors" in err
    assert "Traceback" not in err
    report = json.loads((run_dir_of(tmp_path / "logs") / "report.json").read_text())
    assert report["per_node_outcomes"] == {"here|work#s0": "Succeeded", "remote|work#s0": "Failed"}
    events = [json.loads(line) for line in
              (run_dir_of(tmp_path / "logs") / "events.jsonl").read_text().splitlines()]
    warnings = [(e["node"], e["detail"]) for e in events if e["kind"] == "Warning"]
    assert len(warnings) == 1 and warnings[0][0] == "remote"
    assert warnings[0][1].startswith("session: ")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_full_disk_under_the_event_log_exits_one(tmp_path, capsys, monkeypatch):
    # the failed write stays buffered, so closing the log fails again
    monkeypatch.setattr(cli, "EventLog", lambda path: EventLog("/dev/full"))
    code = main([str(FIXTURES / "listing1.xml"), "--dry-run",
                 "--log-dir", str(tmp_path / "logs")])
    assert code == EXIT_USAGE
    assert "gplmt: error:" in capsys.readouterr().err


# --- names under the run directory ---


@pytest.mark.parametrize(
    "name",
    ["n" * 255, "é" * 127 + "n", "n" * 256, "é" * 128, "n" * 300],
    ids=["255-ascii", "255-bytes", "256-ascii", "256-bytes", "300"],
)
def test_node_names_must_fit_in_255_bytes(tmp_path, capsys, name):
    doc = SMALL_DOC.replace('"alpha"', f'"{name}"')
    path = write_doc(tmp_path, doc)
    experiment, diagnostics = load_experiment(path)
    code = main([str(path), "--dry-run", "--log-dir", str(tmp_path / "logs")])
    if len(name.encode()) > 255:
        assert experiment is None
        assert [d.code for d in diagnostics] == ["BadAttributeValue"]
        assert code == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        return
    assert experiment is not None and diagnostics == []
    assert code == EXIT_COMPLETED
    run_dir = run_dir_of(tmp_path / "logs")
    payload = json.loads((run_dir / "report.json").read_text())
    assert payload["overall"] == "Completed"
    assert payload["artifacts"] == [f"{name}/stdout-0-0.log", f"{name}/stderr-0-0.log"]
    assert all((run_dir / ref).is_file() for ref in payload["artifacts"])


def deep_seqs_doc(levels: int, children: int) -> str:
    """One tasklist of `levels` nested seqs, each holding `children`
    children: empty seqs, then the next level; a run task opens the outermost
    level and closes the innermost."""
    inner = "<run>deepest</run>"
    for level in range(levels, 0, -1):
        head = "<run>top</run>" if level == 1 else "<seq/>"
        inner = f"<seq>{head}{'<seq/>' * (children - 2)}{inner}</seq>"
    return f"""
<experiment>
 <targets><target name="alpha" type="local" /></targets>
 <tasklists><tasklist name="work">{inner}</tasklist></tasklists>
 <steps><step tasklist="work" targets="alpha" /></steps>
</experiment>
"""


def test_artifact_labels_too_long_for_a_file_name_are_shortened(tmp_path):
    """90 nested seqs of 12 children put the deepest run at a path whose
    label would make a file name longer than 255 bytes."""
    import hashlib

    path = write_doc(tmp_path, deep_seqs_doc(90, 12))
    log_dir = tmp_path / "logs"
    assert main([str(path), "--dry-run", "--log-dir", str(log_dir)]) == EXIT_COMPLETED
    run_dir = run_dir_of(log_dir)
    payload = json.loads((run_dir / "report.json").read_text())
    assert payload["overall"] == "Completed"

    long_label = "0-" + "-".join(["0"] + ["11"] * 90)
    assert len(f"stdout-{long_label}.log") > 255
    short = "0-h" + hashlib.sha256(long_label.encode()).hexdigest()[:16]
    assert payload["artifacts"] == [
        "alpha/stdout-0-0-0.log", "alpha/stderr-0-0-0.log",
        f"alpha/stdout-{short}.log", f"alpha/stderr-{short}.log",
    ]
    assert all((run_dir / ref).is_file() for ref in payload["artifacts"])
    ends = [
        json.loads(line) for line in (run_dir / "events.jsonl").read_text().splitlines()
        if '"TaskEnd"' in line
    ]
    assert ends[-1]["detail"] == (
        f"Success exit=0 stdout=alpha/stdout-{short}.log stderr=alpha/stderr-{short}.log"
    )
    assert len(ends[-1]["path"]) == 91


def test_artifact_labels_that_fit_keep_their_path(tmp_path):
    """The longest label that still fits is written as it is."""
    from gplmt.telemetry import artifact_label

    path = (1,) * 121  # "c0-" and 121 digits with 120 dashes: 244 characters
    assert artifact_label("c0", path) == "c0-" + "-".join(["1"] * 121)
    assert len(f"stdout-{artifact_label('c0', path)}.log") == 255
    assert len(artifact_label("c0", path + (1,))) == len("c0-h") + 16
    assert artifact_label("ct3", (10,) * 90) == artifact_label("ct3", (10,) * 90)
    assert artifact_label("ct3", (10,) * 90) != artifact_label("ct3", (10,) * 91)
