"""End-to-end acceptance checks.

Each test verifies one release gate and prints a single verdict line of the
form "ACCEPTANCE PASS: ..." or "ACCEPTANCE FAIL: ..." so the gates can be
grepped out of any test run. The verdict lines bypass output capture.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import gplmt
from gplmt.cli import main
from gplmt.model import TargetDef, TargetKind
from gplmt.parser import load_experiment
from gplmt.planetlab import (
    PlanetLabError,
    expand_planetlab_target,
    list_slice_nodes,
)
from gplmt.scheduler import dry_run, run_experiment
from gplmt.telemetry import EventLog
from gplmt.transport import (
    MockScript,
    RateLimiterConfig,
    SessionPool,
    make_transport_factory,
)

from .conftest import FakePlanetLabApi, run_virtual
from .oracles import all_indices, first_index, max_in_sliding_window, repeat_executions

FIXTURES = Path(gplmt.__file__).parent / "fixtures"

# every shipped fixture, with the mock script that animates it
FIXTURE_SCRIPTS = {
    "listing1.xml": None,
    "nested_groups.xml": None,
    "par_seq_timing.xml": "timing.json",
    "repeat_iterations.xml": "timing.json",
    "repeat_during.xml": "timing.json",
    "repeat_combined.xml": "timing.json",
    "scheduled_start.xml": "timing.json",
    "step_stop.xml": "timing.json",
    "timeout_cleanup.xml": "timing.json",
    "abort_step.xml": "abort_step.json",
    "panic_teardown.xml": "panic.json",
    "connection_loss.xml": "connection_loss.json",
    "fanout_rate_limit.xml": "fanout.json",
}


def criterion(label):
    """Print one verdict line per gate, whatever way the test ends."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {label}", file=sys.__stdout__)
                raise
            print(f"ACCEPTANCE PASS: {label}", file=sys.__stdout__)

        return run

    return wrap


def load_fixture(name):
    experiment, diagnostics = load_experiment(FIXTURES / name)
    assert experiment is not None and diagnostics == [], name
    return experiment


def script_for(name):
    script = FIXTURE_SCRIPTS[name]
    return MockScript.from_file(FIXTURES / "scripts" / script) if script else None


def dry_events(name, **kwargs):
    log = EventLog()
    report = dry_run(load_fixture(name), script_for(name), event_log=log, **kwargs)
    return report, [json.loads(e.to_json_line()) for e in log.events]


@criterion("golden fixture parses clean and dry-runs ordered, <1s")
def test_golden_fixture_ordering():
    started = time.monotonic()
    _, events = dry_events("listing1.xml")
    elapsed = time.monotonic() - started

    create = first_index(events, "TaskStart", tasklist="createPCAP")
    pings = all_indices(events, "TaskStart", tasklist="doPing")
    fetch = first_index(events, "TaskStart", tasklist="getData")
    teardown = first_index(events, "TaskStart", tasklist="stopMonitoring")
    assert 0 <= create < min(pings)
    assert len(pings) == 2 and max(pings) < fetch
    assert fetch < teardown
    assert teardown == max(all_indices(events, "TaskStart"))  # teardown is last
    assert elapsed < 1.0


@criterion("dry runs are byte-identical across all 13 fixtures, <5s")
def test_determinism_across_fixtures(tmp_path):
    started = time.monotonic()
    for name in FIXTURE_SCRIPTS:
        logs = []
        for attempt in ("one", "two"):
            run_dir = tmp_path / f"{name}-{attempt}"
            run_dir.mkdir()
            dry_run(load_fixture(name), script_for(name), run_dir=run_dir)
            logs.append((run_dir / "events.jsonl").read_bytes())
        assert logs[0] == logs[1], f"{name} produced differing logs"
    assert time.monotonic() - started < 5.0


@criterion("every failure mode still runs each registered teardown once, <5s")
def test_teardown_always_matrix():
    injections = [
        ("abort_step.xml", "nonzero exit"),
        ("timeout_cleanup.xml", "tasklist timeout"),
        ("connection_loss.xml", "connection loss mid-exec"),
        ("panic_teardown.xml", "panic mode"),
        ("step_stop.xml", "stop-time abort"),
    ]
    started = time.monotonic()
    for name, injection in injections:
        _, events = dry_events(name)
        ends = all_indices(events, "TeardownEnd")
        assert len(ends) == 1, f"{injection}: expected exactly one teardown execution"
        assert "=Succeeded" in events[ends[0]]["detail"], injection
    assert time.monotonic() - started < 5.0


@criterion("100 sequential tasks reuse one connection (1 ConnectAttempt)")
def test_connection_reuse(load_xml):
    tasks = "\n".join(f"   <run>task {i}</run>" for i in range(100))
    experiment = load_xml(f"""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
  <tasklist name="grind">
{tasks}
  </tasklist>
 </tasklists>
 <steps>
   <step tasklist="grind" targets="alpha" />
 </steps>
</experiment>
""")
    log = EventLog()
    dry_run(experiment, event_log=log)
    events = [json.loads(e.to_json_line()) for e in log.events]
    assert len(all_indices(events, "ConnectAttempt")) == 1
    assert len(all_indices(events, "TaskEnd")) == 100


@criterion("50-node fan-out at 10 connects/1s stays in window, done at t=5s exactly")
def test_rate_limited_fanout():
    _, events = dry_events("fanout_rate_limit.xml",
                           limiter_config=RateLimiterConfig(10, 1.0))
    attempts = [e["ts"] for e in events if e["kind"] == "ConnectAttempt"]
    assert len(attempts) == 50
    assert max_in_sliding_window(attempts, 1.0) <= 10
    assert events[first_index(events, "ExperimentEnd")]["ts"] == 5.0


@criterion("repeat bounds: iterations=7 -> 7, during=5s/2s body -> 3, both -> 2")
def test_repeat_bounds():
    cases = [
        ("repeat_iterations.xml", 7, None, 7),
        ("repeat_during.xml", None, 5.0, 3),
        ("repeat_combined.xml", 10, 3.0, 2),
    ]
    for name, iterations, during, expected in cases:
        _, events = dry_events(name)
        executed = len(all_indices(events, "TaskStart"))
        assert executed == expected == repeat_executions(iterations, during, 2.0), name


@criterion("20-document rejection corpus: designated code, exit 1, 0 false accepts")
def test_static_rejection_corpus(capsys):
    corpus = Path(__file__).parent / "corpus"
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert len(manifest) == 20
    false_accepts = []
    wrong_codes = []
    for document, expected_code in sorted(manifest.items()):
        code = main([str(corpus / document), "--validate"])
        err = capsys.readouterr().err
        if code != 1:
            false_accepts.append(document)
        if f"{expected_code}:" not in err:
            wrong_codes.append((document, expected_code))
    assert false_accepts == []
    assert wrong_codes == []


@criterion("par[2s,3s] ends at t=3s and seq[2s,3s] spans 5s, exact")
def test_par_seq_timing():
    _, events = dry_events("par_seq_timing.xml")
    par_end = first_index(events, "StepEnd", tasklist="fanOut")
    assert events[par_end]["ts"] == 3.0
    seq_start = first_index(events, "StepStart", tasklist="chain")
    seq_end = first_index(events, "StepEnd", tasklist="chain")
    assert events[seq_end]["ts"] - events[seq_start]["ts"] == 5.0


@criterion("1 MiB push/fetch round trip intact; same filename stays per-node")
def test_file_round_trip(tmp_path):
    import os

    payload = os.urandom(1024 * 1024)
    local = tmp_path / "payload.bin"
    local.write_bytes(payload)

    # mock transport: push up, fetch back, plus a two-node filename clash
    clash = {"n1": b"from n1", "n2": b"from n2"}
    files = {node: {"files": {"data.bin": content.decode()}} for node, content in clash.items()}
    script = MockScript.from_json(json.dumps({"nodes": files}))
    factory = make_transport_factory(script)
    pool = SessionPool(factory, lambda kind, node, detail: None, tmp_path / "mock-artifacts")

    async def mock_side():
        fetched, sessions = {}, {}
        for node in clash:
            target = TargetDef(name=node, kind=TargetKind.SSH, ssh_user="u", ssh_host=node)
            session = sessions[node] = await pool.acquire(target)
            fetched[node] = await session.fetch("data.bin")
        n1 = sessions["n1"]
        await n1.push(local, "/remote/payload.bin")
        round_tripped = await n1.fetch("/remote/payload.bin")
        return fetched, round_tripped

    fetched, round_tripped = run_virtual(mock_side())
    artifacts = tmp_path / "mock-artifacts"
    assert (artifacts / round_tripped.stdout_ref).read_bytes() == payload
    assert fetched["n1"].stdout_ref != fetched["n2"].stdout_ref  # distinct per-node artifact paths
    assert (artifacts / fetched["n1"].stdout_ref).read_bytes() == b"from n1"
    assert (artifacts / fetched["n2"].stdout_ref).read_bytes() == b"from n2"

    # local transport: the same round trip through real files
    from gplmt.transport import LocalTransport

    transport = LocalTransport(TargetDef(name="ctl", kind=TargetKind.LOCAL))

    async def local_side():
        await transport.push(local, str(tmp_path / "remote-copy.bin"))
        await transport.fetch(str(tmp_path / "remote-copy.bin"), tmp_path / "back.bin")

    import asyncio

    asyncio.run(local_side())
    assert (tmp_path / "back.bin").read_bytes() == payload


@criterion("500 mock nodes complete under the real clock in <10s, 1 session each")
def test_scale_smoke(load_xml):
    members = "\n".join(
        f'  <target name="node{i:03d}" type="ssh">'
        f"<user>u</user><host>node{i:03d}.example</host></target>"
        for i in range(500)
    )
    experiment = load_xml(f"""
<experiment>
 <targets>
  <target name="fleet" type="group">
{members}
  </target>
 </targets>
 <tasklists>
   <tasklist name="probe"><run>uname -a</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="probe" targets="fleet" />
 </steps>
</experiment>
""")
    factory = make_transport_factory(MockScript())
    log = EventLog()
    started = time.monotonic()
    report = run_experiment(experiment, factory, real_time=True, event_log=log)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    assert report.overall.value == "Completed"
    attempts = [e for e in log.events if e.kind.value == "ConnectAttempt"]
    assert len(attempts) == 500
    assert all(e.detail == "attempt=1" for e in attempts)  # one session per node


@criterion("slice with 3 hosts (1 non-boot) expands to 2 ssh leaves; bad auth fails")
def test_planetlab_expansion():
    hosts = [("a.example.org", "boot"), ("b.example.org", "dbg"), ("c.example.org", "boot")]
    with FakePlanetLabApi("myslice", "sekrit", hosts) as api:
        records = list_slice_nodes(api.url, api.user, "sekrit", "myslice")
        target = TargetDef(
            name="testbed",
            kind=TargetKind.PLANETLAB,
            planetlab_api_url=api.url,
            planetlab_slice="myslice",
            planetlab_user=api.user,
            ssh_password="sekrit",
        )
        group = expand_planetlab_target(target, records)
        assert [m.name for m in group.members] == [
            "testbed:a.example.org", "testbed:c.example.org"]
        assert all(m.kind is TargetKind.SSH and m.ssh_user == "myslice"
                   for m in group.members)
        denied = False
        try:
            list_slice_nodes(api.url, api.user, "wrong-password", "myslice")
        except PlanetLabError as exc:
            denied = str(exc) == "authentication failed"
        assert denied
