from __future__ import annotations

import asyncio
import errno
import gc
import itertools
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import gplmt
from gplmt.model import (
    ErrorMode,
    Experiment,
    GetTask,
    OverallStatus,
    RegisterTeardown,
    RunTask,
    Step,
    StepsProgram,
    TargetDef,
    TargetKind,
    Tasklist,
)
from gplmt.parser import load_experiment
from gplmt.scheduler import (
    RealClock,
    VirtualClock,
    VirtualTimeEventLoop,
    dry_run,
    run_experiment,
)
from gplmt.telemetry import EventLog
from gplmt.transport import MockScript, RateLimiterConfig, make_transport_factory

from .conftest import run_virtual
from .oracles import all_indices, first_index, repeat_executions

FIXTURES = Path(gplmt.__file__).parent / "fixtures"


def load_fixture(name):
    experiment, diagnostics = load_experiment(FIXTURES / name)
    assert experiment is not None, [str(d) for d in diagnostics]
    return experiment


def fixture_script(name):
    return MockScript.from_file(FIXTURES / "scripts" / name)


def dry_events(experiment, script=None, **kwargs):
    log = EventLog()
    report = dry_run(experiment, script, event_log=log, **kwargs)
    return report, [json.loads(e.to_json_line()) for e in log.events]


def at(events, index):
    return events[index]["ts"]


# --- virtual time ---


def test_virtual_sleeps_land_on_exact_instants():
    loop = VirtualTimeEventLoop()

    async def scenario():
        instants = []

        async def napper(seconds):
            await asyncio.sleep(seconds)
            instants.append(loop.time())

        await asyncio.gather(napper(5), napper(3), napper(8))
        return instants

    started = time.monotonic()
    try:
        assert loop.run_until_complete(scenario()) == [3.0, 5.0, 8.0]
        assert loop.time() == 8.0
    finally:
        loop.close()
    assert time.monotonic() - started < 2.0  # virtual waiting costs no wall time


def test_virtual_loop_detects_deadlock():
    loop = VirtualTimeEventLoop()

    async def stuck():
        await asyncio.get_running_loop().create_future()

    try:
        with pytest.raises(RuntimeError, match="deadlock"):
            loop.run_until_complete(stuck())
    finally:
        loop.close()


def test_virtual_timers_fire_at_large_clock_values():
    # at huge virtual times a fixed clock resolution is smaller than one
    # float ulp; timers must still fire instead of starving, and a distant
    # timer must be reached in one jump, not in day-sized select chunks
    loop = VirtualTimeEventLoop()

    async def scenario():
        await asyncio.sleep(1e12)
        for _ in range(5):
            await asyncio.sleep(1e-7)
        return loop.time()

    async def jump_then_tick():
        # the second timer is due one tick after a jump to 2**40 s: the
        # resolution must already scale with the clock the jump reached
        await asyncio.sleep(2.0**40)
        jumped = loop.time()
        await asyncio.sleep(1e-7)
        return jumped, loop.time()

    started = time.monotonic()
    try:
        assert loop.run_until_complete(scenario()) >= 1e12
    finally:
        loop.close()
    loop = VirtualTimeEventLoop()
    try:
        jumped, ticked = loop.run_until_complete(jump_then_tick())
    finally:
        loop.close()
    assert jumped == 2.0**40
    assert jumped <= ticked <= jumped + 1e-3
    assert time.monotonic() - started < 2.0


def test_virtual_clock_wall_equals_now():
    clock = VirtualClock()

    async def scenario():
        assert clock.now() == 0.0
        assert clock.wall() == clock.now()
        await clock.sleep(4)
        return clock.now(), clock.wall()

    assert run_virtual(scenario()) == (4.0, 4.0)


def test_virtual_clock_sleep_until_past_is_immediate():
    clock = VirtualClock()

    async def scenario():
        await clock.sleep(2)
        await clock.sleep_until(1.0)  # already behind us
        await clock.sleep(-5)
        return clock.now()

    assert run_virtual(scenario()) == 2.0


def test_real_clock_tracks_wall_time():
    clock = RealClock()
    assert 0.0 <= clock.now() < 5.0
    assert abs(clock.wall() - time.time()) < 5.0


# --- step scheduling and ordering ---


def test_par_and_seq_timing():
    report, events = dry_events(load_fixture("par_seq_timing.xml"),
                                fixture_script("timing.json"))
    assert report.overall is OverallStatus.COMPLETED
    # par children both launch at 0; the construct ends with the slower one
    starts = all_indices(events, "TaskStart", tasklist="fanOut")
    assert [at(events, i) for i in starts] == [0.0, 0.0]
    assert at(events, first_index(events, "StepEnd", tasklist="fanOut")) == 3.0
    # seq runs its children back to back after the barrier
    starts = all_indices(events, "TaskStart", tasklist="chain")
    assert [at(events, i) for i in starts] == [3.0, 5.0]
    assert at(events, first_index(events, "StepEnd", tasklist="chain")) == 8.0


def test_scheduled_starts_relative_and_absolute():
    _, events = dry_events(load_fixture("scheduled_start.xml"),
                           fixture_script("timing.json"))
    # virtual wall time starts at the epoch, so 1970-01-01T00:00:03Z is t=3
    assert at(events, first_index(events, "StepStart", step=0)) == 2.0
    assert at(events, first_index(events, "StepStart", step=1)) == 3.0
    assert at(events, first_index(events, "StepEnd", step=0)) == 3.0
    assert at(events, first_index(events, "StepEnd", step=1)) == 4.0


def test_nodes_within_a_step_run_in_name_order(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="fleet" type="group">
     <target name="gamma" type="local" />
     <target name="alpha" type="local" />
     <target name="beta" type="local" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="fleet" />
 </steps>
</experiment>
""")
    _, events = dry_events(experiment)
    order = [events[i]["node"] for i in all_indices(events, "TaskStart")]
    assert order == ["alpha", "beta", "gamma"]


def test_nested_groups_deduplicate_and_sort():
    _, events = dry_events(load_fixture("nested_groups.xml"))
    first = first_index(events, "StepStart", step=0)
    assert events[first]["detail"] == "targets=all nodes=3"
    step0_starts = all_indices(events, "TaskStart", step=0)
    assert [events[i]["node"] for i in step0_starts] == ["e1", "e2", "seed"]
    second = first_index(events, "StepStart", step=1)
    assert events[second]["detail"] == "targets=east nodes=2"


def test_synchronize_waits_for_everything_launched_before_it(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
   <target name="beta" type="local" />
 </targets>
 <tasklists>
   <tasklist name="short"><run>sleep 2</run></tasklist>
   <tasklist name="long"><run>sleep 3</run></tasklist>
   <tasklist name="after"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="short" targets="alpha" />
   <step tasklist="long" targets="beta" />
   <synchronize />
   <step tasklist="after" targets="alpha" />
 </steps>
</experiment>
""")
    _, events = dry_events(experiment, fixture_script("timing.json"))
    barrier = first_index(events, "BarrierRelease")
    assert events[barrier]["detail"] == "waited=2"
    assert at(events, barrier) == 3.0
    assert at(events, first_index(events, "StepStart", tasklist="after")) == 3.0


def test_steps_on_the_same_node_serialize(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="work"><run>sleep 2</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="alpha" />
   <step tasklist="work" targets="alpha" />
 </steps>
</experiment>
""")
    _, events = dry_events(experiment, fixture_script("timing.json"))
    # both steps launch at 0 but the node lock serializes them
    ends = all_indices(events, "StepEnd")
    assert sorted(at(events, i) for i in ends) == [2.0, 4.0]
    assert len(all_indices(events, "ConnectAttempt")) == 1


def test_a_step_queued_behind_a_lost_session_reconnects(load_xml):
    """The second step waits for the node, not for the first step's session:
    once the first has lost the connection, the second's use reconnects."""
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="ssh"><user>u</user><host>alpha.example</host></target>
 </targets>
 <tasklists>
   <tasklist name="first"><run>sleep 2</run></tasklist>
   <tasklist name="second"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="first" targets="alpha" />
   <step tasklist="second" targets="alpha" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"alpha": {"rules": [{"pattern": "sleep 2", "duration": 2}],'
        '"lose_connection_at": [1.0]}}}')
    _, events = dry_events(experiment, script)
    assert events[first_index(events, "TaskEnd", tasklist="first")]["detail"] == "ConnectionLost exit=-1"
    retry = first_index(events, "ConnectAttempt", detail="attempt=2")
    assert retry != -1 and at(events, retry) == 1.0
    end = first_index(events, "TaskEnd", tasklist="second")
    assert retry < end and events[end]["detail"] == "Success exit=0"
    ends = {events[i]["tasklist"]: events[i]["detail"] for i in all_indices(events, "StepEnd")}
    assert ends == {"first": "alpha=Failed", "second": "alpha=Succeeded"}


def test_vacuous_step_warns_and_completes(load_xml):
    experiment = load_xml("""
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
""")
    # a filter that matches nothing leaves the step with zero nodes
    report, events = dry_events(experiment.with_node_filter(frozenset()))
    warning = first_index(events, "Warning")
    assert "zero nodes" in events[warning]["detail"]
    assert first_index(events, "TaskStart") == -1
    assert report.overall is OverallStatus.COMPLETED


# --- repeat ---


@pytest.mark.parametrize(
    "fixture,iterations,during,end",
    [
        ("repeat_iterations.xml", 7, None, 14.0),
        ("repeat_during.xml", None, 5.0, 6.0),
        ("repeat_combined.xml", 10, 3.0, 4.0),
    ],
)
def test_repeat_bounds(fixture, iterations, during, end):
    _, events = dry_events(load_fixture(fixture), fixture_script("timing.json"))
    executed = len(all_indices(events, "TaskStart"))
    assert executed == repeat_executions(iterations, during, 2.0)
    assert at(events, first_index(events, "ExperimentEnd")) == end


def test_repeat_until_absolute_instant(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="work"><run>sleep 2</run></tasklist>
 </tasklists>
 <steps>
   <repeat until="1970-01-01T00:00:09Z">
     <step tasklist="work" targets="alpha" />
   </repeat>
 </steps>
</experiment>
""")
    _, events = dry_events(experiment, fixture_script("timing.json"))
    starts = all_indices(events, "TaskStart")
    assert [at(events, i) for i in starts] == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert at(events, first_index(events, "ExperimentEnd")) == 10.0


# --- stop and timeout ---


def test_step_stop_cuts_execution_and_cleans_up():
    report, events = dry_events(load_fixture("step_stop.xml"),
                                fixture_script("timing.json"))
    cut = first_index(events, "TaskEnd", tasklist="longHaul")
    assert events[cut]["detail"] == "TimedOut exit=-15"
    assert at(events, cut) == 5.0
    cleanup = first_index(events, "TaskStart", tasklist="mopUp")
    assert cleanup > cut and at(events, cleanup) == 5.0
    end = first_index(events, "StepEnd", tasklist="longHaul")
    assert events[end]["detail"] == "alpha=Failed"
    assert len(all_indices(events, "TeardownEnd")) == 1
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_tasklist_timeout_cuts_body_then_runs_cleanup():
    report, events = dry_events(load_fixture("timeout_cleanup.xml"),
                                fixture_script("timing.json"))
    cut = first_index(events, "TaskEnd", tasklist="slowJob")
    assert events[cut]["detail"] == "TimedOut exit=-15"
    assert at(events, cut) == 3.0
    assert first_index(events, "TaskStart", tasklist="mopUp") > cut
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_stop_expiring_while_waiting_for_the_node_lock(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="hold"><run>sleep 3</run></tasklist>
   <tasklist name="quick"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="hold" targets="alpha" />
   <step tasklist="quick" targets="alpha" stop="PT2S" />
 </steps>
</experiment>
""")
    _, events = dry_events(experiment, fixture_script("timing.json"))
    warning = first_index(events, "Warning", tasklist="quick")
    assert events[warning]["detail"] == "stop time passed before execution began"
    assert at(events, warning) == 2.0
    assert first_index(events, "TaskStart", tasklist="quick") == -1
    end = first_index(events, "StepEnd", tasklist="quick")
    assert events[end]["detail"] == "alpha=Failed"
    hold_end = first_index(events, "StepEnd", tasklist="hold")
    assert events[hold_end]["detail"] == "alpha=Succeeded"


def test_stop_already_passed_at_step_entry(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="quick"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="quick" targets="alpha" stop="PT0S" />
 </steps>
</experiment>
""")
    report, events = dry_events(experiment)
    warning = first_index(events, "Warning")
    assert events[warning]["detail"] == "stop time passed before execution began"
    assert first_index(events, "TaskStart") == -1
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_stop_expiring_while_parked_on_the_rate_limiter(load_xml):
    nodes = "\n".join(
        f'     <target name="n{i}" type="ssh"><user>u</user><host>n{i}.example</host></target>'
        for i in range(7)
    )
    experiment = load_xml(f"""
<experiment>
 <targets>
   <target name="fleet" type="group">
{nodes}
   </target>
 </targets>
 <tasklists>
   <tasklist name="first"><run>true</run></tasklist>
   <tasklist name="second"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="first" targets="fleet" stop="PT1.5S" />
   <synchronize />
   <step tasklist="second" targets="fleet" />
 </steps>
</experiment>
""")
    # Two permits per second: n0 and n1 connect at 0 s, n2 and n3 at 1 s.
    # At 1.5 s n4 is the head waiter, asleep inside the limiter, while n5
    # and n6 are queued on the limiter's lock behind it.
    _, events = dry_events(experiment, limiter_config=RateLimiterConfig(2, 1.0))
    first_end = first_index(events, "StepEnd", tasklist="first")
    assert at(events, first_end) == 1.5
    assert events[first_end]["detail"] == (
        "n0=Succeeded n1=Succeeded n2=Succeeded n3=Succeeded n4=Failed n5=Failed n6=Failed"
    )
    for node in ("n4", "n5", "n6"):
        warning = first_index(events, "Warning", node=node, tasklist="first")
        assert events[warning]["detail"] == "stop time passed before execution began"
        assert at(events, warning) == 1.5
        assert first_index(events, "TaskStart", node=node, tasklist="first") == -1
    # The limiter lock was released whichever way its waiters were
    # cancelled, so the parked nodes connect in the next step.
    attempts = {
        e["node"]: e["ts"] for e in events if e["kind"] == "ConnectAttempt" and e["ts"] > 1.5
    }
    assert attempts == {"n4": 2.0, "n5": 2.0, "n6": 3.0}
    second_end = first_index(events, "StepEnd", tasklist="second")
    assert events[second_end]["detail"] == " ".join(f"n{i}=Succeeded" for i in range(7))


# --- error modes ---


def test_default_mode_aborts_the_tasklist_only(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="pair" type="group">
     <target name="n1" type="local" />
     <target name="n2" type="local" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="work">
     <run>first</run>
     <run>second</run>
   </tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="pair" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"n1": {"rules": [{"pattern": "first", "exit": 1, "duration": 1}]}}}')
    report, events = dry_events(experiment, script)
    # n1 stops after the failure; n2 is untouched and runs both tasks
    assert len(all_indices(events, "TaskStart", node="n1")) == 1
    assert len(all_indices(events, "TaskStart", node="n2")) == 2
    end = first_index(events, "StepEnd")
    assert events[end]["detail"] == "n1=Failed n2=Succeeded"
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_abort_step_cancels_sibling_nodes():
    report, events = dry_events(load_fixture("abort_step.xml"),
                                fixture_script("abort_step.json"))
    end = first_index(events, "StepEnd", tasklist="mayFail")
    assert events[end]["detail"] == "n1=Failed n2=Aborted"
    assert at(events, end) == 1.0
    # n2's command was cancelled mid-flight: started, never ended
    assert len(all_indices(events, "TaskStart", node="n2", tasklist="mayFail")) == 1
    assert len(all_indices(events, "TaskEnd", node="n2", tasklist="mayFail")) == 0
    assert len(all_indices(events, "TeardownEnd")) == 1
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_abort_step_leaves_a_finished_siblings_cleanup_running():
    """n0's tasklist has ended and its one-second cleanup is running when n1
    fails under abort-step: the cleanup runs to its TaskEnd."""
    n0, n1 = TargetDef("n0", TargetKind.LOCAL), TargetDef("n1", TargetKind.LOCAL)
    experiment = Experiment(
        targets=(TargetDef("pair", TargetKind.GROUP, members=(n0, n1)),),
        tasklists=(
            Tasklist("t", (RunTask("a"), RunTask("b")), on_error=ErrorMode.ABORT_STEP, cleanup="c"),
            Tasklist("c", (RunTask("c"),)),
        ),
        steps=StepsProgram((Step("t", "pair"),)),
    )
    script = MockScript.from_json(json.dumps({"nodes": {
        "n0": {"rules": [{"pattern": "c", "duration": 1}]},
        "n1": {"rules": [{"pattern": "b", "exit": 1}]},
    }}))
    report, events = dry_events(experiment, script)
    cleanup = [(e["kind"], e["ts"]) for e in events if e.get("node") == "n0" and e.get("tasklist") == "c"]
    assert cleanup == [("TaskStart", 0.0), ("TaskEnd", 1.0)]
    assert report.per_node_outcomes == {"n0|t#s0": "Succeeded", "n1|t#s0": "Failed"}


def test_panic_cancels_other_steps_but_teardowns_still_run():
    report, events = dry_events(load_fixture("panic_teardown.xml"),
                                fixture_script("panic.json"))
    panic = first_index(events, "Panic")
    assert at(events, panic) == 1.0
    assert events[panic]["node"] == "alpha"
    assert events[panic]["detail"] == "on-error=panic"
    # the cancelled background step never reaches its StepEnd
    assert first_index(events, "StepEnd", tasklist="background") == -1
    teardown = first_index(events, "TeardownEnd", tasklist="finalize")
    assert events[teardown]["detail"] == "alpha=Succeeded"
    assert events[first_index(events, "ExperimentEnd")]["detail"] == "Panicked"
    assert report.overall is OverallStatus.PANICKED


def test_panic_fires_at_most_once(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="n1" type="local" />
   <target name="n2" type="local" />
 </targets>
 <tasklists>
   <tasklist name="critical" on-error="panic"><run>flaky</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="critical" targets="n1" />
   <step tasklist="critical" targets="n2" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"*": {"rules": [{"pattern": "flaky", "exit": 1, "duration": 1}]}}}')
    report, events = dry_events(experiment, script)
    assert len(all_indices(events, "Panic")) == 1
    assert report.overall is OverallStatus.PANICKED


def test_panic_skips_cleanups(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="critical" on-error="panic" cleanup="mop"><run>flaky</run></tasklist>
   <tasklist name="mop"><run>echo mop</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="critical" targets="alpha" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"*": {"rules": [{"pattern": "flaky", "exit": 1}]}}}')
    _, events = dry_events(experiment, script)
    assert len(all_indices(events, "Panic")) == 1
    assert first_index(events, "TaskStart", tasklist="mop") == -1


# --- calls ---


CALL_DOC = """
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="caller">
     <call ref="helper" />
     <run>after</run>
   </tasklist>
   {helper}
 </tasklists>
 <steps>
   <step tasklist="caller" targets="alpha" />
 </steps>
</experiment>
"""


def test_callee_abort_tasklist_failure_is_contained(load_xml):
    experiment = load_xml(CALL_DOC.format(
        helper='<tasklist name="helper"><run>flaky</run></tasklist>'))
    script = MockScript.from_json(
        '{"nodes": {"*": {"rules": [{"pattern": "flaky", "exit": 1}]}}}')
    report, events = dry_events(experiment, script)
    # the caller carries on past the failed call, yet the node is Failed
    assert first_index(events, "TaskStart", detail="run after") != -1
    end = first_index(events, "StepEnd")
    assert events[end]["detail"] == "alpha=Failed"
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_callee_timeout_is_contained(load_xml):
    experiment = load_xml(CALL_DOC.format(
        helper='<tasklist name="helper" timeout="PT2S"><run>sleep 60</run></tasklist>'))
    _, events = dry_events(experiment, fixture_script("timing.json"))
    cut = first_index(events, "TaskEnd", tasklist="helper")
    assert events[cut]["detail"] == "TimedOut exit=-15"
    assert at(events, cut) == 2.0
    after = first_index(events, "TaskStart", detail="run after")
    assert at(events, after) == 2.0
    assert events[first_index(events, "StepEnd")]["detail"] == "alpha=Failed"


def test_callee_cleanup_runs_only_on_callee_failure(load_xml):
    doc = CALL_DOC.format(
        helper='<tasklist name="helper" cleanup="mop"><run>{cmd}</run></tasklist>'
               '<tasklist name="mop"><run>echo mop</run></tasklist>')
    failing = MockScript.from_json(
        '{"nodes": {"*": {"rules": [{"pattern": "flaky", "exit": 1}]}}}')

    _, events = dry_events(load_xml(doc.format(cmd="flaky"), name="fail.xml"), failing)
    mop = first_index(events, "TaskStart", tasklist="mop")
    after = first_index(events, "TaskStart", detail="run after")
    assert -1 < mop < after  # cleanup finished before the caller resumed

    _, events = dry_events(load_xml(doc.format(cmd="fine"), name="ok.xml"), failing)
    assert first_index(events, "TaskStart", tasklist="mop") == -1


def test_callee_abort_step_escalates_to_siblings(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="pair" type="group">
     <target name="n1" type="local" />
     <target name="n2" type="local" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="caller">
     <call ref="helper" />
   </tasklist>
   <tasklist name="helper" on-error="abort-step"><run>flaky</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="caller" targets="pair" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"n1": {"rules": [{"pattern": "flaky", "exit": 1, "duration": 1}]},'
        '"n2": {"rules": [{"pattern": "*", "duration": 60}]}}}')
    _, events = dry_events(experiment, script)
    end = first_index(events, "StepEnd")
    assert events[end]["detail"] == "n1=Failed n2=Aborted"
    assert at(events, end) == 1.0


# --- cleanups ---


def test_cleanup_reconnects_a_lost_session():
    report, events = dry_events(load_fixture("connection_loss.xml"),
                                fixture_script("connection_loss.json"))
    lost = first_index(events, "ConnectLost")
    assert at(events, lost) == 2.0
    retry = first_index(events, "ConnectAttempt", detail="attempt=2")
    assert retry > lost and at(events, retry) == 2.0  # first retry is immediate
    cleanup = first_index(events, "TaskStart", tasklist="mopUp")
    assert cleanup > retry
    assert events[first_index(events, "StepEnd")]["detail"] == "alpha=Failed"
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_par_branches_reconnect_a_lost_session_once(load_xml):
    """Both calls of the par fail while the session is lost, so both callee
    cleanups need it at once: the first reconnects (one refused attempt,
    then one after the 1 s backoff) and the second waits and reuses it."""
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="ssh"><user>u</user><host>alpha.example</host></target>
 </targets>
 <tasklists>
   <tasklist name="main"><par><call ref="a" /><call ref="b" /></par></tasklist>
   <tasklist name="a" cleanup="ca"><run>slow</run></tasklist>
   <tasklist name="b" cleanup="cb"><run>bad</run></tasklist>
   <tasklist name="ca"><run>true</run></tasklist>
   <tasklist name="cb"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="main" targets="alpha" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"alpha": {"rules": [{"pattern": "slow", "duration": 2},'
        '{"pattern": "bad", "exit": 1, "duration": 1.5}],'
        '"lose_connection_at": [1.0], "connect_failures": 1}}}')
    _, events = dry_events(experiment, script)
    attempts = [(at(events, i), events[i]["detail"]) for i in all_indices(events, "ConnectAttempt")]
    assert attempts == [(0.0, "attempt=1"), (1.0, "attempt=2"), (2.0, "attempt=3")]
    starts = [(events[i]["tasklist"], at(events, i)) for i in all_indices(events, "TaskStart")]
    assert sorted(starts)[-2:] == [("ca", 2.0), ("cb", 2.0)]


def test_cleanup_failure_is_a_warning_and_does_not_chain(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="main" cleanup="mop"><run>flaky</run></tasklist>
   <tasklist name="mop" cleanup="deep"><run>mop-it</run></tasklist>
   <tasklist name="deep"><run>echo deep</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="main" targets="alpha" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"*": {"rules": [{"pattern": "flaky", "exit": 1},'
        '{"pattern": "mop-it", "exit": 1}]}}}')
    report, events = dry_events(experiment, script)
    warning = first_index(events, "Warning", tasklist="mop")
    assert events[warning]["detail"] == "cleanup finished Failed"
    # the cleanup's own cleanup attribute does not chain
    assert first_index(events, "TaskStart", tasklist="deep") == -1
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_cleanup_is_bounded_by_its_own_timeout(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="main" cleanup="mop"><run>flaky</run></tasklist>
   <tasklist name="mop" timeout="PT2S"><run>sleep 60</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="main" targets="alpha" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"*": {"rules": [{"pattern": "flaky", "exit": 1, "duration": 1},'
        '{"pattern": "sleep 60", "duration": 60}]}}}')
    _, events = dry_events(experiment, script)
    cut = first_index(events, "TaskEnd", tasklist="mop")
    assert events[cut]["detail"] == "TimedOut exit=-15"
    assert at(events, cut) == 3.0  # body failed at 1, cleanup window is 2
    warning = first_index(events, "Warning", tasklist="mop")
    assert events[warning]["detail"] == "cleanup finished TimedOut"


def test_cleanup_warning_names_its_worst_outcome(load_xml):
    """A failed call only taints the cleanup; the par's lost connection is
    its worst outcome and ends it before the next task."""
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="main" cleanup="c"><run>true</run></tasklist>
   <tasklist name="c">
     <call ref="f" />
     <par><run>bad</run><run>slow</run></par>
     <run>never</run>
   </tasklist>
   <tasklist name="f"><run>bad</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="main" targets="alpha" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"*": {"rules": [{"pattern": "bad", "exit": 1},'
        '{"pattern": "slow", "duration": 5}], "lose_connection_at": [2.0]}}}')
    report, events = dry_events(experiment, script)
    warning = first_index(events, "Warning", tasklist="c")
    assert events[warning]["detail"] == "cleanup finished ConnectionLost"
    assert at(events, warning) == 2.0
    assert first_index(events, "TaskStart", detail="run never") == -1
    assert events[first_index(events, "StepEnd")]["detail"] == "alpha=Succeeded"
    assert report.overall is OverallStatus.COMPLETED


# --- teardowns ---


def test_teardowns_run_in_reverse_registration_order(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="first"><run>echo one</run></tasklist>
   <tasklist name="second"><run>echo two</run></tasklist>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <register-teardown ref="first" targets="alpha" />
   <register-teardown ref="second" targets="alpha" />
   <step tasklist="work" targets="alpha" />
 </steps>
</experiment>
""")
    _, events = dry_events(experiment)
    starts = all_indices(events, "TeardownStart")
    assert [events[i]["tasklist"] for i in starts] == ["second", "first"]
    assert len(all_indices(events, "TeardownEnd")) == 2


def test_teardown_failures_do_not_stop_later_teardowns(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="first"><run>flaky</run></tasklist>
   <tasklist name="second"><run>flaky</run></tasklist>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <register-teardown ref="first" targets="alpha" />
   <register-teardown ref="second" targets="alpha" />
   <step tasklist="work" targets="alpha" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"*": {"rules": [{"pattern": "flaky", "exit": 1}]}}}')
    report, events = dry_events(experiment, script)
    ends = all_indices(events, "TeardownEnd")
    assert [events[i]["detail"] for i in ends] == ["alpha=Failed", "alpha=Failed"]
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


@pytest.mark.parametrize("mode", ["panic", "abort-step"])
def test_teardown_runs_as_abort_tasklist_whatever_its_mode(load_xml, mode):
    experiment = load_xml(f"""
<experiment>
 <targets>
   <target name="pair" type="group">
     <target name="n1" type="local" />
     <target name="n2" type="local" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="fragile" on-error="{mode}"><run>flaky</run><run>slow</run></tasklist>
   <tasklist name="later"><run>echo later</run></tasklist>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <register-teardown ref="later" targets="pair" />
   <register-teardown ref="fragile" targets="pair" />
   <step tasklist="work" targets="pair" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"n1": {"rules": [{"pattern": "flaky", "exit": 1}]},'
        ' "*": {"rules": [{"pattern": "slow", "duration": 2}]}}}')
    report, events = dry_events(experiment, script)
    assert first_index(events, "Panic") == -1
    ends = all_indices(events, "TeardownEnd")
    # the failing node fails alone: its sibling is not cancelled
    assert [(events[i]["tasklist"], events[i]["detail"]) for i in ends] == [
        ("fragile", "n1=Failed n2=Succeeded"),
        ("later", "n1=Succeeded n2=Succeeded"),
    ]
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


@pytest.mark.parametrize("mode", ["panic", "abort-step"])
def test_call_inside_a_teardown_never_escalates(load_xml, mode):
    experiment = load_xml(f"""
<experiment>
 <targets>
   <target name="pair" type="group">
     <target name="n1" type="local" />
     <target name="n2" type="local" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="helper" on-error="{mode}"><run>flaky</run></tasklist>
   <tasklist name="fin"><call ref="helper" /><run>slow</run></tasklist>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <register-teardown ref="fin" targets="pair" />
   <step tasklist="work" targets="pair" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"n1": {"rules": [{"pattern": "flaky", "exit": 1}]},'
        ' "*": {"rules": [{"pattern": "slow", "duration": 2}]}}}')
    report, events = dry_events(experiment, script)
    assert first_index(events, "Panic") == -1
    end = events[first_index(events, "TeardownEnd")]
    # the callee's failure stays on n1, and n2 is not cancelled
    assert end["detail"] == "n1=Failed n2=Succeeded"
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


@pytest.mark.parametrize("mode", ["panic", "abort-step"])
def test_cleanup_runs_as_abort_tasklist_whatever_its_mode(load_xml, mode):
    experiment = load_xml(f"""
<experiment>
 <targets>
   <target name="pair" type="group">
     <target name="n1" type="local" />
     <target name="n2" type="local" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="mop" on-error="{mode}"><run>flaky</run><run>echo mopped</run></tasklist>
   <tasklist name="work" cleanup="mop"><run>true</run></tasklist>
 </tasklists>
 <steps><step tasklist="work" targets="pair" /></steps>
</experiment>
""")
    script = MockScript.from_json('{"nodes": {"n1": {"rules": [{"pattern": "flaky", "exit": 1}]}}}')
    report, events = dry_events(experiment, script)
    assert first_index(events, "Panic") == -1
    # n1's cleanup stops at its failure; n2's is not cancelled
    mopped = [e["node"] for e in events if e["kind"] == "TaskStart" and e["path"] == [1]]
    assert mopped == ["n2"]
    warnings = [(e["node"], e["detail"]) for e in events if e["kind"] == "Warning"]
    assert warnings == [("n1", "cleanup finished Failed")]
    assert report.overall is OverallStatus.COMPLETED


@pytest.mark.parametrize("mode", ["panic", "abort-step"])
def test_call_inside_a_cleanup_never_escalates(load_xml, mode):
    experiment = load_xml(f"""
<experiment>
 <targets>
   <target name="pair" type="group">
     <target name="n1" type="local" />
     <target name="n2" type="local" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="helper" on-error="{mode}"><run>flaky</run></tasklist>
   <tasklist name="tidy"><call ref="helper" /><run>echo tidied</run></tasklist>
   <tasklist name="work" cleanup="tidy"><run>true</run></tasklist>
 </tasklists>
 <steps><step tasklist="work" targets="pair" /></steps>
</experiment>
""")
    script = MockScript.from_json('{"nodes": {"n1": {"rules": [{"pattern": "flaky", "exit": 1}]}}}')
    report, events = dry_events(experiment, script)
    assert first_index(events, "Panic") == -1
    # the cleanup carries on after the failed call and reports it
    tidied = [e["node"] for e in events if e["kind"] == "TaskEnd" and e["tasklist"] == "tidy"]
    assert tidied == ["n1", "n2"]
    warnings = [(e["node"], e["detail"]) for e in events if e["kind"] == "Warning"]
    assert warnings == [("n1", "cleanup finished Failed")]
    assert events[first_index(events, "StepEnd")]["detail"] == "n1=Succeeded n2=Succeeded"
    assert report.overall is OverallStatus.COMPLETED


def test_teardown_resolving_to_zero_nodes_warns_and_ends_empty(load_xml):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
   <target name="beta" type="local" />
 </targets>
 <tasklists>
   <tasklist name="fin"><run>echo fin</run></tasklist>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <register-teardown ref="fin" targets="beta" />
   <step tasklist="work" targets="alpha" />
 </steps>
</experiment>
""")
    report, events = dry_events(experiment.with_node_filter(frozenset({"alpha"})))
    start = first_index(events, "TeardownStart")
    assert events[start]["detail"] == "targets=beta nodes=0"
    assert events[start + 1]["kind"] == "Warning"
    assert events[start + 1]["detail"] == "teardown resolves to zero nodes (targets=beta)"
    assert events[start + 2]["kind"] == "TeardownEnd"
    assert events[start + 2]["detail"] == ""
    assert report.per_node_outcomes == {"alpha|work#s0": "Succeeded"}
    assert report.overall is OverallStatus.COMPLETED


# --- environment, filters, reports ---


def test_env_exports_reach_real_commands(load_xml, tmp_path):
    out = tmp_path / "env.txt"
    experiment = load_xml(f"""
<experiment>
 <targets>
   <target name="ctl" type="local">
     <export-env var="ROLE" value="seed" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="work"><run>printf "%s" "$ROLE:$TOKEN" > {out}</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="ctl" />
 </steps>
</experiment>
""")
    experiment = experiment.with_env_overrides((("TOKEN", "xyz"),))
    clock = RealClock()
    report = run_experiment(experiment, make_transport_factory(clock), clock)
    assert report.overall is OverallStatus.COMPLETED
    assert out.read_text() == "seed:xyz"


def test_node_filter_limits_execution():
    experiment = load_fixture("nested_groups.xml").with_node_filter(frozenset({"e1"}))
    report, events = dry_events(experiment)
    nodes = {events[i]["node"] for i in all_indices(events, "TaskStart")}
    assert nodes == {"e1"}
    assert set(report.per_node_outcomes) == {"e1|probe#s0", "e1|probe#s1"}


def test_run_dir_receives_events_report_and_artifacts(load_xml, tmp_path):
    experiment = load_xml("""
<experiment>
 <targets>
   <target name="alpha" type="local" />
 </targets>
 <tasklists>
   <tasklist name="main" cleanup="mop">
     <run>echo hi</run>
     <get>testrun.pcap</get>
     <run>flaky</run>
   </tasklist>
   <tasklist name="mop"><run>echo cleaned</run></tasklist>
   <tasklist name="fin"><run>echo done</run></tasklist>
 </tasklists>
 <steps>
   <register-teardown ref="fin" targets="alpha" />
   <step tasklist="main" targets="alpha" />
 </steps>
</experiment>
""")
    script = MockScript.from_json(
        '{"nodes": {"alpha": {'
        '"rules": [{"pattern": "echo hi", "stdout": "hi"}, {"pattern": "flaky", "exit": 1}],'
        '"files": {"testrun.pcap": "packets"}}}}')
    run = tmp_path / "run"
    run.mkdir()
    report = dry_run(experiment, script, run_dir=run)

    assert (run / "alpha" / "stdout-0-0.log").read_bytes() == b"hi"
    assert (run / "alpha" / "testrun.pcap").read_bytes() == b"packets"
    assert (run / "alpha" / "stdout-0-2.log").exists()  # the failing run
    assert (run / "alpha" / "stdout-c0-0.log").exists()  # cleanup
    assert (run / "alpha" / "stdout-t0-0.log").exists()  # teardown
    assert "alpha/testrun.pcap" in report.artifacts
    assert "alpha/stdout-0-0.log" in report.artifacts

    lines = (run / "events.jsonl").read_text().splitlines()
    assert len(lines) == len(report.events)
    payload = json.loads((run / "report.json").read_text())
    assert payload["overall"] == "CompletedWithErrors"
    assert (run / "report.txt").read_text().startswith("overall: CompletedWithErrors")


def test_run_dir_is_created_on_demand(tmp_path):
    run = tmp_path / "deep" / "run"  # not created beforehand
    dry_run(load_fixture("par_seq_timing.xml"), fixture_script("timing.json"),
            run_dir=run)
    assert (run / "events.jsonl").is_file()
    assert (run / "report.json").is_file()


def test_experiment_end_detail_matches_overall():
    report, events = dry_events(load_fixture("abort_step.xml"),
                                fixture_script("abort_step.json"))
    end = first_index(events, "ExperimentEnd")
    assert events[end]["detail"] == report.overall.value
    assert end == len(events) - 1


def test_run_experiment_defaults_to_a_dry_run():
    report = run_experiment(load_fixture("par_seq_timing.xml"))
    assert report.overall is OverallStatus.COMPLETED
    assert report.per_node_outcomes == {
        "alpha|fanOut#s0": "Succeeded",
        "alpha|chain#s1": "Succeeded",
    }


def test_dry_runs_are_deterministic():
    experiment = load_fixture("nested_groups.xml")
    _, first = dry_events(experiment)
    _, second = dry_events(experiment)
    assert first == second


def test_unsafe_node_name_fails_the_node_and_writes_nothing_outside(tmp_path):
    """A leaf name that would leave the run directory takes the session
    failure path: a warning, the node Failed, and no file outside."""
    escape = TargetDef("pl:../../../escape", TargetKind.SSH, ssh_user="s", ssh_host="h")
    alpha = TargetDef("alpha", TargetKind.LOCAL)
    experiment = Experiment(
        targets=(TargetDef("fleet", TargetKind.GROUP, members=(escape, alpha)),),
        tasklists=(Tasklist("t", (RunTask("true"),)),),
        steps=StepsProgram((Step("t", "fleet"),)),
    )
    run = tmp_path / "a" / "b" / "run"
    report = dry_run(experiment, run_dir=run)

    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS
    assert report.per_node_outcomes == {
        "alpha|t#s0": "Succeeded",
        "pl:../../../escape|t#s0": "Failed",
    }
    warnings = [e for e in report.events if e.kind.value == "Warning"]
    assert [(w.node, w.detail.split(":")[0]) for w in warnings] == [(escape.name, "session")]
    written = [p for p in tmp_path.rglob("*") if p not in run.parents and p != run]
    assert all(p.is_relative_to(run) for p in written), written
    assert sorted(p.name for p in run.iterdir()) == [
        "alpha", "events.jsonl", "report.json", "report.txt",
    ]


def test_a_fetched_name_with_no_room_for_its_temporary_name_fails_the_get(tmp_path):
    """A 252-byte basename is a valid file name, but the fetch writes it
    through `<name>.part` first, 257 bytes: the get fails as one with an
    unusable remote name, not as a fault of the controller."""
    name = "r" * 252
    experiment = Experiment(
        targets=(TargetDef("alpha", TargetKind.LOCAL),),
        tasklists=(Tasklist("t", (GetTask(f"logs/{name}"),)),),
        steps=StepsProgram((Step("t", "alpha"),)),
    )
    run = tmp_path / "run"
    report = dry_run(experiment, run_dir=run)

    ends = [e.detail for e in report.events if e.kind.value == "TaskEnd"]
    assert ends == [f"Failed get=logs/{name}"]
    assert report.per_node_outcomes == {"alpha|t#s0": "Failed"}
    assert [e for e in report.events if e.kind.value == "Warning"] == []
    assert list((run / "alpha").iterdir()) == []


def test_slice_leaf_name_too_long_for_a_directory_fails_the_node(tmp_path):
    """A slice leaf is named `<target>:<hostname>`; each part may be valid
    while the whole is longer than 255 bytes. With a run directory the pool
    refuses it on the session failure path; without one it runs."""
    from gplmt.planetlab import SliceNodeRecord, expand_planetlab_target

    slice_target = TargetDef(
        "p" * 200, TargetKind.PLANETLAB,
        planetlab_api_url="https://api.example/", planetlab_slice="s", planetlab_user="u",
    )
    hostname = "h" * 60 + ".example.org"
    fleet = expand_planetlab_target(slice_target, [SliceNodeRecord(hostname, "boot", 1)])
    (leaf,) = fleet.members
    assert len(leaf.name.encode()) == 273
    alpha = TargetDef("alpha", TargetKind.LOCAL)
    experiment = Experiment(
        targets=(TargetDef("all", TargetKind.GROUP, members=(fleet, alpha)),),
        tasklists=(Tasklist("t", (RunTask("true"),)),),
        steps=StepsProgram((Step("t", "all"),)),
    )
    assert dry_run(experiment).overall is OverallStatus.COMPLETED

    run = tmp_path / "run"
    report = dry_run(experiment, run_dir=run)
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS
    assert report.per_node_outcomes == {f"{leaf.name}|t#s0": "Failed", "alpha|t#s0": "Succeeded"}
    warnings = [e for e in report.events if e.kind.value == "Warning"]
    assert [(w.node, w.detail.split(":")[0]) for w in warnings] == [(leaf.name, "session")]
    assert not any(e.kind.value == "ConnectAttempt" and e.node == leaf.name for e in report.events)
    assert sorted(p.name for p in run.iterdir()) == [
        "alpha", "events.jsonl", "report.json", "report.txt",
    ]


def test_controller_fault_fails_the_node_and_is_logged(tmp_path):
    """A file where n1's artifact directory belongs makes the controller's
    own mkdir fail inside the exec. The task ends Failed with a TaskEnd
    naming the exception, the node fails, its node lock is released (the
    teardown on n1 still runs), and its sibling is untouched."""
    n1, n2 = TargetDef("n1", TargetKind.LOCAL), TargetDef("n2", TargetKind.LOCAL)
    experiment = Experiment(
        targets=(TargetDef("pair", TargetKind.GROUP, members=(n1, n2)),),
        tasklists=(Tasklist("t", (RunTask("true"),)), Tasklist("fin", (RunTask("true"),))),
        steps=StepsProgram((RegisterTeardown("fin", "n1"), Step("t", "pair"))),
    )
    run = tmp_path / "run"
    run.mkdir()
    (run / "n1").write_text("in the way")
    report = dry_run(experiment, run_dir=run)

    assert report.per_node_outcomes == {
        "n1|t#s0": "Failed",
        "n2|t#s0": "Succeeded",
        "n1|fin#t0": "Failed",
    }
    assert [e for e in report.events if e.kind.value == "Warning"] == []
    ends = [(e.tasklist, e.detail) for e in report.events if e.kind.value == "TaskEnd" and e.node == "n1"]
    assert [(tasklist, detail.split(":")[:2]) for tasklist, detail in ends] == [
        ("t", ["Failed controller", " FileExistsError"]),
        ("fin", ["Failed controller", " FileExistsError"]),
    ]
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def _faulting_tasklist_run(tmp_path, on_error):
    """Tasklist a, b with cleanup c on n1 and n2, and a file where n1's
    artifact directory belongs, so every exec on n1 faults in the controller."""
    n1, n2 = TargetDef("n1", TargetKind.LOCAL), TargetDef("n2", TargetKind.LOCAL)
    experiment = Experiment(
        targets=(TargetDef("pair", TargetKind.GROUP, members=(n1, n2)),),
        tasklists=(
            Tasklist("t", (RunTask("a"), RunTask("b")), on_error=on_error, cleanup="c"),
            Tasklist("c", (RunTask("c"),)),
        ),
        steps=StepsProgram((Step("t", "pair"),)),
    )
    script = MockScript.from_json(json.dumps({"nodes": {"*": {"rules": [{"pattern": "*", "duration": 1}]}}}))
    run = tmp_path / "run"
    run.mkdir()
    (run / "n1").write_text("in the way")
    return dry_run(experiment, script, run_dir=run)


def _node_timeline(events, node):
    return [
        (e.kind.value, e.tasklist, e.detail.split(":")[0])
        for e in events
        if e.node == node and e.kind.value in ("TaskStart", "TaskEnd", "Warning", "Panic")
    ]


def test_controller_fault_fails_the_task_under_abort_tasklist_and_the_cleanup_runs(tmp_path):
    report = _faulting_tasklist_run(tmp_path, ErrorMode.ABORT_TASKLIST)
    assert _node_timeline(report.events, "n1") == [
        ("TaskStart", "t", "run a"),
        ("TaskEnd", "t", "Failed controller"),
        ("TaskStart", "c", "run c"),
        ("TaskEnd", "c", "Failed controller"),
        ("Warning", "c", "cleanup finished Failed"),
    ]
    assert [d for k, _, d in _node_timeline(report.events, "n2") if k == "TaskStart"] == [
        "run a", "run b", "run c",
    ]
    assert report.per_node_outcomes == {"n1|t#s0": "Failed", "n2|t#s0": "Succeeded"}
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def test_controller_fault_under_panic_panics(tmp_path):
    report = _faulting_tasklist_run(tmp_path, ErrorMode.PANIC)
    assert _node_timeline(report.events, "n1") == [
        ("TaskStart", "t", "run a"),
        ("TaskEnd", "t", "Failed controller"),
        ("Panic", "t", "on-error=panic"),
    ]
    assert report.per_node_outcomes == {"n1|t#s0": "Failed", "n2|t#s0": "Aborted"}
    assert report.overall is OverallStatus.PANICKED


@pytest.mark.parametrize("fault", ["controller", "exit"])
def test_only_a_controller_fault_in_a_cleanup_fails_the_node(tmp_path, fault):
    """n1 runs t = <run>a</run> with cleanup c, and a succeeds. When c's
    first artifact write (the run's third) raises ENOSPC, the controller
    faulted: the node fails and the run ends with errors. When c merely
    exits non-zero, that stays a Warning and the node keeps its state."""
    experiment = Experiment(
        targets=(TargetDef("n1", TargetKind.LOCAL),),
        tasklists=(Tasklist("t", (RunTask("a"),), cleanup="c"), Tasklist("c", (RunTask("c"),))),
        steps=StepsProgram((Step("t", "n1"),)),
    )
    rule = {"pattern": "c", "exit": 1 if fault == "exit" else 0}
    script = MockScript.from_json(json.dumps({"nodes": {"*": {"rules": [rule]}}}))
    real_write_bytes = Path.write_bytes
    writes = itertools.count()

    def write_bytes(path, data):
        if next(writes) == 2 and fault == "controller":
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write_bytes(path, data)

    with mock.patch.object(Path, "write_bytes", write_bytes):
        report = dry_run(experiment, script, run_dir=tmp_path / "run")

    cleanup_end = next(e for e in report.events if e.kind.value == "TaskEnd" and e.tasklist == "c")
    warnings = [e.detail for e in report.events if e.kind.value == "Warning"]
    assert warnings == ["cleanup finished Failed"]
    if fault == "controller":
        assert cleanup_end.detail == "Failed controller: OSError: [Errno 28] No space left on device"
        assert report.per_node_outcomes == {"n1|t#s0": "Failed"}
        assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS
    else:
        assert cleanup_end.detail.startswith("Failed exit=1 ")
        assert report.per_node_outcomes == {"n1|t#s0": "Succeeded"}
        assert report.overall is OverallStatus.COMPLETED


def test_a_controller_fault_in_a_cleanup_leaves_an_aborted_node_aborted(tmp_path):
    """n1's failure under abort-step cancels n2 in the middle of its command;
    n2's cleanup then faults in the controller. n2 stays Aborted, the state
    that accounts for its unfinished command, and the run ends with errors."""
    n1, n2 = TargetDef("n1", TargetKind.LOCAL), TargetDef("n2", TargetKind.LOCAL)
    experiment = Experiment(
        targets=(TargetDef("pair", TargetKind.GROUP, members=(n1, n2)),),
        tasklists=(
            Tasklist("t", (RunTask("a"),), on_error=ErrorMode.ABORT_STEP, cleanup="c"),
            Tasklist("c", (RunTask("c"),)),
        ),
        steps=StepsProgram((Step("t", "pair"),)),
    )
    script = MockScript.from_json(json.dumps({"nodes": {
        "n1": {"rules": [{"pattern": "a", "exit": 1, "duration": 1}]},
        "n2": {"rules": [{"pattern": "a", "duration": 5}]},
    }}))
    real_write_bytes = Path.write_bytes

    def write_bytes(path, data):
        if path.parent.name == "n2" and path.name.startswith("stdout-c"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write_bytes(path, data)

    with mock.patch.object(Path, "write_bytes", write_bytes):
        report = dry_run(experiment, script, run_dir=tmp_path / "run")

    faulted = [e for e in report.events if e.kind.value == "TaskEnd" and "controller:" in e.detail]
    assert [(e.node, e.tasklist) for e in faulted] == [("n2", "c")]
    assert report.per_node_outcomes == {"n1|t#s0": "Failed", "n2|t#s0": "Aborted"}
    assert report.overall is OverallStatus.COMPLETED_WITH_ERRORS


def _traced_peak_of_parked_fanout(nodes: int) -> int:
    leaves = tuple(
        TargetDef(f"n{i:04d}", TargetKind.SSH, ssh_user="u", ssh_host=f"n{i:04d}.example")
        for i in range(nodes)
    )
    experiment = Experiment(
        targets=(TargetDef("fleet", TargetKind.GROUP, members=leaves),),
        tasklists=(Tasklist("t", (RunTask("true"),)),),
        steps=StepsProgram((Step("t", "fleet"),)),
    )
    gc.collect()
    tracemalloc.start()
    try:
        report = dry_run(experiment, limiter_config=RateLimiterConfig(1, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.overall is OverallStatus.COMPLETED
    return peak


@pytest.mark.skipif(
    sys.flags.dev_mode or bool(os.environ.get("PYTHONASYNCIODEBUG")),
    reason="asyncio debug mode keeps a creation traceback per task and handle",
)
def test_memory_per_node_parked_on_the_rate_limiter():
    """While one node per second connects, nearly every other node of the
    fan-out waits for a permit, so the traced peak grows with the number
    of parked nodes. Measured on CPython 3.11: 2,182-2,313 B per parked
    node since a node builds its session only after its permit, against
    2,815-2,947 B before that and 4,639-4,742 B before the waiting path was
    first slimmed down. The bound keeps the earlier headroom of about 19%."""
    per_node = (_traced_peak_of_parked_fanout(1000) - _traced_peak_of_parked_fanout(500)) / 500
    assert per_node < 2750


def _coroutine_frames(task: asyncio.Task) -> list[str]:
    # Task.get_stack() shows only the outermost frame of a suspended task;
    # the coroutines it awaits hang off cr_await.
    names, coro = [], task.get_coro()
    while hasattr(coro, "cr_frame"):
        names.append(coro.cr_code.co_name)
        coro = coro.cr_await
    return names


def test_a_parked_node_holds_four_coroutine_frames():
    """A node waiting for a connect permit is suspended in execute_tasklist,
    SessionPool.acquire, RateLimiter.wait and the limiter's lock or sleep."""
    parked: list[list[str]] = []

    class ParkedFrames(EventLog):
        def record(self, event):
            super().record(event)
            if event.kind.value == "ConnectAttempt" and event.node == "n1":
                current = asyncio.current_task()
                parked.extend(
                    _coroutine_frames(task) for task in asyncio.all_tasks()
                    if task is not current and task.get_coro().__name__ == "execute_tasklist"
                )

    leaves = tuple(
        TargetDef(f"n{i}", TargetKind.SSH, ssh_user="u", ssh_host=f"n{i}.example")
        for i in range(5)
    )
    experiment = Experiment(
        targets=(TargetDef("fleet", TargetKind.GROUP, members=leaves),),
        tasklists=(Tasklist("t", (RunTask("true"),)),),
        steps=StepsProgram((Step("t", "fleet"),)),
    )
    report = dry_run(experiment, limiter_config=RateLimiterConfig(1, 1.0), event_log=ParkedFrames())
    assert report.overall is OverallStatus.COMPLETED
    assert len(parked) == 3  # n2, n3 and n4 wait while n1 connects
    assert max(len(frames) for frames in parked) <= 4, parked


def test_a_failing_transport_factory_costs_no_connect_permit():
    """The transport is built before the rate limiter is asked, so a node
    whose transport cannot be built leaves the first permit to the next."""
    leaves = tuple(
        TargetDef(name, TargetKind.SSH, ssh_user="u", ssh_host=f"{name}.example")
        for name in ("n1", "n2")
    )
    experiment = Experiment(
        targets=(TargetDef("fleet", TargetKind.GROUP, members=leaves),),
        tasklists=(Tasklist("t", (RunTask("true"),)),),
        steps=StepsProgram((Step("t", "fleet"),)),
    )
    clock = VirtualClock()
    mock_factory = make_transport_factory(clock, force_mock=True)

    def factory(target):
        if target.name == "n1":
            raise ValueError("no transport for n1")
        return mock_factory(target)

    log = EventLog()
    report = run_experiment(experiment, factory, clock, RateLimiterConfig(1, 1.0), log)
    assert report.per_node_outcomes == {"n1|t#s0": "Failed", "n2|t#s0": "Succeeded"}
    warnings = [(e.node, e.detail) for e in log.events if e.kind.value == "Warning"]
    assert warnings == [("n1", "session: no transport for n1")]
    attempts = [(e.node, e.timestamp) for e in log.events if e.kind.value == "ConnectAttempt"]
    assert attempts == [("n2", 0.0)]


def test_a_finished_run_frees_its_transports_without_the_collector(monkeypatch):
    """Sessions point back at the pool, which the runner holds in a cycle;
    closing the pool must let refcounting free them as the run returns."""
    import weakref

    from gplmt import transport

    class WeakMockTransport(transport.MockTransport):
        __slots__ = ("__weakref__",)

    built = []

    def record(*args):
        node = WeakMockTransport(*args)
        built.append(weakref.ref(node))
        return node

    monkeypatch.setattr(transport, "MockTransport", record)
    leaves = tuple(
        TargetDef(name, TargetKind.SSH, ssh_user="u", ssh_host=f"{name}.example")
        for name in ("n1", "n2")
    )
    experiment = Experiment(
        targets=(TargetDef("fleet", TargetKind.GROUP, members=leaves),),
        tasklists=(Tasklist("t", (RunTask("true"),)),),
        steps=StepsProgram((Step("t", "fleet"),)),
    )
    gc.collect()
    gc.disable()
    try:
        report = dry_run(experiment)
        assert report.overall.value == "Completed"
        assert len(built) == 2
        assert [ref() for ref in built] == [None, None]
    finally:
        gc.enable()
