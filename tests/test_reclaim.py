"""A finished run frees what it built by reference counting alone.

Each run below goes with the cyclic collector off. Once it returns and
the caller has dropped its report and log, its ExperimentRunner must be
dead and no ExecutionEvent may be left. One explicit collection then
gathers the cyclic garbage the run made: only the standard library's own
may remain, an argparse parser that cli.main builds and the encoder that
json.dumps(indent=...) builds in write_report.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import types

import pytest

from gplmt import cli
from gplmt.model import (
    Experiment,
    RelativeTime,
    RunTask,
    Step,
    StepsProgram,
    TargetDef,
    TargetKind,
    Tasklist,
)
from gplmt.planetlab import SliceNodeRecord, expand_experiment
from gplmt.scheduler import dry_run, run_experiment
from gplmt.telemetry import EventLog, ExecutionEvent
from gplmt.transport import MockScript, RateLimiterConfig, make_transport_factory

from .conftest import without_collector
from .differential import random_experiment
from .test_acceptance import FIXTURE_SCRIPTS, FIXTURES, load_fixture, script_for
from .test_golden_generated import SEEDS

STDLIB_OWNERS = ("argparse", "json.encoder")


def _events_alive() -> int:
    return sum(type(o) is ExecutionEvent for o in gc.get_objects())


def _owned_by_stdlib(o) -> bool:
    if isinstance(o, argparse.ArgumentParser):  # cli's subclass lives in gplmt.cli
        return True
    if isinstance(o, (types.FunctionType, types.MethodType)):
        return getattr(o, "__module__", None) in STDLIB_OWNERS
    return type(o).__module__ in STDLIB_OWNERS


def leftover_after(run) -> list[str]:
    """Call `run()` with the collector off and check that it freed its
    runner and every event. Returns the type names of the cyclic garbage
    it left that no argparse or json object holds."""
    gc.collect()  # the garbage of earlier tests is not this run's
    with without_collector() as runners:
        before = _events_alive()
        run()
        assert runners, "no run was made"
        assert [ref() for ref in runners] == [None] * len(runners), "a runner outlived its run"
        assert _events_alive() == before
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
        finally:
            gc.set_debug(0)
        garbage, gc.garbage[:] = list(gc.garbage), []
    members = {id(o) for o in garbage}
    reached = set()
    stack = [o for o in garbage if _owned_by_stdlib(o)]
    while stack:
        o = stack.pop()
        if id(o) in reached:
            continue
        reached.add(id(o))
        stack.extend(r for r in gc.get_referents(o) if id(r) in members)
    return sorted(type(o).__name__ for o in garbage if id(o) not in reached)


@pytest.mark.parametrize("limit", [None, RateLimiterConfig(10, 1.0)], ids=["unlimited", "10-per-1s"])
@pytest.mark.parametrize("name", sorted(FIXTURE_SCRIPTS))
def test_a_fixture_run_frees_what_it_built(name, limit, tmp_path):
    def run():
        dry_run(load_fixture(name), script_for(name), limiter_config=limit, run_dir=tmp_path)

    assert leftover_after(run) == []


FANOUT_DOC = """
<experiment>
 <targets>
  <target name="all" type="group">
   <target name="fleet" type="group">
    <export-env var="ROLE" value="probe" />
    {sites}
   </target>
   <target name="testbed" type="planetlab" api-url="https://plc.example.org/PLCAPI/"
           slice="s" user="u@example.org"><password>p</password></target>
  </target>
 </targets>
 <tasklists>
  <tasklist name="probe" timeout="PT5M"><run>uname -a</run><run>cat /proc/loadavg</run></tasklist>
 </tasklists>
 <steps><step tasklist="probe" targets="all" /></steps>
</experiment>
"""


def test_a_fanout_run_frees_what_it_built(load_xml):
    """fanout_5k's shape at a twentieth of its size: nested site and rack
    groups, a slice expanded from an in-memory answer, unavailable nodes,
    a rate limiter and an in-memory log."""
    sites = "".join(
        f'<target name="site{s}" type="group">' + "".join(
            f'<target name="site{s}-rack{r}" type="group">' + "".join(
                f'<target name="n{s}{r}{k}" type="ssh"><user>u</user><host>n{s}{r}{k}.example</host></target>'
                for k in range(10)
            ) + "</target>"
            for r in range(5)
        ) + "</target>"
        for s in range(3)
    )
    experiment = load_xml(FANOUT_DOC.format(sites=sites))
    records = [SliceNodeRecord(f"p{i}.example.edu", "boot", i) for i in range(100)]
    records += [SliceNodeRecord("p1.example.edu", "boot", 101), SliceNodeRecord("d.example.edu", "dbg", 102)]
    script = MockScript.from_json(json.dumps({"nodes": {
        "*": {"rules": [{"pattern": "uname -a", "duration": 0.3}, {"pattern": "cat *", "duration": 0.1}]},
        "n000": {"available": False},
        "testbed:p7.example.edu": {"available": False},
    }}))

    def run():
        expanded = expand_experiment(experiment, fetch=lambda *_: list(records))
        log = EventLog()
        report = dry_run(expanded, script, limiter_config=RateLimiterConfig(10, 1.0), event_log=log)
        assert len(report.per_node_outcomes) == 250
        assert len(log.events) > 1000

    assert leftover_after(run) == []


def test_the_cli_frees_what_it_built(tmp_path):
    argv = [str(FIXTURES / "panic_teardown.xml"), "--dry-run",
            "--mock-script", str(FIXTURES / "scripts" / "panic.json"), "--log-dir", str(tmp_path)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == cli.EXIT_PANIC

    assert leftover_after(run) == []


def test_a_real_clock_run_frees_what_it_built(tmp_path):
    """Local children on the real clock: commands that succeed, fail and
    time out, and a node whose name cannot name its artifact directory,
    which fails its session inside a stop time's timeout scope."""
    nodes = tuple(TargetDef(name, TargetKind.LOCAL) for name in ("a", "b", "../escape"))
    experiment = Experiment(
        targets=(TargetDef("pair", TargetKind.GROUP, members=nodes[:2]), *nodes),
        tasklists=(
            Tasklist("work", (RunTask("true"), RunTask("false")), timeout=5.0),
            Tasklist("slow", (RunTask("sleep 5"),), timeout=0.2),
        ),
        steps=StepsProgram((
            Step("work", "pair"),
            Step("slow", "a"),
            Step("work", "../escape", stop=RelativeTime(30.0)),
        )),
    )

    def run():
        report = run_experiment(experiment, make_transport_factory(), real_time=True, run_dir=tmp_path)
        assert report.per_node_outcomes == {
            "a|work#s0": "Failed", "b|work#s0": "Failed", "a|slow#s1": "Failed",
            "../escape|work#s2": "Failed",
        }

    assert leftover_after(run) == []


def test_no_corpus_seed_leaves_its_runner_alive(tmp_path):
    alive = []
    for seed in SEEDS:
        experiment, script, limit = random_experiment(random.Random(seed))
        with without_collector() as runners:
            dry_run(experiment, script, limiter_config=limit, run_dir=tmp_path / str(seed))
            if runners[0]() is not None:
                alive.append(seed)
    assert alive == []
