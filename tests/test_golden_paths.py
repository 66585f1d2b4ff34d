"""Golden digests of one experiment that walks the engine's less travelled
paths, which no bundled fixture combines: `<seq>`, `<par>`, a `<call>`
whose callee has its own cleanup, a `<get>`, a tasklist timeout, a failing
command, a connection lost mid-command whose reconnects all fail, a
tasklist cleanup and a teardown, on five ssh nodes behind a 2 connects/1 s
limiter.

A change that alters this output on purpose regenerates the digests with

    PYTHONPATH=src python -m tests.test_golden_paths
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from gplmt.parser import load_experiment
from gplmt.scheduler import dry_run, run_experiment
from gplmt.telemetry import EventKind, ExecutionEvent
from gplmt.transport import MockScript, RateLimiterConfig, make_transport_factory

REPORT_FILES = ("events.jsonl", "report.json", "report.txt")

EXPERIMENT = """<?xml version="1.0" encoding="utf-8" ?>
<experiment>
 <targets>
   <target name="fleet" type="group">
     <target name="n1" type="ssh"><user>u</user><host>n1.example</host></target>
     <target name="n2" type="ssh"><user>u</user><host>n2.example</host></target>
     <target name="n3" type="ssh"><user>u</user><host>n3.example</host></target>
     <target name="n4" type="ssh"><user>u</user><host>n4.example</host></target>
     <target name="n5" type="ssh"><user>u</user><host>n5.example</host></target>
   </target>
 </targets>
 <tasklists>
   <tasklist name="main" timeout="PT20S" cleanup="mop">
     <seq>
       <run>prepare</run>
       <par>
         <run>probe a</run>
         <run>probe b</run>
       </par>
     </seq>
     <call ref="helper" />
     <get>result.txt</get>
     <run>long job</run>
   </tasklist>
   <tasklist name="helper" cleanup="helperClean">
     <run>helper step</run>
   </tasklist>
   <tasklist name="helperClean">
     <run>helper clean</run>
   </tasklist>
   <tasklist name="mop">
     <run>mop up</run>
   </tasklist>
   <tasklist name="fin">
     <run>finish</run>
   </tasklist>
 </tasklists>
 <steps>
   <register-teardown ref="fin" targets="fleet" />
   <step tasklist="main" targets="fleet" />
 </steps>
</experiment>
"""

# n1 succeeds throughout; n2's callee fails, so the callee's cleanup runs;
# n3's probe b fails; n4's long job outlives the tasklist timeout; n5 loses
# its connection during prepare and every reconnect fails.
SCRIPT = {
    "nodes": {
        "*": {
            "rules": [
                {"pattern": "prepare", "duration": 2},
                {"pattern": "probe *", "duration": 1, "stdout": "probed"},
                {"pattern": "long job", "duration": 5},
                {"pattern": "*", "duration": 0.5},
            ],
            "files": {"result.txt": "42\n"},
        },
        "n2": {"rules": [
            {"pattern": "helper step", "exit": 3, "stderr": "helper broke"},
            {"pattern": "*", "duration": 1},
        ]},
        "n3": {"rules": [{"pattern": "probe b", "exit": 1}, {"pattern": "*", "duration": 1}]},
        "n4": {"rules": [{"pattern": "long job", "duration": 60}, {"pattern": "*", "duration": 1}]},
        "n5": {
            "rules": [{"pattern": "prepare", "duration": 10}, {"pattern": "*", "duration": 1}],
            "lose_connection_at": [4.0],
            "connect_failures": 99,
        },
    },
}

LIMIT = RateLimiterConfig(2, 1.0)

GOLDEN = {
    "events.jsonl": "ad15775955a07ba43eea94bd09e5a4395fe275c3e74c1fb727e272ca64ace063",
    "report.json": "e57d2033519f5ef09c1be98f66fe98e2033c357b3fd941d91e84dbbe437ee404",
    "report.txt": "6f072b934b14f9834f5282aed554a3979dfe52eed2bc7c8407c4bb1ba825a72e",
}


def load_paths_experiment(tmp_path: Path):
    path = tmp_path / "paths.xml"
    path.write_text(EXPERIMENT, encoding="utf-8")
    experiment, diagnostics = load_experiment(path)
    assert experiment is not None, [str(d) for d in diagnostics]
    return experiment


def digests(tmp_path: Path) -> dict[str, str]:
    run_dir = tmp_path / "run"
    script = MockScript.from_json(json.dumps(SCRIPT))
    dry_run(load_paths_experiment(tmp_path), script, limiter_config=LIMIT, run_dir=run_dir)
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in REPORT_FILES
    }


def test_paths_output_matches_golden_digests(tmp_path):
    assert digests(tmp_path) == GOLDEN


def test_one_transport_factory_serves_two_runs(tmp_path):
    """A factory holds no clock: reused for two run_experiment calls, each
    on a fresh loop of its own, it gives a dry run's log both times."""
    experiment = load_paths_experiment(tmp_path)
    script = MockScript.from_json(json.dumps(SCRIPT))
    expected = [e.to_json_line() for e in dry_run(experiment, script, limiter_config=LIMIT).events]
    assert json.loads(expected[-1])["ts"] > 30
    factory = make_transport_factory(script)
    for _ in range(2):
        report = run_experiment(experiment, factory, limiter_config=LIMIT)
        assert [e.to_json_line() for e in report.events] == expected
    assert all(
        type(e) is ExecutionEvent and type(e.kind) is EventKind for e in report.events
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        print("GOLDEN =", json.dumps(digests(Path(scratch)), indent=4))
