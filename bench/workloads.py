"""How each workload drives gplmt, and what one repetition measures.

Every call into gplmt goes through a module attribute (`parser.load_experiment`,
`scheduler.dry_run`, ...) so that the traced run's wrappers see it.
"""
from __future__ import annotations

import contextlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from gplmt import cli, parser, planetlab, scheduler, telemetry, transport
from gplmt.planetlab import SliceNodeRecord

import checks
from generate import Workload

# The exit code `gplmt` returns for each overall status.
_EXIT_CODES = {"Completed": 0, "CompletedWithErrors": 2, "Panicked": 3}


@dataclass
class Rep:
    """One repetition: host timings plus everything the checks look at."""

    setup_s: float
    run_s: float
    wall_s: float
    events: list[tuple]
    outcomes: dict[str, str]
    overall: str
    run_dir: Path | None = None
    container: Path | None = None
    artifacts: tuple[str, ...] = ()
    events_sha256: str | None = None
    exit_code: int | None = None
    problems: list[str] = field(default_factory=list)


def _event_tuple(event: telemetry.ExecutionEvent) -> tuple:
    return (event.timestamp, event.kind.value, event.node, event.step_index,
            event.tasklist, event.task_path, event.detail)


def _record_tuple(record: dict) -> tuple:
    path = record.get("path")
    return (record["ts"], record["kind"], record.get("node"), record.get("step"),
            record.get("tasklist"), tuple(path) if path is not None else None,
            record.get("detail", ""))


class Runner:
    """Base: writes the generated inputs once, then runs repetitions."""

    virtual = True

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.xml_path = work / "experiment.xml"
        self.script_path = work / "mock-script.json"

    def prepare(self) -> None:
        self.xml_path.write_text(self.workload.experiment_xml, encoding="utf-8")
        self.script_path.write_text(self.workload.mock_script_json(), encoding="utf-8")

    def rep(self, rep_dir: Path, scope=contextlib.nullcontext) -> Rep:
        """Run once; `scope()` encloses exactly the timed region."""
        raise NotImplementedError

    def _load(self, fetch):
        experiment, diagnostics = parser.load_experiment(self.xml_path)
        if experiment is None:
            raise RuntimeError("generated document rejected: " + "; ".join(map(str, diagnostics)))
        experiment = planetlab.expand_experiment(experiment, fetch=fetch)
        return cli.filter_targets(experiment, [])


class FanoutRunner(Runner):
    """fanout_5k: library dry run, in-memory event log, no run directory."""

    def prepare(self) -> None:
        super().prepare()
        records = [SliceNodeRecord(*record) for record in self.workload.slice_records]
        # Stands in for the slice API: answers from memory, so expansion
        # time is gplmt's own.
        self.fetch = lambda api_url, user, credential, slice_name: list(records)

    def rep(self, rep_dir: Path, scope=contextlib.nullcontext) -> Rep:
        with scope():
            started = time.perf_counter()
            experiment = self._load(self.fetch)
            script = transport.MockScript.from_file(self.script_path)
            log = telemetry.EventLog()
            limit = transport.RateLimiterConfig(*self.workload.limit)
            engine = time.perf_counter()
            report = scheduler.dry_run(experiment, script, limiter_config=limit, event_log=log)
            finished = time.perf_counter()
        return Rep(
            setup_s=engine - started,
            run_s=finished - engine,
            wall_s=finished - started,
            events=[_event_tuple(e) for e in log.events],
            outcomes=dict(report.per_node_outcomes),
            overall=report.overall.value,
        )


class CliRunner(Runner):
    """deep_2k_rundir: `gplmt EXP.xml --dry-run --mock-script S.json
    --log-dir D`, called in-process through cli.main, stdout to a file."""

    mode: tuple[str, ...] = ("--dry-run",)

    def rep(self, rep_dir: Path, scope=contextlib.nullcontext) -> Rep:
        container = rep_dir / "logs"
        argv = [str(self.xml_path), *self.mode, "--mock-script", str(self.script_path),
                "--log-dir", str(container)]
        engine_span: list[float] = []
        with open(rep_dir / "stdout.txt", "w", encoding="utf-8") as out, \
                open(rep_dir / "stderr.txt", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                scope():
            # Engine entry and exit split cli.main into set-up and run.
            inner = cli.run_experiment

            def timed_engine(*args, **kwargs):
                engine_span.append(time.perf_counter())
                try:
                    return inner(*args, **kwargs)
                finally:
                    engine_span.append(time.perf_counter())

            cli.run_experiment = timed_engine
            try:
                started = time.perf_counter()
                exit_code = cli.main(argv)
                finished = time.perf_counter()
            finally:
                cli.run_experiment = inner
        if len(engine_span) != 2:
            raise RuntimeError(f"gplmt exited {exit_code} before the engine ran")

        entries = list(container.iterdir())
        run_dir = next(p for p in entries if p.is_dir())
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        events_path = run_dir / "events.jsonl"
        with open(events_path, encoding="utf-8") as handle:
            events = [_record_tuple(json.loads(line)) for line in handle if line.strip()]
        problems = []
        if report["events"] != len(events):
            problems.append(f"report.json counts {report['events']} events, the log holds {len(events)}")
        return Rep(
            setup_s=engine_span[0] - started,
            run_s=engine_span[1] - engine_span[0],
            wall_s=finished - started,
            events=events,
            outcomes=report["per_node_outcomes"],
            overall=report["overall"],
            run_dir=run_dir,
            container=container,
            artifacts=tuple(report["artifacts"]),
            events_sha256=checks.file_sha256(events_path),
            exit_code=exit_code,
            problems=problems,
        )


class RealClockRunner(CliRunner):
    """deep_500_realclock: `gplmt EXP.xml --mock-script S.json --log-dir D`,
    which runs run_experiment on RealClock against the forced mock
    transport; a virtual run of the same inputs is the ideal schedule."""

    virtual = False
    mode = ()

    def prepare(self) -> None:
        super().prepare()
        experiment = self._load(None)
        script = transport.MockScript.from_file(self.script_path)
        log = telemetry.EventLog()
        # With a run directory, as in the measured runs: without one every
        # <get> fails by design.
        ideal_dir = self.work / "ideal"
        report = scheduler.dry_run(experiment, script, event_log=log, run_dir=ideal_dir)
        remove(ideal_dir)
        self.ideal = [_event_tuple(e) for e in log.events]
        self.ideal_kinds = checks.fingerprint(self.ideal)["kinds"]
        self.ideal_outcomes = dict(report.per_node_outcomes)
        self.ideal_overall = report.overall.value


RUNNERS = {
    "fanout_5k": FanoutRunner,
    "deep_2k_rundir": CliRunner,
    "deep_500_realclock": RealClockRunner,
}


def check_rep(runner: Runner, rep: Rep, reference: dict | None) -> tuple[int, list[str], dict]:
    """Check one repetition; returns (failed node executions, problems,
    fingerprint). A problem with the run as a whole fails every execution."""
    workload = runner.workload
    problems = list(rep.problems)
    failed = checks.outcome_mismatches(rep.outcomes, workload.expected_outcomes)
    if rep.overall != workload.expected_overall:
        problems.append(f"overall {rep.overall}, expected {workload.expected_overall}")
    if rep.exit_code is not None and rep.exit_code != _EXIT_CODES[workload.expected_overall]:
        problems.append(f"exit code {rep.exit_code}")
    if rep.run_dir is not None:
        problems += checks.artifact_problems(rep.run_dir, rep.artifacts, rep.container)

    seen = checks.fingerprint(rep.events)
    if rep.events_sha256 is not None:
        seen["sha256"] = rep.events_sha256
    expected = reference
    if not runner.virtual:
        # Real-clock timestamps differ run to run; event counts may not.
        seen = {"kinds": seen["kinds"]}
        expected = {"kinds": runner.ideal_kinds}
    if expected is not None and seen != expected:
        problems.append(f"not deterministic: {seen} differs from {expected}")
    if problems:
        failed = len(workload.expected_outcomes)
    return failed, problems, seen


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
