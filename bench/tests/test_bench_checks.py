"""Lag pairing, output checks and generator determinism."""
from gplmt.parser import load_experiment
from gplmt.planetlab import SliceNodeRecord, expand_experiment
from gplmt.scheduler import dry_run
from gplmt.telemetry import EventLog
from gplmt.transport import MockScript, RateLimiterConfig

import checks
import generate


def start(ts, node, path, step=0, tasklist="job"):
    return (ts, "TaskStart", node, step, tasklist, path, "run x")


def test_lag_pairing_on_hand_built_events():
    virtual = [
        (0.0, "ExperimentStart", None, None, None, None, ""),
        start(0.0, "n0001", (0,)),
        start(0.0, "n0002", (0,)),
        start(1.5, "n0001", (1, 0)),
        start(2.0, "n0001", (0,), step=None, tasklist="teardown"),
        start(3.0, "n0003", (0,)),  # never starts in the real run
    ]
    real = [
        (0.001, "ExperimentStart", None, None, None, None, ""),
        start(0.010, "n0002", (0,)),  # order differs from the virtual run
        start(0.020, "n0001", (0,)),
        (0.5, "TaskEnd", "n0001", 0, "job", (0,), "Success exit=0"),
        start(1.75, "n0001", (1, 0)),
        start(2.25, "n0001", (0,), step=None, tasklist="teardown"),
        start(2.5, "n0009", (0,)),  # has no virtual twin
    ]
    lags, unmatched = checks.pair_lags(real, virtual)
    assert lags == [0.010, 0.020, 0.25, 0.25]
    assert unmatched == 2


def test_repeated_keys_pair_in_order_of_occurrence():
    virtual = [start(1.0, "a", (0,)), start(5.0, "a", (0,))]
    real = [start(1.5, "a", (0,)), start(5.25, "a", (0,)), start(9.0, "a", (0,))]
    lags, unmatched = checks.pair_lags(real, virtual)
    assert lags == [0.5, 0.25]
    assert unmatched == 1


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert checks.percentile(values, 0.50) == 50.0
    assert checks.percentile(values, 0.99) == 99.0
    assert checks.percentile([7.0], 0.99) == 7.0


def test_outcome_mismatches_count_missing_and_extra():
    expected = {"a|job#s0": "Succeeded", "b|job#s0": "Failed"}
    assert checks.outcome_mismatches(dict(expected), expected) == 0
    assert checks.outcome_mismatches({"a|job#s0": "Failed", "c|job#s0": "Succeeded"}, expected) == 3


def test_artifact_problems(tmp_path):
    container = tmp_path / "logs"
    run_dir = container / "run"
    (run_dir / "n0001").mkdir(parents=True)
    (run_dir / "n0001" / "stdout-0-0.log").write_text("ok\n")
    (run_dir / "events.jsonl").write_text("")
    assert checks.artifact_problems(run_dir, ["n0001/stdout-0-0.log"], container) == []
    (run_dir / "n0001" / "stray.log").write_text("")
    (container / "beside").write_text("")
    problems = checks.artifact_problems(
        run_dir, ["n0001/stdout-0-0.log", "n0001/missing.log", "../escape"], container
    )
    assert any("missing artifact" in p for p in problems)
    assert any("outside the run directory" in p for p in problems)
    assert any("unreported file" in p for p in problems)
    assert any("beside the run directory" in p for p in problems)


def test_generators_are_deterministic_per_seed():
    for make in (
        lambda seed: generate.fanout(seed, static_nodes=300, slice_nodes=200),
        lambda seed: generate.deep(seed, 60, "deep", (1.0, 20.0)),
    ):
        first, again, other = make(7), make(7), make(8)
        assert first.experiment_xml == again.experiment_xml
        assert first.mock_script_json() == again.mock_script_json()
        assert first.slice_records == again.slice_records
        assert first.expected_outcomes == again.expected_outcomes
        assert (first.mock_script_json(), first.slice_records) != (
            other.mock_script_json(), other.slice_records)


def test_fanout_shape():
    workload = generate.fanout(3, static_nodes=300, slice_nodes=200)
    assert "<get>" not in workload.experiment_xml  # runs without a run directory
    assert len(workload.expected_outcomes) == 500
    unavailable = [k for k, v in workload.expected_outcomes.items() if v == "Failed"]
    assert len(unavailable) == 5
    hosts = [host for host, state, _ in workload.slice_records if state == "boot"]
    assert len(set(hosts)) == 200 and len(hosts) > 200  # repeats must be dropped
    assert all(host.endswith(".example.edu") for host in hosts)


def _write(tmp_path, workload):
    xml = tmp_path / "exp.xml"
    xml.write_text(workload.experiment_xml)
    experiment, diagnostics = load_experiment(xml)
    assert experiment is not None, [str(d) for d in diagnostics]
    return experiment, MockScript.from_json(workload.mock_script_json())


def test_fanout_prediction_matches_a_dry_run(tmp_path):
    workload = generate.fanout(5, static_nodes=300, slice_nodes=200)
    experiment, script = _write(tmp_path, workload)
    records = [SliceNodeRecord(*r) for r in workload.slice_records]
    experiment = expand_experiment(experiment, fetch=lambda *_: records)
    report = dry_run(experiment, script, limiter_config=RateLimiterConfig(*workload.limit),
                     event_log=EventLog())
    assert dict(report.per_node_outcomes) == workload.expected_outcomes
    assert report.overall.value == workload.expected_overall


def test_deep_prediction_matches_a_dry_run(tmp_path):
    workload = generate.deep(11, 100, "deep", (1.0, 20.0))
    experiment, script = _write(tmp_path, workload)
    run_dir = tmp_path / "logs" / "run"
    report = dry_run(experiment, script, event_log=EventLog(), run_dir=run_dir)
    assert dict(report.per_node_outcomes) == workload.expected_outcomes
    assert report.overall.value == "CompletedWithErrors"
    assert checks.artifact_problems(run_dir, report.artifacts, run_dir.parent) == []
    kinds = checks.fingerprint([
        (e.timestamp, e.kind.value) for e in report.events
    ])["kinds"]
    assert kinds["ConnectLost"] == 2  # the 2% whose connection drops
    assert kinds["ConnectAttempt"] == 100 + 2 * 2  # one failed reconnect each, then success


def test_cli_dry_run_repetitions_pass_their_checks(tmp_path):
    import workloads

    runner = workloads.CliRunner(generate.deep(4, 40, "deep", (1.0, 20.0)), tmp_path)
    runner.prepare()
    reference = None
    for index in range(2):
        rep_dir = tmp_path / f"rep{index}"
        rep_dir.mkdir()
        rep = runner.rep(rep_dir)
        failed, problems, fingerprint = workloads.check_rep(runner, rep, reference)
        assert (failed, problems) == (0, [])
        assert rep.exit_code == 2  # CompletedWithErrors
        reference = reference or fingerprint
    assert (tmp_path / "rep1" / "stdout.txt").read_text().count("TaskStart") > 0
