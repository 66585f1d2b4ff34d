"""Which gplmt entry points the traced run wraps, and the per-layer metrics
computed from their spans.

Functions are wrapped where callers look them up: `gplmt.cli` and
`gplmt.scheduler` import names such as `load_experiment`, `resolve_group`
and `render_report` into their own namespace, so those bindings are wrapped
besides the defining module's. Methods are wrapped on their class.
"""
from __future__ import annotations

from gplmt import cli, parser, planetlab, scheduler, telemetry, transport

from checks import artifact_volume
from tracer import IDLE, ROOT, Tracer, totals

LAYERS = ("parser", "planetlab", "model", "scheduler", "transport", "telemetry", "cli")

# Scheduler spans that enter the engine from outside it.
_ENGINE_ENTRIES = ("scheduler.dry_run", "scheduler.run_experiment")


def _count_targets(tracer: Tracer, result) -> None:
    experiment = result[0]
    tracer.count("parser.targets", len(experiment.target_map()) if experiment else 0)


def _count_leaves(tracer: Tracer, result) -> None:
    tracer.count("planetlab.leaves", len(result.members))


def trace_patches(tracer: Tracer) -> list[tuple]:
    """(owner, attribute, wrapper) for every traced entry point."""
    sync = [
        (parser, "load_experiment", "parser.load_experiment", _count_targets),
        (cli, "load_experiment", "parser.load_experiment", _count_targets),
        (planetlab, "expand_experiment", "planetlab.expand_experiment", None),
        (cli, "expand_experiment", "planetlab.expand_experiment", None),
        (planetlab, "expand_planetlab_target", "planetlab.expand_planetlab_target", _count_leaves),
        (scheduler, "resolve_group", "model.resolve_group", None),
        (scheduler, "dry_run", "scheduler.dry_run", None),
        (scheduler, "run_experiment", "scheduler.run_experiment", None),
        (cli, "run_experiment", "scheduler.run_experiment", None),
        (scheduler, "render_report", "telemetry.render_report", None),
        (scheduler, "write_report", "telemetry.write_report", None),
        (telemetry.EventLog, "record", "telemetry.record", None),
        (telemetry.ExecutionEvent, "to_json_line", "telemetry.encode", None),
        (cli, "main", "cli.main", None),
    ]
    coroutines = [
        (scheduler.ExperimentRunner, "run", "scheduler.runner_run", False),
        (scheduler.ExperimentRunner, "execute_tasklist", "scheduler.execute_tasklist", False),
        (transport.SessionPool, "acquire", "transport.acquire", False),
        (transport.RateLimiter, "wait", "transport.limiter_wait", True),
        (transport.Session, "exec", "transport.exec", False),
        (transport.MockTransport, "exec", "transport.mock_exec", False),
        (transport.Session, "fetch", "transport.fetch", False),
    ]
    patches = [
        (owner, attr, tracer.wrap_sync(owner.__dict__[attr], name, on_result=hook))
        for owner, attr, name, hook in sync
    ]
    patches += [
        (owner, attr, tracer.wrap_async(owner.__dict__[attr], name, sim_time=sim))
        for owner, attr, name, sim in coroutines
    ]
    return patches


def layer_metrics(tracer: Tracer, run: int, rep, kinds: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from its spans and
    counters, its event counts per kind and its run directory."""
    t = totals(tracer.spans, run)

    def busy(name):
        return t.get(name, {}).get("busy", 0.0)

    def self_(name):
        return t.get(name, {}).get("self", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    spans = [s for s in tracer.spans if s.run == run]
    by_id = {s.id: s for s in spans}
    engine_busy = sum(
        s.busy - s.idle
        for s in spans
        if s.name in _ENGINE_ENTRIES
        and not (s.parent in by_id and by_id[s.parent].name in _ENGINE_ENTRIES)
    )
    root = next(s for s in spans if s.name == ROOT)
    metrics = {
        "parser.load_s": busy("parser.load_experiment"),
        "parser.targets": tracer.counters.get("parser.targets", 0),
        "planetlab.expand_s": busy("planetlab.expand_experiment"),
        "planetlab.leaves": tracer.counters.get("planetlab.leaves", 0),
        "model.resolve_group_s": busy("model.resolve_group"),
        "model.resolve_group_calls": calls("model.resolve_group"),
        "scheduler.run_s": engine_busy,
        "scheduler.self_s": sum(
            entry["self"] for name, entry in t.items() if name.startswith("scheduler.")
        ),
        "scheduler.node_executions": calls("scheduler.execute_tasklist"),
        "transport.acquire_s": busy("transport.acquire"),
        "transport.acquire_calls": calls("transport.acquire"),
        "transport.limiter_wait_s": busy("transport.limiter_wait"),
        "transport.limiter_wait_sim_s": t.get("transport.limiter_wait", {}).get("sim", 0.0),
        "transport.exec_s": busy("transport.exec"),
        "transport.exec_self_s": self_("transport.exec"),
        "transport.exec_calls": calls("transport.exec"),
        "transport.mock_exec_s": busy("transport.mock_exec"),
        "transport.fetch_s": busy("transport.fetch"),
        "transport.fetch_calls": calls("transport.fetch"),
        "telemetry.record_s": busy("telemetry.record"),
        "telemetry.records": calls("telemetry.record"),
        "telemetry.encode_s": busy("telemetry.encode"),
        "telemetry.render_report_s": busy("telemetry.render_report"),
        "telemetry.render_report_calls": calls("telemetry.render_report"),
        "telemetry.write_report_s": busy("telemetry.write_report"),
        "cli.main_s": busy("cli.main"),
        "cli.self_s": self_("cli.main"),
        "trace.other_s": root.self_time,
        "trace.idle_s": busy(IDLE),
        "trace.wall_s": root.busy,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_total_s"] = sum(
            entry["self"] for name, entry in t.items() if name.startswith(layer + ".")
        )
    files, size = artifact_volume(rep.run_dir)
    metrics.update({
        "transport.connect_attempts": kinds.get("ConnectAttempt", 0),
        "transport.connect_ratio":
            kinds.get("ConnectSuccess", 0) / max(1, kinds.get("ConnectAttempt", 0)),
        "transport.artifact_files": files,
        "transport.artifact_bytes": size,
        "telemetry.events_bytes":
            (rep.run_dir / "events.jsonl").stat().st_size if rep.run_dir else 0,
        "wall_s": rep.wall_s,
        # Self times, idle included, must add up to the traced wall time.
        "unaccounted": abs(sum(s.self_time for s in spans) - root.busy),
    })
    return metrics
