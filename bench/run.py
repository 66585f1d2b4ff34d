"""gplmt benchmark: one workload, one seed, measured for a fixed time.

    python3 bench/run.py --workload fanout_5k --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; gplmt is imported from its `src/`. The
run generates the workload's inputs from the seed under `.bench_run/`,
repeats the workload until `--seconds` have passed, checks every
repetition's output, prints a table of every metric with its unit and
sample count, and ends with one JSON line. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
See bench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import generate
import tracer as tracing
from checks import pair_lags, percentile

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
MIN_REPS = 3  # the determinism checks compare repetitions of one seed
MAX_SECONDS = 100  # stop starting repetitions after this, whatever --seconds says

END_TO_END = {
    "setup_s": "s", "run_s": "s", "wall_s": "s", "us_per_event": "us", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "parser.load_s": "s", "parser.targets": "count",
    "planetlab.expand_s": "s", "planetlab.leaves": "count",
    "model.resolve_group_s": "s", "model.resolve_group_calls": "count",
    "scheduler.run_s": "s", "scheduler.self_s": "s", "scheduler.node_executions": "count",
    "transport.acquire_s": "s", "transport.acquire_calls": "count",
    "transport.connect_attempts": "count", "transport.connect_ratio": "ratio",
    "transport.limiter_wait_s": "s", "transport.limiter_wait_sim_s": "sim_s",
    "transport.exec_s": "s", "transport.exec_self_s": "s", "transport.exec_calls": "count",
    "transport.mock_exec_s": "s", "transport.fetch_calls": "count",
    "transport.artifact_files": "count", "transport.artifact_bytes": "B",
    "telemetry.record_s": "s", "telemetry.records": "count", "telemetry.events_bytes": "B",
    "telemetry.render_report_s": "s", "telemetry.render_report_calls": "count",
    "trace.other_s": "s", "trace.overhead_ratio": "ratio",
}
# Measured and printed, but left out of the JSON line: each is exactly zero
# on some workload by design (see README.md, "Per-layer metrics").
PRINTED_ONLY = {
    "transport.fetch_s": "s", "telemetry.encode_s": "s", "telemetry.write_report_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "trace.idle_s": "s",
}

_FS_MAGIC = {0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
             0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding `path`, from statfs(2)."""
    buffer = ctypes.create_string_buffer(256)
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.statfs(os.fsencode(path), buffer) != 0:
            return "unknown"
    except (OSError, AttributeError):
        return "unknown"
    magic = ctypes.c_long.from_buffer(buffer).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, f"0x{magic:x}")


def median(values):
    return statistics.median(values) if values else 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rss-probe", action="store_true",
                   help="internal: run the workload once in this fresh process and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gplmt" / "__init__.py").is_file():
        print(f"bench: no gplmt sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers  # these import gplmt
    import workloads

    if args.workload not in generate.GENERATORS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(generate.GENERATORS)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}{'-probe' if args.rss_probe else ''}"
    workloads.remove(work)
    work.mkdir(parents=True)
    runner = workloads.RUNNERS[args.workload](generate.GENERATORS[args.workload](args.seed), work)
    runner.prepare()
    expected = runner.workload.expected_outcomes

    problems: list[str] = []
    if not runner.virtual and (
        runner.ideal_outcomes != expected or runner.ideal_overall != runner.workload.expected_overall
    ):
        problems.append("the virtual (ideal) run disagrees with the generator's prediction")

    tracer = tracing.Tracer()

    @contextmanager
    def traced(run_id):
        with tracer.installed(layers.trace_patches(tracer)), tracing.idle_timing(tracer), \
                tracer.run(run_id):
            yield

    plain, layer_samples, lag_samples = [], [], []
    attempted = failed = 0
    reference = None
    spans_path = work / "spans.tsv"
    started = time.perf_counter()
    index = 0
    while True:
        is_traced = args.trace == 1 and index % 2 == 1
        rep_dir = work / f"rep{index}"
        rep_dir.mkdir()
        attempted += len(expected)
        gc.collect()  # every repetition starts from the same collector state
        try:
            rep = runner.rep(rep_dir, (lambda: traced(index)) if is_traced else nullcontext)
        except Exception as exc:  # a run that raises fails all its node executions
            problems.append(f"repetition {index} raised {type(exc).__name__}: {exc}")
            failed += len(expected)
        else:
            rep_failed, rep_problems, fingerprint = workloads.check_rep(runner, rep, reference)
            failed += rep_failed
            problems += [f"repetition {index}: {p}" for p in rep_problems]
            if reference is None and not rep_problems and runner.virtual:
                reference = fingerprint
            if is_traced:
                layer_samples.append(layers.layer_metrics(tracer, index, rep, fingerprint["kinds"]))
                tracing.write_spans(tracer.spans, spans_path, append=index > 1)
                tracer.spans.clear()
            else:
                plain.append({
                    "setup_s": rep.setup_s,
                    "run_s": rep.run_s,
                    "wall_s": rep.wall_s,
                    "us_per_event": rep.run_s / len(rep.events) * 1e6,
                    "events": len(rep.events),
                    "end": _end(rep.events),
                })
                if not runner.virtual:
                    lags, unmatched = pair_lags(rep.events, runner.ideal)
                    failed += unmatched
                    lag_samples.append({
                        "p50": percentile(lags, 0.50) * 1000,
                        "p99": percentile(lags, 0.99) * 1000,
                        "n": len(lags),
                        "overrun": _end(rep.events) - _end(runner.ideal),
                    })
            del rep
        index += 1
        elapsed = time.perf_counter() - started
        enough = index >= MIN_REPS * (1 + args.trace)  # traced runs alternate with plain ones
        if args.rss_probe or elapsed >= MAX_SECONDS or (enough and elapsed >= args.seconds):
            break

    # Deleting a repetition's files right before the next one made that one
    # up to four times slower on ext4, so they all go only now.
    for done in range(index):
        workloads.remove(work / f"rep{done}")
    if args.rss_probe:
        return 0  # the measured run checks correctness; this one measures memory

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(plain)} untraced"
          f" + {len(layer_samples)} traced  in {time.perf_counter() - started:.1f} s"
          f"  work-directory filesystem: {filesystem_of(work)}")
    if plain:
        print(f"events per run {plain[0]['events']}"
              + (f"  simulated end {plain[0]['end']} s" if runner.virtual else
                 f"  ideal (virtual) end {_end(runner.ideal)} s"))

    # Host time here is the fastest repetition, not the median: other
    # tenants' load slows whole stretches of a run, which moved the median of
    # a 45 s fanout_5k run by 0.24 (quartile spread over median) across ten
    # runs, against 0.08 for the fastest repetition. See README.md.
    rows = []
    e2e = {}
    for name in ("setup_s", "run_s", "wall_s", "us_per_event"):
        values = [s[name] for s in plain]
        e2e[name] = min(values, default=0.0)
        rows.append((name, e2e[name], END_TO_END[name],
                     f"fastest of {len(values)} runs; median {median(values):.6g}"))
    for name in ("setup_s", "run_s", "wall_s"):
        print(f"{name} of each repetition: " + " ".join(f"{s[name]:.6f}" for s in plain))
    if args.trace == 0:
        rss = _peak_rss_mb(args, workloads)
        if rss is None:
            problems.append("the peak-memory probe process failed")
            rss = 0.0
        e2e["peak_rss_mb"] = rss
        rows.append(("peak_rss_mb", rss, "MB", "1 fresh process"))
    if lag_samples:
        n = sum(s["n"] for s in lag_samples)
        for key, name, unit in (("p50", "lag_p50_ms", "ms"), ("p99", "lag_p99_ms", "ms"),
                                ("overrun", "overrun_s", "s")):
            rows.append((name, median([s[key] for s in lag_samples]), unit,
                         f"median of {len(lag_samples)} runs, {n} TaskStart samples"))
    rows.append(("failed_ratio", failed / attempted, "ratio",
                 f"{failed} of {attempted} node executions"))

    per_layer = {}
    if args.trace == 1:
        untraced_wall = median([s["wall_s"] for s in plain])
        for name in list(PER_LAYER) + list(PRINTED_ONLY):
            if name == "trace.overhead_ratio":
                traced_wall = median([m["wall_s"] for m in layer_samples])
                value = traced_wall / untraced_wall if untraced_wall else 0.0
            else:
                value = median([m[name] for m in layer_samples])
            per_layer[name] = value
        rows.append(("--- per layer", "", "", f"median of {len(layer_samples)} traced runs"))
        for name, value in per_layer.items():
            rows.append((name, value, {**PER_LAYER, **PRINTED_ONLY}[name], ""))
        rows.append(("--- self time by layer", "", "", "share of traced wall"))
        wall = median([m["trace.wall_s"] for m in layer_samples])
        for layer in layers.LAYERS:
            value = median([m[f"{layer}.self_total_s"] for m in layer_samples])
            rows.append((f"{layer}.self_total_s", value, "s", f"{value / (wall or math.nan):.1%}"))
        residual = max((m["unaccounted"] for m in layer_samples), default=0.0)
        rows.append(("trace.unaccounted_s", residual, "s",
                      f"largest |self times + idle - wall|; spans in {spans_path.relative_to(ROOT)}"))

    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<32} {shown:>14} {unit:<6} {note}")
    for problem in problems[:20]:
        print(f"problem: {problem}")

    metrics = e2e if args.trace == 0 else {k: per_layer[k] for k in PER_LAYER}
    units = END_TO_END if args.trace == 0 else PER_LAYER
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _end(events) -> float:
    """Timestamp of the last ExperimentEnd, or NaN when the log has none."""
    return next((ts for ts, kind, *_ in reversed(events) if kind == "ExperimentEnd"), math.nan)


def _peak_rss_mb(args, workloads) -> float | None:
    """Peak resident memory of a fresh process running the workload once."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--rss-probe"],
            cwd=ROOT, capture_output=True, timeout=50,
        )
    except subprocess.TimeoutExpired:
        return None
    after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workloads.remove(WORK / f"{args.workload}-seed{args.seed}-probe")
    if probe.returncode != 0:
        sys.stderr.write(probe.stderr.decode(errors="replace"))
        return None
    return max(before, after) / 1024  # ru_maxrss is in KiB on Linux


if __name__ == "__main__":
    sys.exit(main())
