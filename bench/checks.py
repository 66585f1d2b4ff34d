"""Output checks and real-clock lag pairing.

A check never raises on a wrong result: it returns the number of failed
node executions, or a list of problems, so that failures are counted
against the executions attempted.
"""
from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from pathlib import Path

RUN_DIR_FILES = ("events.jsonl", "report.json", "report.txt")


def outcome_mismatches(reported: dict[str, str], expected: dict[str, str]) -> int:
    """Node executions whose reported outcome differs from the prediction;
    a missing or unexpected execution counts as one mismatch."""
    keys = set(reported) | set(expected)
    return sum(1 for key in keys if reported.get(key) != expected.get(key))


def fingerprint(events) -> dict:
    """What must repeat exactly across runs of one seed on a virtual clock:
    event counts per kind, the ExperimentEnd instant and the encoded log.

    `events` are (ts, kind, node, step, tasklist, path, detail) tuples.
    """
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(event).encode())
        digest.update(b"\n")
    end = [ts for ts, kind, *_ in events if kind == "ExperimentEnd"]
    return {
        "kinds": dict(sorted(Counter(kind for _, kind, *_ in events).items())),
        "end": end[-1] if end else None,
        "sha256": digest.hexdigest(),
    }


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_problems(run_dir: Path, artifacts, container: Path) -> list[str]:
    """Every reported artifact exists inside the run directory, every file
    in the run directory is reported or is one of the run's own files, and
    `container` (the directory the run was given) holds nothing else."""
    problems = []
    root = run_dir.resolve()
    reported = set()
    for ref in artifacts:
        path = (run_dir / ref).resolve()
        if not path.is_relative_to(root):
            problems.append(f"artifact outside the run directory: {ref}")
        elif not path.is_file():
            problems.append(f"missing artifact: {ref}")
        reported.add(path)
    for directory, _, files in os.walk(run_dir):
        for name in files:
            path = (Path(directory) / name).resolve()
            if path not in reported and path.relative_to(root).as_posix() not in RUN_DIR_FILES:
                problems.append(f"unreported file: {path.relative_to(root)}")
    strays = [p.name for p in container.iterdir() if p.resolve() != root]
    if strays:
        problems.append(f"files beside the run directory: {sorted(strays)}")
    return problems


def artifact_volume(run_dir: Path | None) -> tuple[int, int]:
    """(files, bytes) of node artifacts, excluding the run's own files."""
    if run_dir is None:
        return 0, 0
    files = size = 0
    for directory, _, names in os.walk(run_dir):
        if Path(directory) == run_dir:
            continue
        for name in names:
            files += 1
            size += (Path(directory) / name).stat().st_size
    return files, size


def task_start_key(event) -> tuple:
    _, _, node, step, tasklist, path, _ = event
    return (node, step, tasklist, tuple(path) if path is not None else None)


def pair_lags(real_events, virtual_events) -> tuple[list[float], int]:
    """Match each real-clock TaskStart to its virtual twin.

    Twins share (node, step, tasklist, path); repeated keys pair in order of
    occurrence. Returns the lags (real minus virtual timestamp, seconds) and
    the number of TaskStarts on either side left without a twin.
    """
    virtual: dict[tuple, list[float]] = {}
    for event in virtual_events:
        if event[1] == "TaskStart":
            virtual.setdefault(task_start_key(event), []).append(event[0])
    used: Counter = Counter()
    lags = []
    unmatched = 0
    for event in real_events:
        if event[1] != "TaskStart":
            continue
        key = task_start_key(event)
        twins = virtual.get(key, [])
        if used[key] < len(twins):
            lags.append(event[0] - twins[used[key]])
            used[key] += 1
        else:
            unmatched += 1
    unmatched += sum(len(twins) - used[key] for key, twins in virtual.items())
    return lags, unmatched


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]
