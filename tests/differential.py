"""Differential check of the engine against another checkout.

Builds seeded experiments with random.Random, so a seed always gives the
same experiment whatever the checkout: step start and stop times, rate
limits, scripted connection losses and reconnect failures, tasklist
timeouts, cleanups, calls, seq and par, repeats bounded by iterations,
barriers and teardowns. Each is dry-run into a run directory of its own,
and one line per seed is printed: the seed, the sha256 of its events.jsonl,
the sha256 of its artifact tree (see tree_digest) and its overall status.
Run it once per checkout and compare:

    PYTHONPATH=src python tests/differential.py 400 > new.txt
    PYTHONPATH=../other/src python tests/differential.py 400 > old.txt
    diff old.txt new.txt

It calls only `dry_run` with `limiter_config` and `run_dir`, so older
checkouts run it too. A generated experiment always passes validation:
call and cleanup edges only point to later tasklists, so they form no
cycle.

`random_experiment` is the project's one experiment generator. Its other
users are tests/test_golden_generated.py, which pins the digests of seeds
0-199, and tests/test_properties.py, which runs its experiments under odd
node names and injected faults. Node names come from its `names`
argument, n0 to n4 by default: the names decide no draw of the
generator, so a seed builds the same experiment under any five names.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path

from gplmt.model import (
    CallTask,
    ErrorMode,
    Experiment,
    GetTask,
    ParTask,
    RegisterTeardown,
    RelativeTime,
    Repeat,
    RunTask,
    SeqTask,
    Step,
    StepsProgram,
    Synchronize,
    TargetDef,
    TargetKind,
    Tasklist,
)
from gplmt.scheduler import dry_run
from gplmt.transport import MockScript, RateLimiterConfig

COMMANDS = [f"cmd{i}" for i in range(8)]


def _tasks(rng: random.Random, later: list[str], depth: int) -> tuple:
    tasks = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.55 or depth >= 2:
            tasks.append(RunTask(rng.choice(COMMANDS)))
        elif roll < 0.65:
            tasks.append(GetTask(rng.choice(["data.bin", "missing.bin"])))
        elif roll < 0.75:
            tasks.append(SeqTask(_tasks(rng, later, depth + 1)))
        elif roll < 0.88:
            tasks.append(ParTask(_tasks(rng, later, depth + 1)))
        elif later:
            tasks.append(CallTask(rng.choice(later)))
        else:
            tasks.append(RunTask(rng.choice(COMMANDS)))
    return tuple(tasks)


NAMES = tuple(f"n{i}" for i in range(5))


def random_experiment(rng: random.Random, names: Sequence[str] = NAMES):
    """One experiment, its mock script and its rate limit.

    Its nodes are the first one to five of `names`: at least five
    distinct names, none of them "all" or "some", its group names.
    """
    nodes = list(names[:rng.randint(1, 5)])
    leaves = tuple(
        TargetDef(name, TargetKind.SSH, ssh_user="u", ssh_host=f"{name}.example") for name in nodes
    )
    groups = (TargetDef("all", TargetKind.GROUP, members=leaves),)
    if len(leaves) > 2:
        groups += (TargetDef("some", TargetKind.GROUP, members=leaves[: len(leaves) // 2]),)
    target_names = nodes + [g.name for g in groups]

    tasklist_names = [f"tl{i}" for i in range(rng.randint(2, 6))]
    tasklists = []
    for index, name in enumerate(tasklist_names):
        later = tasklist_names[index + 1:]
        tasklists.append(Tasklist(
            name,
            _tasks(rng, later, 0),
            on_error=rng.choice(list(ErrorMode)),
            timeout=rng.choice([None, None, 1.0, 2.5, 6.0]),
            cleanup=rng.choice(later) if later and rng.random() < 0.35 else None,
        ))

    def step() -> Step:
        start = RelativeTime(rng.choice([0.0, 0.5, 2.0])) if rng.random() < 0.3 else None
        stop = None
        if rng.random() < 0.35:
            stop = RelativeTime((start.offset if start else 0.0) + rng.choice([0.5, 1.0, 3.0, 8.0]))
        return Step(rng.choice(tasklist_names), rng.choice(target_names), start=start, stop=stop)

    items = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.6:
            items.append(step())
        elif roll < 0.75:
            items.append(Synchronize())
        elif roll < 0.88:
            items.append(RegisterTeardown(rng.choice(tasklist_names), rng.choice(target_names)))
        else:
            body = tuple(step() for _ in range(rng.randint(1, 2)))
            if rng.random() < 0.5:
                body += (Synchronize(),)
            during = rng.choice([None, 3.0])
            items.append(Repeat(body, iterations=rng.randint(1, 3), during=during))

    script = {"nodes": {}}
    for name in nodes:
        entry = {
            "rules": [
                {"pattern": command, "exit": rng.choice([0, 0, 0, 1]),
                 "duration": rng.choice([0, 0.5, 1, 2, 4]),
                 "stdout": f"{command} out"}
                for command in rng.sample(COMMANDS, rng.randint(2, len(COMMANDS)))
            ],
            "files": {"data.bin": f"{name} data"},
        }
        if rng.random() < 0.1:
            entry["available"] = False
        if rng.random() < 0.3:
            entry["lose_connection_at"] = sorted(rng.sample([0.25, 0.75, 1.5, 3.0, 5.0], 2))
            entry["connect_failures"] = rng.choice([0, 1, 2, 6])
            entry["reconnectable"] = rng.random() < 0.85
        script["nodes"][name] = entry
    script["strict_files"] = rng.random() < 0.5

    limit = None
    if rng.random() < 0.6:
        limit = RateLimiterConfig(rng.randint(1, 3), rng.choice([0.5, 1.0, 2.0]))
    experiment = Experiment(
        targets=groups, tasklists=tuple(tasklists), steps=StepsProgram(tuple(items))
    )
    return experiment, MockScript.from_json(json.dumps(script)), limit


REPORT_FILES = ("events.jsonl", "report.json", "report.txt")


def tree_digest(run_dir: Path) -> str:
    """sha256 over every entry but the report files, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(run_dir.rglob("*")):
        relative = path.relative_to(run_dir).as_posix()
        if relative in REPORT_FILES:
            continue
        if path.is_dir():
            digest.update(f"D {relative}\n".encode())
        else:
            data = path.read_bytes()
            digest.update(f"F {relative} {len(data)}\n".encode())
            digest.update(data)
    return digest.hexdigest()


def digests(seed: int) -> tuple[str, str, str]:
    """The seed's events.jsonl sha256, its tree digest and its overall status."""
    experiment, script, limit = random_experiment(random.Random(seed))
    with tempfile.TemporaryDirectory() as root:
        run_dir = Path(root) / "run"
        report = dry_run(experiment, script, limiter_config=limit, run_dir=run_dir)
        events = hashlib.sha256((run_dir / "events.jsonl").read_bytes()).hexdigest()
        return events, tree_digest(run_dir), report.overall.value


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 400
    for seed in range(count):
        print(seed, *digests(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
