"""Independent reference computations for test expectations.

Everything here is implemented from first principles, without importing the
package under test, so a test comparing against these functions checks two
separate derivations of the same quantity.
"""
from __future__ import annotations

import json
import re


def max_in_sliding_window(times: list[float], interval: float) -> int:
    """Largest number of events inside any half-open window [t, t+interval).

    Checked by anchoring a window at every event time; for point events
    that covers all extrema.
    """
    worst = 0
    ordered = sorted(times)
    for anchor in ordered:
        count = sum(1 for t in ordered if anchor <= t < anchor + interval)
        worst = max(worst, count)
    return worst


def limiter_grant_times(requests: int, max_connects: int, interval: float) -> list[float]:
    """Grant instants for `requests` simultaneous arrivals at t=0.

    With a full window the next grant waits for the oldest grant to age
    out, so grant i lands at floor(i / max_connects) * interval.
    """
    return [(i // max_connects) * interval for i in range(requests)]


def backoff_attempt_offsets(budget: int, base: float = 1.0, factor: float = 2.0, cap: float = 60.0) -> list[float]:
    """Offsets of reconnect attempts from the first retry instant.

    First attempt is immediate; each later attempt waits base*factor^k,
    capped.
    """
    offsets = [0.0]
    delay = base
    elapsed = 0.0
    for _ in range(budget - 1):
        elapsed += min(delay, cap)
        offsets.append(elapsed)
        delay *= factor
    return offsets


def repeat_executions(iterations: int | None, during: float | None, body_seconds: float) -> int:
    """Body executions of a repeat loop under pre-iteration bound checks."""
    count = 0
    now = 0.0
    while True:
        if iterations is not None and count >= iterations:
            return count
        if during is not None and now >= during:
            return count
        now += body_seconds
        count += 1


_DUR = re.compile(
    r"^P(?:(\d+(?:[.,]\d+)?)W)?(?:(\d+(?:[.,]\d+)?)D)?"
    r"(?:T(?:(\d+(?:[.,]\d+)?)H)?(?:(\d+(?:[.,]\d+)?)M)?(?:(\d+(?:[.,]\d+)?)S)?)?$"
)


def iso_duration_seconds(text: str) -> float | None:
    """Seconds in an ISO-8601 duration, or None when not parseable.

    Deliberately re-derived: regex over the full string, then a dot
    product with unit weights.
    """
    m = _DUR.match(text)
    if m is None or not any(m.groups()):
        return None
    weights = (604800.0, 86400.0, 3600.0, 60.0, 1.0)
    total = 0.0
    for raw, weight in zip(m.groups(), weights):
        if raw is not None:
            total += float(raw.replace(",", ".")) * weight
    return total


def first_index(events: list[dict], kind: str, **fields) -> int:
    """Index of the first event of `kind` whose fields match, else -1."""
    for i, event in enumerate(events):
        if event.get("kind") != kind:
            continue
        if all(event.get(k) == v for k, v in fields.items()):
            return i
    return -1


def all_indices(events: list[dict], kind: str, **fields) -> list[int]:
    out = []
    for i, event in enumerate(events):
        if event.get("kind") == kind and all(event.get(k) == v for k, v in fields.items()):
            out.append(i)
    return out


def resolve_leaf_names(defs: dict[str, object], root: str) -> list[str]:
    """Leaf names reachable from `root`, first occurrence wins.

    Reference resolution over a minimal shape: each entry in `defs` is
    either a list of member names (a group) or anything else (a leaf).
    """
    seen: set[str] = set()
    stack = [root]
    order: list[str] = []
    # depth-first, document order: expand with an explicit stack
    while stack:
        name = stack.pop(0)
        members = defs[name]
        if isinstance(members, list):
            stack = list(members) + stack
        elif name not in seen:
            seen.add(name)
            order.append(name)
    return order


def report_from_log_lines(lines: list[str]) -> tuple[dict[str, str], str]:
    """(per-node outcomes, overall status) folded from events.jsonl lines.

    Reads the logged prose: a StepEnd or TeardownEnd detail is a
    space-separated list of "node=State" pairs. That split holds only for
    plain node names without spaces or "=", such as "n0".
    """
    outcomes: dict[str, str] = {}
    teardowns = 0
    panicked = False
    for line in lines:
        record = json.loads(line)
        kind = record["kind"]
        if kind == "Panic":
            panicked = True
        if kind == "StepEnd":
            suffix = f"s{record['step']}"
        elif kind == "TeardownEnd":
            suffix = f"t{teardowns}"
            teardowns += 1
        else:
            continue
        for pair in record["detail"].split():
            node, state = pair.split("=")
            outcomes[f"{node}|{record['tasklist']}#{suffix}"] = state
    if panicked:
        overall = "Panicked"
    elif any(state in ("Failed", "Aborted") for state in outcomes.values()):
        overall = "CompletedWithErrors"
    else:
        overall = "Completed"
    return outcomes, overall
