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


_NODE_STATES = ("Succeeded", "Failed", "Aborted", "Skipped")


def _node_states(detail: str, nodes: list[str]):
    """(node, state) of a StepEnd or TeardownEnd detail, which joins
    "node=State" for `nodes` in name order with spaces. A node name may
    hold spaces and "=" ("a=Failed b"), so the names come from the caller
    and only the states are read from between them."""
    rest = detail
    for node in sorted(nodes):
        assert rest.startswith(f"{node}="), (detail, node)
        rest = rest[len(node) + 1:]
        (state,) = [s for s in _NODE_STATES if rest == s or rest.startswith(f"{s} ")]
        yield node, state
        rest = rest[len(state) + 1:]
    assert rest == "", detail


def report_from_log_lines(lines: list[str], members: dict[str, list[str]]) -> tuple[dict[str, str], str]:
    """(per-node outcomes, overall status) folded from events.jsonl lines.

    Reads the logged prose. A StepStart or TeardownStart detail reads
    "targets=<name> nodes=<count>", and `members` maps each targets name
    to the node names it resolves to, as the generator built them; the
    matching StepEnd or TeardownEnd detail gives each of those nodes its
    state.
    """
    outcomes: dict[str, str] = {}
    nodes: dict[str, list[str]] = {}  # per execution suffix: the nodes its start named
    teardowns = 0
    panicked = False
    for line in lines:
        record = json.loads(line)
        kind = record["kind"]
        if kind == "Panic":
            panicked = True
        if kind in ("StepStart", "StepEnd"):
            suffix = f"s{record['step']}"
        elif kind in ("TeardownStart", "TeardownEnd"):
            suffix = f"t{teardowns}"  # teardowns run one at a time
            teardowns += kind == "TeardownEnd"
        else:
            continue
        if kind.endswith("Start"):
            targets = record["detail"].removeprefix("targets=").rpartition(" nodes=")[0]
            nodes[suffix] = members[targets]
            continue
        for node, state in _node_states(record["detail"], nodes[suffix]):
            outcomes[f"{node}|{record['tasklist']}#{suffix}"] = state
    if panicked:
        overall = "Panicked"
    elif any(state in ("Failed", "Aborted") for state in outcomes.values()):
        overall = "CompletedWithErrors"
    else:
        overall = "Completed"
    return outcomes, overall


def first_cycle(graph: dict[str, list[str]], roots: list[str] | None = None) -> list[str] | None:
    """First cycle met by a recursive depth-first walk from `roots` (default:
    every node, in order), as a closed path [a, ..., a]; edges to names that
    are not keys of `graph` are ignored."""
    state: dict[str, int] = {}  # 1 = on the stack, 2 = finished
    stack: list[str] = []

    def visit(name: str) -> list[str] | None:
        state[name] = 1
        stack.append(name)
        for ref in graph[name]:
            if state.get(ref) == 1:
                return stack[stack.index(ref):] + [ref]
            if state.get(ref) is None and ref in graph:
                cycle = visit(ref)
                if cycle is not None:
                    return cycle
        stack.pop()
        state[name] = 2
        return None

    for name in graph if roots is None else roots:
        if state.get(name) is None:
            cycle = visit(name)
            if cycle is not None:
                return cycle
    return None


# --- model invariants ----------------------------------------------------
#
# Read from the values' fields alone: kinds are compared by their `.value`,
# tasks and steps items by class name, and cycles found with first_cycle.


def _target_defs(target) -> list:
    """A target and its nested members, in preorder."""
    out = [target]
    for member in target.members:
        out.extend(_target_defs(member))
    return out


def target_map_reference(targets) -> dict:
    """Every definition by name over the recursive preorder walk, the first
    definition of a name winning: what Experiment.target_map returns."""
    out = {}
    for top in targets:
        for t in _target_defs(top):
            out.setdefault(t.name, t)
    return out


def resolve_group_reference(target, env: dict | None = None, leaves: dict | None = None) -> list:
    """Recursive leaf resolution: each leaf's first occurrence in document
    order, with the export-env pairs merged along its path, inner over
    outer, in first-seen key order. What resolve_group returns."""
    env = {**(env or {}), **dict(target.env_exports)}
    leaves = {} if leaves is None else leaves
    if target.kind.value == "group":
        for member in target.members:
            resolve_group_reference(member, env, leaves)
    else:
        leaves.setdefault(target.name, (target, tuple(env.items())))
    return list(leaves.values())


def _call_refs(tasks) -> list[str]:
    """The refs of every call task, in document order, at any depth."""
    out = []
    for t in tasks:
        kind = type(t).__name__
        if kind == "CallTask":
            out.append(t.ref)
        elif kind in ("SeqTask", "ParTask"):
            out.extend(_call_refs(t.children))
    return out


def call_graph(experiment) -> dict[str, list[str]]:
    """Edges tasklist -> tasklists it references via call tasks."""
    return {tl.name: _call_refs(tl.tasks) for tl in experiment.tasklists}


def iter_steps_items(items) -> list:
    """All items of a steps block, descending into repeat bodies."""
    out = []
    for item in items:
        out.append(item)
        if type(item).__name__ == "Repeat":
            out.extend(iter_steps_items(item.body))
    return out


def audit(experiment) -> list[str]:
    """Every model invariant an Experiment value breaks, as readable
    problems; empty means well-formed. The parser must never emit an
    Experiment for which this returns a non-empty list."""
    problems: list[str] = []
    # A group may embed a previously defined target by reference, so the
    # same value can appear twice; only conflicting definitions are
    # duplicates.
    targets: dict[str, object] = {}
    for top in experiment.targets:
        for t in _target_defs(top):
            if targets.setdefault(t.name, t) != t:
                problems.append(f"duplicate target name {t.name!r}")
            problems.extend(_audit_target(t))
    tasklists: dict[str, object] = {}
    for tl in experiment.tasklists:
        if tasklists.setdefault(tl.name, tl) != tl:
            problems.append(f"duplicate tasklist name {tl.name!r}")

    for tl in experiment.tasklists:
        if tl.timeout is not None and tl.timeout <= 0:
            problems.append(f"tasklist {tl.name!r} has non-positive timeout")
        if tl.cleanup is not None and tl.cleanup not in tasklists:
            problems.append(f"tasklist {tl.name!r} cleanup {tl.cleanup!r} is undefined")
    cleanups = {tl.name: [tl.cleanup] if tl.cleanup else [] for tl in experiment.tasklists}
    for tl in experiment.tasklists:
        cycle = first_cycle(cleanups, [tl.name])
        if cycle is not None:
            problems.append(f"cleanup chain of {tl.name!r} is cyclic at {cycle[0]!r}")
    references = {name: refs + cleanups[name] for name, refs in call_graph(experiment).items()}
    cycle = first_cycle(references)
    if cycle is not None:
        problems.append(f"calls and cleanups form a cycle through {cycle[0]!r}")

    for item in iter_steps_items(experiment.steps.items):
        kind = type(item).__name__
        if kind in ("Step", "RegisterTeardown"):
            if item.tasklist_ref not in tasklists:
                problems.append(f"unknown tasklist reference {item.tasklist_ref!r}")
            if item.targets_ref not in targets:
                problems.append(f"unknown target reference {item.targets_ref!r}")
        if kind == "Step":
            offsets = [
                ts.offset for ts in (item.start, item.stop) if type(ts).__name__ == "RelativeTime"
            ]
            if len(offsets) == 2 and not offsets[0] < offsets[1]:
                problems.append("step start must precede stop")
            problems.extend(
                "relative time offsets must be non-negative" for offset in offsets if offset < 0
            )
        if kind == "Repeat":
            if item.iterations is None and item.during is None and item.until is None:
                problems.append("repeat carries no termination bound")
            if item.iterations is not None and item.iterations <= 0:
                problems.append("repeat iterations must be positive")
    for tl in experiment.tasklists:
        problems.extend(
            f"tasklist {tl.name!r} calls undefined {ref!r}"
            for ref in _call_refs(tl.tasks)
            if ref not in tasklists
        )
    return problems


_CONNECTION_FIELDS = (
    "ssh_user", "ssh_password", "ssh_host",
    "planetlab_api_url", "planetlab_slice", "planetlab_user",
)


def _audit_target(t) -> list[str]:
    connected = any(getattr(t, name) is not None for name in _CONNECTION_FIELDS)
    kind = t.kind.value
    if kind == "local" and (connected or t.members):
        return [f"local target {t.name!r} must not carry connection fields"]
    if kind == "ssh" and not (t.ssh_host and t.ssh_user):
        return [f"ssh target {t.name!r} requires host and user"]
    if kind == "planetlab" and not (t.planetlab_api_url and t.planetlab_slice and t.planetlab_user):
        return [f"planetlab target {t.name!r} requires api-url, slice, user"]
    # empty groups are legal: slice expansion can yield zero live nodes
    if kind == "group" and connected:
        return [f"group {t.name!r} must not carry connection fields"]
    return []
