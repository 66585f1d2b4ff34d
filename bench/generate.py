"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into exactly what gplmt is given (an experiment
document, a mock-script JSON and, for fan-out, the slice API's node records)
plus the outcome the benchmark predicts for every node execution. The same
seed always yields byte-identical inputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

SLICE_NAME = "gplmt_bench"
PLANETLAB_TARGET = "testbed"

_DEPARTMENTS = ("cs", "ee", "inf", "net", "eecs", "comp")
_SCHOOLS = (
    "northfield", "westbrook", "eastlake", "riverside", "highgate", "lakeshore",
    "pinecrest", "oakridge", "fairview", "stonebridge", "brookhaven", "maplewood",
    "clearwater", "redhill", "silverton", "greenfield", "ashford", "kingsbury",
)


@dataclass
class Workload:
    """Generated inputs and the outcomes a correct run must report."""

    name: str
    experiment_xml: str
    mock_script: dict
    # per_node_outcomes key ("node|tasklist#s0" / "#t0") -> expected state
    expected_outcomes: dict[str, str]
    expected_overall: str
    slice_records: list[tuple[str, str, int]] = field(default_factory=list)
    limit: tuple[int, float] | None = None

    def mock_script_json(self) -> str:
        return json.dumps(self.mock_script, indent=1, sort_keys=True)


def _overall(outcomes: dict[str, str]) -> str:
    failed = any(state in ("Failed", "Aborted") for state in outcomes.values())
    return "CompletedWithErrors" if failed else "Completed"


def _ssh(name: str, host: str, indent: str) -> str:
    return (
        f'{indent}<target name="{name}" type="ssh">'
        f"<user>gplmt</user><host>{host}</host></target>"
    )


# --------------------------------------------------------------------------
# fanout_5k


def fanout(seed: int, static_nodes: int = 3000, slice_nodes: int = 2000) -> Workload:
    """One step of a 2-command tasklist over static and slice-expanded leaves.

    Static ssh leaves sit in site/rack groups; the rest come from a
    planetlab target whose slice answer also carries non-boot and repeated
    hosts, which expansion must drop. About 1% of all leaves are scripted
    unavailable. There is no <get>: this workload runs without a run
    directory, where every fetch fails by design.
    """
    rng = random.Random(f"fanout:{seed}")
    racks_per_site, per_rack = 5, 100
    sites = -(-static_nodes // (racks_per_site * per_rack))
    static_names = [f"n{i:04d}" for i in range(static_nodes)]

    lines = ['<?xml version="1.0" encoding="utf-8" ?>', "<experiment>", " <targets>"]
    lines.append('  <target name="all" type="group">')
    lines.append('   <target name="fleet" type="group">')
    lines.append('    <export-env var="ROLE" value="probe" />')
    index = 0
    for site in range(1, sites + 1):
        lines.append(f'    <target name="site{site}" type="group">')
        for rack in range(1, racks_per_site + 1):
            if index >= static_nodes:
                break
            lines.append(f'     <target name="site{site}-rack{rack}" type="group">')
            for _ in range(per_rack):
                if index >= static_nodes:
                    break
                name = static_names[index]
                host = f"{name}.rack{rack}.site{site}.example.net"
                lines.append(_ssh(name, host, "      "))
                index += 1
            lines.append("     </target>")
        lines.append("    </target>")
    lines.append("   </target>")
    lines.append(
        f'   <target name="{PLANETLAB_TARGET}" type="planetlab" '
        f'api-url="https://plc.example.org/PLCAPI/" slice="{SLICE_NAME}" '
        'user="bench@example.org"><password>bench-credential</password></target>'
    )
    lines.append("  </target>")
    lines.append(" </targets>")
    lines.append(" <tasklists>")
    lines.append('  <tasklist name="probe" timeout="PT5M">')
    lines.append("   <run>uname -a</run>")
    lines.append("   <run>cat /proc/loadavg</run>")
    lines.append("  </tasklist>")
    lines.append(" </tasklists>")
    lines.append(" <steps>")
    lines.append('  <step tasklist="probe" targets="all" />')
    lines.append(" </steps>")
    lines.append("</experiment>")

    hostnames: list[str] = []
    seen: set[str] = set()
    while len(hostnames) < slice_nodes:
        host = (
            f"planetlab{rng.randrange(1, 400)}.{rng.choice(_DEPARTMENTS)}."
            f"{rng.choice(_SCHOOLS)}.example.edu"
        )
        if host not in seen:
            seen.add(host)
            hostnames.append(host)
    records = [(host, "boot", node_id) for node_id, host in enumerate(hostnames, start=1)]
    extra_ids = len(records) + 1
    for offset, host in enumerate(rng.sample(hostnames, slice_nodes // 50)):
        records.append((host, "boot", extra_ids + offset))  # repeated host
    extra_ids += slice_nodes // 50
    for offset in range(slice_nodes // 20):
        host = f"planetlab{offset + 1}.dbg.{rng.choice(_SCHOOLS)}.example.edu"
        records.append((host, rng.choice(("dbg", "disabled", "reinstall")), extra_ids + offset))
    rng.shuffle(records)

    leaves = static_names + [f"{PLANETLAB_TARGET}:{host}" for host in hostnames]
    unavailable = set(rng.sample(sorted(leaves), len(leaves) // 100))
    script = {
        "nodes": {
            "*": {
                "rules": [
                    {"pattern": "uname -a", "duration": round(rng.uniform(0.2, 0.6), 3),
                     "stdout": "Linux 6.1.0 x86_64 GNU/Linux\n"},
                    {"pattern": "cat /proc/loadavg", "duration": round(rng.uniform(0.05, 0.2), 3),
                     "stdout": "0.08 0.03 0.01 1/97 4242\n"},
                ]
            },
            **{name: {"available": False} for name in sorted(unavailable)},
        }
    }
    outcomes = {
        f"{leaf}|probe#s0": "Failed" if leaf in unavailable else "Succeeded" for leaf in leaves
    }
    return Workload(
        name="fanout_5k",
        experiment_xml="\n".join(lines) + "\n",
        mock_script=script,
        expected_outcomes=outcomes,
        expected_overall=_overall(outcomes),
        slice_records=records,
        limit=(100, 1.0),
    )


# --------------------------------------------------------------------------
# deep workloads

# The node tasklist: 20 leaf tasks mixing run, seq, par, call and get.
# The callee and the node tasklist each have their own cleanup; a teardown
# registered before the step runs one command on every node at the end.
_DEEP_TASKLISTS = """\
  <tasklist name="job" cleanup="job-cleanup">
   <run>prepare-workdir</run>
   <seq>
    <run>fetch-inputs</run>
    <run>unpack-inputs</run>
    <run>verify-inputs</run>
   </seq>
   <par>
    <run>probe-latency</run>
    <run>probe-bandwidth</run>
    <seq>
     <run>probe-loss</run>
     <run>probe-jitter</run>
    </seq>
   </par>
   <call ref="measure" />
   <par>
    <run>compress-logs</run>
    <run>index-results</run>
   </par>
   <get>summary.json</get>
   <run>upload-results</run>
   <run>report-status</run>
   <run>remove-workdir</run>
  </tasklist>
  <tasklist name="measure" cleanup="measure-cleanup">
   <run>start-capture</run>
   <run>run-workload</run>
   <par>
    <run>sample-cpu</run>
    <run>sample-mem</run>
   </par>
   <get>capture.pcap</get>
   <run>stop-capture</run>
  </tasklist>
  <tasklist name="job-cleanup">
   <run>collect-debug</run>
   <get>debug.log</get>
  </tasklist>
  <tasklist name="measure-cleanup">
   <run>kill-capture</run>
  </tasklist>
  <tasklist name="teardown">
   <run>release-node</run>
  </tasklist>
"""

_DEEP_COMMANDS = (
    "prepare-workdir", "fetch-inputs", "unpack-inputs", "verify-inputs",
    "probe-latency", "probe-bandwidth", "probe-loss", "probe-jitter",
    "start-capture", "run-workload", "sample-cpu", "sample-mem", "stop-capture",
    "compress-logs", "index-results", "upload-results", "report-status",
    "remove-workdir", "collect-debug", "kill-capture", "release-node",
)
# Commands a failing node may fail on: direct job tasks abort the tasklist,
# tasks inside `measure` are contained at the call.
_FAILABLE = (
    "fetch-inputs", "probe-bandwidth", "probe-jitter", "run-workload",
    "sample-mem", "index-results", "upload-results",
)
_DEEP_FILES = {
    "summary.json": '{"status": "ok", "samples": 128}\n',
    "capture.pcap": "PCAP-CAPTURE-PLACEHOLDER\n",
    "debug.log": "debug: nothing unusual\n",
}


def deep(
    seed: int,
    nodes: int,
    name: str,
    duration_range: tuple[float, float],
    fail_share: float = 0.05,
    loss_share: float = 0.02,
) -> Workload:
    """Every node runs the 20-task `job` tasklist, then a teardown.

    `fail_share` of the nodes get one failing command; `loss_share` lose
    their connection during their first command and need one failed
    reconnect plus a backoff before their cleanup can run. Every other
    command succeeds after a seeded duration drawn from `duration_range`.
    """
    rng = random.Random(f"{name}:{seed}")
    names = [f"n{i:04d}" for i in range(nodes)]
    lines = ['<?xml version="1.0" encoding="utf-8" ?>', "<experiment>", " <targets>"]
    lines.append('  <target name="cluster" type="group">')
    for start in range(0, nodes, 100):
        pod = start // 100 + 1
        lines.append(f'   <target name="pod{pod:02d}" type="group">')
        lines.append(f'    <export-env var="POD" value="pod{pod:02d}" />')
        for node in names[start:start + 100]:
            lines.append(_ssh(node, f"{node}.pod{pod:02d}.example.net", "    "))
        lines.append("   </target>")
    lines.append("  </target>")
    lines.append(" </targets>")
    lines.append(" <tasklists>")
    lines.append(_DEEP_TASKLISTS.rstrip("\n"))
    lines.append(" </tasklists>")
    lines.append(" <steps>")
    lines.append('  <register-teardown ref="teardown" targets="cluster" />')
    lines.append('  <step tasklist="job" targets="cluster" />')
    lines.append(" </steps>")
    lines.append("</experiment>")

    low, high = duration_range
    durations = {cmd: round(rng.uniform(low, high), 3) for cmd in _DEEP_COMMANDS}
    rules = [
        {"pattern": cmd, "duration": durations[cmd], "stdout": f"{cmd}: ok\n"}
        for cmd in _DEEP_COMMANDS
    ]
    shuffled = rng.sample(names, len(names))
    failing = shuffled[: round(nodes * fail_share)]
    losing = shuffled[len(failing): len(failing) + round(nodes * loss_share)]

    node_scripts: dict[str, dict] = {"*": {"rules": rules, "files": _DEEP_FILES}}
    for node in failing:
        cmd = rng.choice(_FAILABLE)
        fail_rule = {"pattern": cmd, "exit": 1, "duration": durations[cmd],
                     "stderr": f"{cmd}: exit status 1\n"}
        node_scripts[node] = {"rules": [fail_rule] + rules, "files": _DEEP_FILES}
    # The first command of a losing node runs ten times longer and the loss
    # strikes at its middle, so on the real clock it still lands mid-command
    # unless that command starts five plain command durations late.
    hold = 10 * durations["prepare-workdir"]
    for node in losing:
        node_scripts[node] = {
            "rules": [{"pattern": "prepare-workdir", "duration": hold}] + rules,
            "files": _DEEP_FILES,
            "lose_connection_at": [round(hold / 2, 6)],
            "connect_failures": 1,
        }
    broken = set(failing) | set(losing)
    outcomes = {}
    for node in names:
        outcomes[f"{node}|job#s0"] = "Failed" if node in broken else "Succeeded"
        outcomes[f"{node}|teardown#t0"] = "Succeeded"
    return Workload(
        name=name,
        experiment_xml="\n".join(lines) + "\n",
        mock_script={"nodes": node_scripts},
        expected_outcomes=outcomes,
        expected_overall=_overall(outcomes),
    )


def deep_rundir(seed: int, nodes: int = 2000) -> Workload:
    return deep(seed, nodes, "deep_2k_rundir", (1.0, 20.0))


def deep_realclock(seed: int, nodes: int = 100) -> Workload:
    # Every command takes the same time, so the ideal schedule, and with it
    # the real run time, does not depend on the seed.
    return deep(seed, nodes, "deep_500_realclock", (0.2, 0.2))


GENERATORS = {
    "fanout_5k": fanout,
    "deep_2k_rundir": deep_rundir,
    "deep_500_realclock": deep_realclock,
}
