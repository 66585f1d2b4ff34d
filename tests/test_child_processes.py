"""Real commands and transfers on local and (fake) ssh nodes: what a child
writes, when its task ends, and that its process group ends with the task,
also when Ctrl-C interrupts the run.

Each test starts a few short-lived children. A command that may outlive
its test writes its shell's pid (`$$`, also its process group id) to a
file, and the test kills that group in a `finally`.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import gplmt
from gplmt.scheduler import run_experiment
from gplmt.transport import KILL_GRACE_SECONDS, make_transport_factory

from .conftest import events_of

SRC = Path(gplmt.__file__).resolve().parent.parent


def document(tasklists: str, targets: str = '<target name="ctl" type="local" />',
             step_targets: str = "ctl", steps: str = "") -> str:
    return f"""
<experiment>
 <targets>{targets}</targets>
 <tasklists>{tasklists}</tasklists>
 <steps>{steps}<step tasklist="work" targets="{step_targets}" /></steps>
</experiment>
"""


SSH_AND_LOCAL = """
   <target name="alpha" type="ssh"><user>u</user><host>alpha.example.org</host></target>
   <target name="ctl" type="local" />"""


def kill_group(pid_file: Path) -> None:
    pid = pid_file.read_text().strip() if pid_file.exists() else ""
    if pid:
        try:
            os.killpg(int(pid), signal.SIGKILL)
        except ProcessLookupError:
            pass


def live_members(pgid: int) -> list[int]:
    """The pids in process group `pgid` that have not exited. A member whose
    parent died first stays a zombie until init reaps it, and until then
    `os.killpg(pgid, 0)` still finds the group, so zombies are left out."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, group = stat.read_text().rpartition(")")[2].split()[:3]
        except OSError:
            continue  # exited meanwhile
        if int(group) == pgid and state != "Z":
            live.append(int(stat.parent.name))
    return live


def alive(pid: int) -> bool:
    """Whether process `pid` exists and is no zombie."""
    try:
        return (Path("/proc") / str(pid) / "stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def run_real(experiment, run_dir=None):
    return run_experiment(experiment, make_transport_factory(), real_time=True, run_dir=run_dir)


def task_ends(run_dir: Path) -> list[str]:
    return [e["detail"] for e in events_of(run_dir) if e["kind"] == "TaskEnd"]


def test_a_timed_out_command_keeps_what_it_wrote(load_xml, tmp_path):
    pid_file, run_dir = tmp_path / "pid", tmp_path / "run"
    experiment = load_xml(document(f"""
   <tasklist name="work" timeout="PT1S">
     <run>echo $$ > {pid_file}; echo progress-before-hang; echo err 1>&amp;2; sleep 5</run>
   </tasklist>"""))
    try:
        run_real(experiment, run_dir)
    finally:
        kill_group(pid_file)
    assert task_ends(run_dir)[0].startswith("TimedOut ")
    (stdout,) = (run_dir / "ctl").glob("stdout-*.log")
    (stderr,) = (run_dir / "ctl").glob("stderr-*.log")
    assert stdout.read_text() == "progress-before-hang\n"
    assert stderr.read_text() == "err\n"


def test_an_aborted_step_ends_the_process_group_of_a_running_command(load_xml, tmp_path):
    # a fails once b's command has written its pid; abort-step then cancels
    # b, whose shell and sleep must both be gone when the run returns
    pid_file = tmp_path / "pid"
    experiment = load_xml(document(
        f"""
   <tasklist name="work" on-error="abort-step">
     <run>if [ "$ROLE" = fail ]; then
            while [ ! -s {pid_file} ]; do sleep 0.02; done; exit 1
          fi; echo $$ > {pid_file}; sleep 6.789</run>
   </tasklist>""",
        targets="""
   <target name="pair" type="group">
     <target name="a" type="local"><export-env var="ROLE" value="fail" /></target>
     <target name="b" type="local"><export-env var="ROLE" value="wait" /></target>
   </target>""",
        step_targets="pair",
    ))
    try:
        report = run_real(experiment)
        pgid = int(pid_file.read_text())
        deadline = time.monotonic() + 1.0  # for the signals to be delivered
        while live_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_members(pgid) == []
    finally:
        kill_group(pid_file)
    assert report.per_node_outcomes["b|work#s0"] == "Aborted"


def test_a_background_job_does_not_hold_its_task(load_xml, tmp_path):
    pid_file, run_dir = tmp_path / "pid", tmp_path / "run"
    experiment = load_xml(document(f"""
   <tasklist name="work"><run>echo $$ > {pid_file}; sleep 30 &amp;</run></tasklist>"""))
    started = time.monotonic()
    try:
        run_real(experiment, run_dir)
        elapsed = time.monotonic() - started
    finally:
        kill_group(pid_file)
    assert task_ends(run_dir)[0].startswith("Success exit=0")
    assert elapsed < 1.0


def test_a_local_fan_out_adds_no_thread(load_xml):
    # 48 commands run at once; the controller learns of each exit on its
    # own thread, so the run adds none (the sampler's is not counted)
    nodes = "".join(f'<target name="n{i}" type="local" />' for i in range(48))
    experiment = load_xml(document(
        '<tasklist name="work"><run>sleep 0.5</run></tasklist>',
        targets=f'<target name="all" type="group">{nodes}</target>', step_targets="all",
    ))
    before = peak = threading.active_count()
    done = threading.Event()

    def sample():
        nonlocal peak
        while not done.wait(0.002):
            peak = max(peak, threading.active_count() - 1)  # less the sampler itself

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        report = run_real(experiment)
    finally:
        done.set()
        sampler.join(10)
    assert not sampler.is_alive()
    assert set(report.per_node_outcomes.values()) == {"Succeeded"}
    assert peak == before


FEW_DESCRIPTORS = """
import json, resource, sys
from gplmt.parser import load_experiment
from gplmt.scheduler import run_experiment
from gplmt.transport import make_transport_factory
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
experiment, _ = load_experiment(sys.argv[1])
report = run_experiment(experiment, make_transport_factory(), real_time=True, run_dir=sys.argv[2])
print(json.dumps(report.per_node_outcomes))
"""


def test_a_local_fan_out_fits_a_low_descriptor_limit(tmp_path):
    # Under a soft limit of 64 (set in the controller's own process only),
    # 48 running children fit: each costs the controller its pidfd alone,
    # not its stdout and stderr files as well.
    nodes = "".join(f'<target name="n{i}" type="local" />' for i in range(48))
    path = tmp_path / "exp.xml"
    path.write_text(document(
        '<tasklist name="work"><run>sleep 0.3; echo hi</run></tasklist>',
        targets=f'<target name="all" type="group">{nodes}</target>', step_targets="all",
    ), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", FEW_DESCRIPTORS, str(path), str(tmp_path / "run")],
                          capture_output=True, env=env, timeout=60, check=True)
    outcomes = json.loads(done.stdout)
    assert len(outcomes) == 48
    assert set(outcomes.values()) == {"Succeeded"}
    assert (tmp_path / "run" / "n47" / "stdout-0-0.log").read_text() == "hi\n"


def test_a_cancelled_ssh_connect_ends_its_client(load_xml, tmp_path, monkeypatch):
    # a client whose master never comes up: it waits on a job of its own
    # until its step's stop time cancels the connect
    pid_file, client = tmp_path / "pid", tmp_path / "hanging-ssh"
    client.write_text(
        "#!/bin/sh\n"
        f'case "$*" in *ControlMaster=yes*) sleep 30 & echo $$ $! > {pid_file}; wait;; esac\n'
    )
    client.chmod(0o755)
    monkeypatch.setenv("GPLMT_SSH_CLIENT", str(client))
    experiment = load_xml(document(
        '<tasklist name="work"><run>true</run></tasklist>',
        targets=SSH_AND_LOCAL, step_targets="alpha",
    ).replace('targets="alpha" />', 'targets="alpha" stop="PT1S" />'))
    pids: list[int] = []
    try:
        report = run_real(experiment)
        pids = [int(pid) for pid in pid_file.read_text().split()]
        deadline = time.monotonic() + KILL_GRACE_SECONDS
        while live_members(pids[0]) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert [pid for pid in pids if alive(pid)] == []
        assert live_members(pids[0]) == []
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert report.per_node_outcomes["alpha|work#s0"] == "Failed"


CHILD = """
import resource, sys
from gplmt.parser import load_experiment
from gplmt.scheduler import run_experiment
from gplmt.transport import make_transport_factory
experiment, _ = load_experiment(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run_experiment(experiment, make_transport_factory(), real_time=True, run_dir=sys.argv[2])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def run_in_child(xml: str, tmp_path: Path, stdin: bytes = b"") -> tuple[Path, int]:
    """Run the document in a fresh controller process whose fd 0 is a pipe
    holding `stdin`; returns the run directory and how many KiB the
    controller's peak RSS grew during the run."""
    path, run_dir = tmp_path / "exp.xml", tmp_path / "run"
    path.write_text(xml, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", CHILD, str(path), str(run_dir)], input=stdin,
                          capture_output=True, env=env, timeout=60, check=True)
    return run_dir, int(done.stdout)


def test_commands_read_dev_null_not_the_controllers_stdin(tmp_path):
    xml = document('<tasklist name="work"><run>head -c 1</run></tasklist>')
    run_dir, _ = run_in_child(xml, tmp_path, stdin=b"controller-bytes")
    (stdout,) = (run_dir / "ctl").glob("stdout-*.log")
    assert stdout.read_bytes() == b""


def test_output_goes_to_disk_without_passing_through_the_controller(tmp_path):
    size = 64_000_000
    xml = document(f'<tasklist name="work"><run>head -c {size} /dev/zero</run></tasklist>')
    run_dir, grown_kib = run_in_child(xml, tmp_path)
    (stdout,) = (run_dir / "ctl").glob("stdout-*.log")
    assert stdout.stat().st_size == size
    stdout.unlink()
    assert grown_kib < 16 * 1024


def test_a_local_get_streams_without_passing_through_the_controller(tmp_path):
    size = 64_000_000
    source = tmp_path / "big.bin"
    with open(source, "wb") as handle:
        handle.truncate(size)  # sparse: costs no disk blocks
    xml = document(f'<tasklist name="work"><get>{source}</get></tasklist>')
    run_dir, grown_kib = run_in_child(xml, tmp_path)
    fetched = run_dir / "ctl" / "big.bin"
    assert fetched.stat().st_size == size
    fetched.unlink()
    assert grown_kib < 16 * 1024


def unblock_after(seconds: float, fifo: Path) -> str:
    """A tasklist that opens `fifo` read-write after `seconds` and closes it
    again: a reader or writer blocked on it then goes on. On Linux this open
    never blocks, whether or not the transfer is still there."""
    return f"""
   <tasklist name="unblock"><run>sleep {seconds}; : 3&lt;&gt; {fifo}</run></tasklist>"""


def transfer_end(run_dir: Path) -> dict:
    (end,) = [e for e in events_of(run_dir) if e["kind"] == "TaskEnd" and e["node"] == "alpha"]
    return end


def test_an_ssh_get_that_hangs_ends_at_its_tasklist_timeout(load_xml, tmp_path, fake_ssh):
    # `cat` of a FIFO without a writer blocks until the other step opens it
    fifo, run_dir = tmp_path / "remote.fifo", tmp_path / "run"
    os.mkfifo(fifo)
    experiment = load_xml(document(
        f'<tasklist name="work" timeout="PT1S"><get>{fifo}</get></tasklist>'
        + unblock_after(2.5, fifo),
        targets=SSH_AND_LOCAL, step_targets="alpha",
        steps='<step tasklist="unblock" targets="ctl" />',
    ))
    run_real(experiment, run_dir)
    end = transfer_end(run_dir)
    assert end["detail"] == f"TimedOut get={fifo}"
    assert 1.0 <= end["ts"] < 1.0 + KILL_GRACE_SECONDS
    assert list((run_dir / "alpha").iterdir()) == []  # no .part file is left


def test_an_ssh_put_that_hangs_ends_at_its_steps_stop_time(load_xml, tmp_path, fake_ssh):
    # the put writes `<path>.part` first; as a FIFO without a reader, its
    # open blocks until the other step opens it
    local, run_dir = tmp_path / "payload.bin", tmp_path / "run"
    local.write_bytes(b"payload")
    os.mkfifo(tmp_path / "payload.bin.part")
    experiment = load_xml(document(
        f'<tasklist name="work"><put>{local}</put></tasklist>'
        + unblock_after(2.5, tmp_path / "payload.bin.part"),
        targets=SSH_AND_LOCAL, step_targets="alpha",
        steps='<step tasklist="unblock" targets="ctl" />',
    ).replace('<step tasklist="work" targets="alpha" />',
              '<step tasklist="work" targets="alpha" stop="PT1S" />'))
    run_real(experiment, run_dir)
    end = transfer_end(run_dir)
    assert end["detail"] == f"TimedOut put={local}"
    assert 1.0 <= end["ts"] < 1.0 + KILL_GRACE_SECONDS


def test_ctrl_c_ends_the_commands_runs_the_teardowns_and_exits_130(tmp_path):
    pid_file, torn_down, logs = tmp_path / "pid", tmp_path / "torn-down", tmp_path / "logs"
    xml = f"""
<experiment>
 <targets><target name="ctl" type="local" /></targets>
 <tasklists>
   <tasklist name="work"><run>echo $$ > {pid_file}; sleep 30</run></tasklist>
   <tasklist name="fin"><run>touch {torn_down}</run></tasklist>
 </tasklists>
 <steps>
   <register-teardown ref="fin" targets="ctl" />
   <step tasklist="work" targets="ctl" />
 </steps>
</experiment>
"""
    path = tmp_path / "exp.xml"
    path.write_text(xml, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    gplmt_cli = subprocess.Popen(
        [sys.executable, "-m", "gplmt.cli", str(path), "--log-dir", str(logs)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        deadline = time.monotonic() + 20
        while not (pid_file.exists() and pid_file.read_text().strip()):
            assert gplmt_cli.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        gplmt_cli.send_signal(signal.SIGINT)
        _, stderr = gplmt_cli.communicate(timeout=20)
        pgid = int(pid_file.read_text())
        deadline = time.monotonic() + 1.0  # for the signals to be delivered
        while live_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_members(pgid) == []
    finally:
        if gplmt_cli.poll() is None:
            gplmt_cli.kill()
            gplmt_cli.communicate()
        kill_group(pid_file)
    assert gplmt_cli.returncode == 130
    assert b"Traceback" not in stderr
    assert stderr.decode().endswith("gplmt: interrupted\n")
    assert torn_down.exists()
    (report,) = logs.glob("*/report.json")
    outcomes = json.loads(report.read_text())["per_node_outcomes"]
    assert outcomes["ctl|work#s0"] == "Aborted"
    assert outcomes["ctl|fin#t0"] == "Succeeded"
