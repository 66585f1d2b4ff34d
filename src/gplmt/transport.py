"""Node connections: local shell, external ssh client, and a scripted mock.

All transports are driven through Session objects handed out by a
SessionPool. The pool keeps at most one live session per node, gates every
establishment attempt through a sliding-window RateLimiter, and retries
lost connections with exponential backoff.
"""
from __future__ import annotations

import asyncio
import contextlib
import enum
import fnmatch
import json
import math
import os
import posixpath
import re
import shlex
import shutil
import signal
import tempfile
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from subprocess import DEVNULL, Popen
from typing import NamedTuple

from .model import TargetDef, TargetKind, TaskOutcome, TaskResult
from .telemetry import (
    ArtifactPathError,
    EventKind,
    _safe_component,
    artifact_path,
    node_artifact_dir,
)

DEFAULT_RECONNECT_BASE = 1.0
DEFAULT_RECONNECT_FACTOR = 2.0
DEFAULT_RECONNECT_CAP = 60.0
DEFAULT_RECONNECT_BUDGET = 5
KILL_GRACE_SECONDS = 5.0


class TransportError(Exception):
    """Base of all connection and transfer failures."""


class ConnectFailed(TransportError):
    """An attempt to establish a session failed, or every retry did."""


class SessionClosed(TransportError):
    """A command was issued on a session that is not connected."""


class SessionState(enum.Enum):
    CONNECTED = "Connected"
    LOST = "Lost"
    CLOSED = "Closed"


# Bound once: on CPython 3.11 every `EnumClass.MEMBER` read goes through the
# enum metaclass's attribute hook, and these are read on every acquire or
# command.
_CONNECTED, _LOST = SessionState.CONNECTED, SessionState.LOST
_SUCCESS, _FAILED = TaskOutcome.SUCCESS, TaskOutcome.FAILED
_CONNECT_ATTEMPT, _CONNECT_SUCCESS = EventKind.CONNECT_ATTEMPT, EventKind.CONNECT_SUCCESS
_new_tuple = tuple.__new__  # builds a named tuple without its Python __new__


@dataclass(frozen=True)
class RateLimiterConfig:
    """At most max_attempts connection attempts per sliding interval."""

    max_attempts: int
    interval: float

    def __post_init__(self) -> None:
        if self.max_attempts <= 0 or not 0 < self.interval < math.inf:
            raise ValueError("max_attempts and interval must be positive, interval finite")


class Turns:
    """One turn per key, handed from holder to holder in FIFO order as
    asyncio.Lock hands on its lock, but a waiter awaits a bare future, not
    a coroutine of its own, and a key holds nothing once its turn is free.

    `take(key)` returns None when the turn was free and is now the caller's,
    else a future queued behind the holder and the earlier waiters; the
    caller awaits it and then holds the turn. Either way the caller ends
    with `release(key, taken)`, passing what take returned. A release wakes
    one waiter, skipping those cancelled while queued: they never held the
    turn, and their release passes nothing on. The woken waiter holds the
    turn from then on, so newcomers queue behind it, and if it is cancelled
    before it runs, its release passes the turn on.
    """

    __slots__ = ("_waiters",)

    def __init__(self):
        # key -> None while held with no waiter, else its deque of waiters
        self._waiters: dict = {}

    def take(self, key) -> asyncio.Future | None:
        if key not in self._waiters:
            self._waiters[key] = None
            return None
        waiters = self._waiters[key]
        if waiters is None:
            waiters = self._waiters[key] = deque()
        waiter = asyncio.get_running_loop().create_future()
        waiters.append(waiter)
        return waiter

    def release(self, key, taken: asyncio.Future | None) -> None:
        if taken is not None and taken.cancelled():
            return  # cancelled while queued: the turn was never this caller's
        waiters = self._waiters[key]
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        del self._waiters[key]


class RateLimiter:
    """Sliding-window permit source; None config means unlimited.

    Waiters are served in FIFO order; in every half-open window of length
    `interval` at most `max_attempts` permits are granted.
    """

    def __init__(self, config: RateLimiterConfig | None):
        self._config = config
        self._grants: deque[float] = deque()
        self._turns = Turns()  # one turn, under the key None

    async def wait(self) -> None:
        if self._config is None:
            return
        # The head waiter holds the turn and sleeps until a permit is due;
        # every waiter behind it awaits its bare future.
        taken = self._turns.take(None)
        try:
            if taken is not None:
                await taken
            loop_time = asyncio.get_running_loop().time
            while True:
                now = loop_time()
                while self._grants and self._grants[0] <= now - self._config.interval:
                    self._grants.popleft()
                if len(self._grants) < self._config.max_attempts:
                    self._grants.append(now)
                    return
                await asyncio.sleep(self._grants[0] + self._config.interval - now)
        finally:
            self._turns.release(None, taken)


class ExecOutput(NamedTuple):
    """Raw transport result, before classification.

    Immutable, so one output can be shared: the mock builds one per rule.
    """

    exit_code: int
    timed_out: bool = False
    connection_lost: bool = False


class Session:
    """One control connection to a node; all commands tunnel through it."""

    __slots__ = ("node", "state", "connect_count", "transport", "pool")

    def __init__(self, node: str, transport, pool: SessionPool):
        self.node = node
        self.state = SessionState.CLOSED
        self.connect_count = 0
        self.transport = transport
        self.pool = pool

    def _require_connected(self) -> None:
        if self.state is not _CONNECTED:
            raise SessionClosed(f"session to {self.node} is {self.state.value}")

    def mark_lost(self) -> None:
        if self.state is _CONNECTED:
            self.state = _LOST
            self.pool.emit(EventKind.CONNECT_LOST, self.node, detail="")

    def _result(self, output: ExecOutput, stdout_ref: str = "", stderr_ref: str = "") -> TaskResult:
        """The one classifier of a child's exit (exec, fetch and push)."""
        if output.connection_lost:
            outcome = TaskOutcome.CONNECTION_LOST
            self.mark_lost()
        elif output.timed_out:
            outcome = TaskOutcome.TIMED_OUT
        elif output.exit_code == 0:
            outcome = _SUCCESS
        else:
            outcome = _FAILED
        return _new_tuple(TaskResult, (output.exit_code, stdout_ref, stderr_ref, outcome))

    async def exec(
        self,
        command: str,
        env: tuple[tuple[str, str], ...] = (),
        deadline: float | None = None,
        artifact_label: str | None = None,
    ) -> TaskResult:
        """Run a shell command on the node. With an artifact root and a label,
        the transport writes its output to `<node>/stdout-<label>.log` and
        `<node>/stderr-<label>.log` there. `deadline` is an instant of the
        running loop's time(); when it passes first the process group is
        terminated and the outcome is TimedOut.
        """
        self._require_connected()
        stdout_ref = stderr_ref = ""
        outputs = None
        root = self.pool.artifact_root
        if root is not None and artifact_label is not None:
            stdout_ref = f"{self.node}/stdout-{artifact_label}.log"
            stderr_ref = f"{self.node}/stderr-{artifact_label}.log"
            outputs = (root / stdout_ref, root / stderr_ref)
        output = await self.transport.exec(command, env, deadline, outputs)
        return self._result(output, stdout_ref, stderr_ref)

    async def fetch(self, remote_path: str, deadline=None) -> TaskResult:
        """Copy a node-side file to `<artifact_root>/<node>/<basename>` under
        `deadline`, as exec; stdout_ref names that file, there on Success.
        The transport writes `<basename>.part`, renamed on exit 0 and
        otherwise removed, so no transport leaves a partial file."""
        self._require_connected()
        if self.pool.artifact_root is None:
            raise TransportError("no artifact directory configured for fetch")
        node_artifact_dir(self.pool.artifact_root, self.node)  # the destination's directory
        try:
            destination = artifact_path(self.pool.artifact_root, self.node, remote_path)
        except ArtifactPathError:
            raise TransportError(f"not a file path: {remote_path!r}") from None
        part = destination.with_name(destination.name + ".part")
        try:
            output = await self.transport.fetch(remote_path, part, deadline)
            if output.exit_code == 0 and not output.timed_out:
                os.replace(part, destination)
        finally:
            part.unlink(missing_ok=True)
        return self._result(output, f"{self.node}/{destination.name}")

    async def push(self, local_path: str | Path, remote_path: str, deadline=None) -> TaskResult:
        """Copy a controller-side file to the node, atomically at the name."""
        self._require_connected()
        local_path = Path(local_path)
        if not local_path.is_file():
            raise TransportError(str(local_path))
        return self._result(await self.transport.push(local_path, remote_path, deadline))

    async def close(self) -> None:
        if self.state is not SessionState.CLOSED:
            self.state = SessionState.CLOSED
            await self.transport.close()


class SessionPool:
    """Registry of live sessions, at most one per node at any instant, and
    of the turns that serialize the executions on each node (node_turns).
    It owns the connection policy: its RateLimiter gates every attempt (see
    acquire), and events go to `emit`, the runner's, which the runner drops
    once its run has closed the pool."""

    def __init__(
        self,
        transport_factory,
        emit,
        artifact_root: str | Path | None = None,
        limiter_config: RateLimiterConfig | None = None,
    ):
        self.transport_factory = transport_factory
        self.emit = emit
        self.artifact_root = Path(artifact_root) if artifact_root is not None else None
        self.limiter = RateLimiter(limiter_config)
        # Only the holder of a node's turn may acquire and use its session.
        self.node_turns = Turns()
        self._sessions: dict[str, Session] = {}
        self._reconnects = Turns()
        self._attempt_details: dict[str, str] = {}  # one "attempt=N" per N and run

    def _next_attempt(self, session: Session) -> str:
        """Count one more connection attempt; returns its event detail."""
        session.connect_count += 1
        detail = f"attempt={session.connect_count}"
        return self._attempt_details.setdefault(detail, detail)

    async def acquire(self, target: TargetDef) -> Session:
        """Return the node's live session, establishing one if needed.

        A first connect is tried once and raises its own error. A lost
        session is retried with exponential backoff, at most
        DEFAULT_RECONNECT_BUDGET attempts, and then raises ConnectFailed.
        Every attempt waits for its permit from the pool's limiter.
        With an artifact root, a node name that cannot serve as one path
        component raises ArtifactPathError before any connection attempt.

        The caller holds the node's turn (see node_turns). Only the
        branches of one `<par>` can then ask at once, each to run a callee's
        cleanup: they reconnect one at a time, so the first reconnects the
        session and the others take it as it then is.
        """
        if target.kind is TargetKind.GROUP:
            raise ValueError(f"cannot open a session to group {target.name!r}")
        session = self._sessions.get(target.name)
        reconnecting = taken = None
        if session is None:
            if self.artifact_root is not None:
                _safe_component(target.name)
            # A factory error costs no permit; the session is built only
            # once the permit is granted, so a parked node holds none.
            transport = self.transport_factory(target)
        elif session.state is _CONNECTED:
            return session
        else:
            reconnecting = target.name
            taken = self._reconnects.take(reconnecting)
        try:
            if taken is not None:
                await taken
            if session is not None and session.state is _CONNECTED:
                return session  # reconnected while this waited
            lost = session is not None and session.state is _LOST
            budget = DEFAULT_RECONNECT_BUDGET if lost else 1
            attempt, delay = 0, DEFAULT_RECONNECT_BASE
            while attempt < budget:  # a range iterator would cost every parked node 32 B
                if attempt:
                    await asyncio.sleep(delay)
                    delay = min(delay * DEFAULT_RECONNECT_FACTOR, DEFAULT_RECONNECT_CAP)
                attempt += 1
                await self.limiter.wait()
                if session is None:
                    session = self._sessions[target.name] = Session(target.name, transport, self)
                detail = self._next_attempt(session)
                self.emit(_CONNECT_ATTEMPT, session.node, detail=detail)
                try:
                    await session.transport.connect()
                except ConnectFailed:
                    if not lost:
                        raise
                    continue
                session.state = _CONNECTED
                self.emit(_CONNECT_SUCCESS, session.node, detail=detail)
                return session
            raise ConnectFailed(
                f"gave up reconnecting to {target.name} after {DEFAULT_RECONNECT_BUDGET} attempts"
            )
        finally:
            if reconnecting is not None:
                self._reconnects.release(reconnecting, taken)

    async def close_all(self) -> None:
        """Close every session, then forget them: a session points back at
        the pool, so only this lets reference counting free them. The pool
        stays usable: a later acquire connects afresh."""
        for session in self._sessions.values():
            await session.close()
        self._sessions = {}


# --------------------------------------------------------------------------
# child processes: the shell transports


def _shell_line(command: str, env: tuple[tuple[str, str], ...]) -> str:
    """`export NAME='value'; ... command`; the parser admits only shell names."""
    return "".join(f"export {name}={shlex.quote(value)}; " for name, value in env) + command


def _shell_path(path: str) -> str:
    """`path` as one shell word. A leading `~/` or `~name/` stays unquoted, so
    the node's shell expands it, and the rest is quoted; any other `~` is
    quoted with the rest."""
    prefix = re.match(r"~[A-Za-z0-9._-]*(?:/|$)", path)
    if prefix is None:
        return shlex.quote(path)
    rest = path[prefix.end():]
    return prefix.group() + (shlex.quote(rest) if rest else "")


async def _run_child(
    argv: list[str], deadline: float | None, stdin=DEVNULL, stdout=DEVNULL, stderr=DEVNULL
) -> ExecOutput:
    """Run argv in a process group of its own, awaiting only the child's
    exit, which its pidfd reports to the loop: a background job it leaves
    holds up nothing, and no thread waits. When `deadline` (loop time)
    passes first, or the awaiting task is cancelled, the group is
    terminated; the output is then TimedOut, or the cancellation goes on.

    A stdio stream given as a Path is opened (stdin to read, the others to
    write) only for the spawn: the child holds its own copy, so a running
    child costs the controller one descriptor, its pidfd. DEVNULL or an
    open file passes through as it is."""
    with contextlib.ExitStack() as spawning:
        stdio = [
            spawning.enter_context(open(stream, mode)) if isinstance(stream, Path) else stream
            for stream, mode in ((stdin, "rb"), (stdout, "wb"), (stderr, "wb"))
        ]
        proc = Popen(argv, stdin=stdio[0], stdout=stdio[1], stderr=stdio[2], start_new_session=True)
    loop = asyncio.get_running_loop()
    exited = loop.create_future()
    pidfd = os.pidfd_open(proc.pid)

    def reap() -> None:
        loop.remove_reader(pidfd)
        os.close(pidfd)
        exited.set_result(proc.wait())

    loop.add_reader(pidfd, reap)
    try:
        async with asyncio.timeout_at(deadline):
            return ExecOutput(await asyncio.shield(exited))
    except TimeoutError:
        await _terminate_group(proc, exited)
        return ExecOutput(proc.returncode, timed_out=True)
    except asyncio.CancelledError:
        await _terminate_group(proc, exited)
        raise


async def _terminate_group(proc, exited: asyncio.Future) -> None:
    """SIGTERM the child's group, then SIGKILL it if the child has not
    exited after KILL_GRACE_SECONDS or this wait is cancelled."""
    _signal_group(proc, signal.SIGTERM)
    try:
        async with asyncio.timeout(KILL_GRACE_SECONDS):
            await asyncio.shield(exited)
    except TimeoutError:
        pass
    finally:
        if not exited.done():
            _signal_group(proc, signal.SIGKILL)
    await exited


def _signal_group(proc, signum: int) -> None:
    try:
        os.killpg(proc.pid, signum)  # a new session's group id is its leader's pid
    except (ProcessLookupError, PermissionError):
        pass  # the group is gone (its id may since name another user's group)


class LocalTransport:
    """Runs every command and transfer as a `/bin/sh -c` child under its
    deadline; SshTransport runs the same scripts through its ssh client.
    `fetch` streams `cat` into the file it is given (Session.fetch stages
    it); `push` is `cat` on the node, reading the local file."""

    def __init__(self, target: TargetDef):
        self.target = target

    async def connect(self) -> None:
        return None  # nothing to establish

    async def _run(self, script: str, deadline: float | None, **files) -> ExecOutput:
        """Run a shell script on the node; `files` are _run_child's."""
        return await _run_child(["/bin/sh", "-c", script], deadline, **files)

    async def exec(
        self, command: str, env: tuple[tuple[str, str], ...], deadline: float | None, outputs
    ) -> ExecOutput:
        """Run the command, writing to the (stdout, stderr) `outputs` paths, if any."""
        script = _shell_line(command, env)
        if outputs is None:
            return await self._run(script, deadline)
        outputs[0].parent.mkdir(parents=True, exist_ok=True)
        return await self._run(script, deadline, stdout=outputs[0], stderr=outputs[1])

    async def fetch(self, remote_path: str, destination: Path, deadline=None) -> ExecOutput:
        return await self._run(f"cat -- {_shell_path(remote_path)}", deadline, stdout=destination)

    async def push(self, local_path: Path, remote_path: str, deadline=None) -> ExecOutput:
        path, part = _shell_path(remote_path), _shell_path(remote_path + ".part")
        parent = _shell_path(posixpath.dirname(remote_path) or ".")
        script = f"mkdir -p -- {parent} && cat > {part} && mv -- {part} {path}"
        return await self._run(script, deadline, stdin=local_path)

    async def close(self) -> None:
        return None


def ssh_client_executable() -> str:
    return os.environ.get("GPLMT_SSH_CLIENT", "ssh")


class SshTransport(LocalTransport):
    """LocalTransport's scripts, run through an external ssh client; one
    multiplexed master per node.

    Connection reuse comes from the client's control-socket facility, so
    every exec/fetch/push rides the single established connection. Key
    material comes from the client's own per-user configuration; password
    authentication is rejected.
    """

    def __init__(self, target: TargetDef):
        super().__init__(target)
        self._destination = f"{target.ssh_user}@{target.ssh_host}"
        self._control_dir: str | None = None

    def _base_argv(self) -> list[str]:
        assert self._control_dir is not None
        control_path = os.path.join(self._control_dir, "cm.sock")
        return [
            ssh_client_executable(),
            "-o", "BatchMode=yes",
            "-o", f"ControlPath={control_path}",
        ]

    async def connect(self) -> None:
        if self.target.ssh_password is not None:
            raise ConnectFailed(
                f"target {self.target.name!r} requests password authentication; "
                "use the ssh client's key configuration instead"
            )
        if self._control_dir is None:
            self._control_dir = tempfile.mkdtemp(prefix="gplmt-cm-")
        argv = self._base_argv() + [
            "-o", "ControlMaster=yes",
            "-o", "ControlPersist=600",
            "-n", "-N", "-f",
            self._destination,
        ]
        try:
            with tempfile.TemporaryFile() as stderr:
                output = await _run_child(argv, None, stderr=stderr)
                if output.exit_code != 0:
                    stderr.seek(0)
                    raise ConnectFailed(
                        f"ssh master for {self._destination} exited {output.exit_code}: "
                        + stderr.read().decode(errors="replace").strip()
                    )
        except BaseException:
            self._remove_control_dir()  # a failed session is never closed
            raise

    async def _run(self, script: str, deadline: float | None, **files) -> ExecOutput:
        argv = self._base_argv() + [self._destination, "--", script]
        output = await _run_child(argv, deadline, **files)
        if output.exit_code == 255 and not output.timed_out:
            return output._replace(connection_lost=True)  # the client's "connection failed" code
        return output

    async def close(self) -> None:
        if self._control_dir is None:
            return
        try:
            await _run_child(self._base_argv() + ["-O", "exit", self._destination], None)
        finally:
            self._remove_control_dir()

    def _remove_control_dir(self) -> None:
        shutil.rmtree(self._control_dir, ignore_errors=True)
        self._control_dir = None


# --------------------------------------------------------------------------
# mock transport


class MockRule(NamedTuple):
    """First-match rule: command pattern (fnmatch) to scripted behavior.

    A named tuple, cheap to build: a script holds one per rule and node.
    """

    pattern: str
    exit_code: int = 0
    duration: float = 0.0
    stdout: str = ""
    stderr: str = ""


_NO_RULE = MockRule(pattern="*")  # what an unmatched command does
_TIMED_OUT_OUTPUT = ExecOutput(-15, timed_out=True)
_LOST_OUTPUT = ExecOutput(-1, connection_lost=True)
_NO_BYTES = (b"", b"")  # what a timed-out or lost mock command wrote
_EXIT_0, _EXIT_1 = ExecOutput(0), ExecOutput(1)  # what a mock transfer returns


@dataclass
class MockNodeScript:
    rules: tuple[MockRule, ...] = ()
    available: bool = True
    reconnectable: bool = True
    connect_failures: int = 0
    lose_connection_at: tuple[float, ...] = ()
    files: dict[str, bytes] = field(default_factory=dict)
    # Each command's first matching rule, the output it yields and the
    # bytes it writes. The script is shared by every node it scripts, so
    # each distinct command is matched, and its bytes encoded, only once.
    _matches: dict[str, tuple[MockRule, ExecOutput, tuple[bytes, bytes]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def rule_for(self, command: str) -> tuple[MockRule, ExecOutput, tuple[bytes, bytes]]:
        match = self._matches.get(command)
        if match is None:
            rule = next(
                (r for r in self.rules if fnmatch.fnmatchcase(command, r.pattern)), _NO_RULE
            )
            data = (rule.stdout.encode(), rule.stderr.encode())
            match = self._matches[command] = (rule, ExecOutput(rule.exit_code), data)
        return match


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer", bool: "a boolean",
}
_MISSING = object()  # a required field the script leaves out


def _bad(expected: str, value, where: tuple) -> ValueError:
    """The error for `value` at the JSON path `where`, such as
    ("nodes", "n 2", "rules", 0) for `$.nodes["n 2"].rules[0]`."""
    path = "$" + "".join(
        f"[{key}]" if type(key) is int else f".{key}" if key.isidentifier() else f"[{json.dumps(key)}]"
        for key in where
    )
    if value is _MISSING:
        got = "nothing"
    elif type(value) in (dict, list):
        got = _JSON_TYPES[type(value)]
    else:
        got = json.dumps(value)
    return ValueError(f"{path}: expected {expected}, got {got}")


def _typed(value, kind: type, where: tuple):
    """`value` if its type is exactly `kind` (so true is no integer)."""
    if type(value) is not kind:
        raise _bad(_JSON_TYPES[kind], value, where)
    return value


def _field(obj: dict, key: str, kind: type, default, where: tuple):
    """obj[key] if it is a `kind`, `default` if obj has no `key`."""
    value = obj.get(key, default)
    if value is not default and type(value) is not kind:
        raise _bad(_JSON_TYPES[kind], value, where + (key,))
    return value


def _seconds(value, where: tuple) -> float:
    """A finite number of seconds >= 0; NaN fails the comparison too."""
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise _bad("a finite number >= 0", value, where)
    return float(value)


@dataclass
class MockScript:
    """Deterministic behavior script for a whole mock deployment.

    JSON shape: {"nodes": {name-or-"*": {"rules": [{"pattern", "exit",
    "duration", "stdout", "stderr"}], "available", "reconnectable",
    "connect_failures" (failed reconnects before one succeeds),
    "lose_connection_at", "files"}}, "strict_files"}.
    With strict_files false, fetching an unscripted path yields empty bytes,
    which keeps dry runs of transfer-heavy experiments viable.
    """

    nodes: dict[str, MockNodeScript] = field(default_factory=dict)
    strict_files: bool = False
    # What every node without a script of its own shares.
    _unscripted: MockNodeScript = field(
        default_factory=MockNodeScript, init=False, repr=False, compare=False
    )

    @classmethod
    def from_json(cls, text: str) -> MockScript:
        """Raises ValueError naming the JSON path of the first bad field:
        each field has one JSON type, and every time is a finite number of
        seconds >= 0."""
        try:
            raw = _typed(json.loads(text), dict, ())
        except RecursionError:  # json's decoder recurses once per nested array or object
            raise ValueError("$: nested too deep to decode") from None
        nodes = {}
        for name, entry in _field(raw, "nodes", dict, {}, ()).items():
            at = ("nodes", name)
            _typed(entry, dict, at)
            rules = []
            for index, rule in enumerate(_field(entry, "rules", list, (), at)):
                where = at + ("rules", index)
                _typed(rule, dict, where)
                rules.append(MockRule(
                    _typed(rule.get("pattern", _MISSING), str, where + ("pattern",)),
                    _field(rule, "exit", int, 0, where),
                    _seconds(rule.get("duration", 0), where + ("duration",)),
                    _field(rule, "stdout", str, "", where),
                    _field(rule, "stderr", str, "", where),
                ))
            files = {}
            for path, data in _field(entry, "files", dict, {}, at).items():
                files[path] = _typed(data, str, at + ("files", path)).encode()
            losses = _field(entry, "lose_connection_at", list, (), at)
            nodes[name] = MockNodeScript(
                rules=tuple(rules),
                available=_field(entry, "available", bool, True, at),
                reconnectable=_field(entry, "reconnectable", bool, True, at),
                connect_failures=_field(entry, "connect_failures", int, 0, at),
                lose_connection_at=tuple(sorted(
                    _seconds(t, at + ("lose_connection_at", k)) for k, t in enumerate(losses)
                )),
                files=files,
            )
        return cls(nodes=nodes, strict_files=_field(raw, "strict_files", bool, False, ()))

    @classmethod
    def from_file(cls, path: str | Path) -> MockScript:
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def node_script(self, node: str) -> MockNodeScript:
        if node in self.nodes:
            return self.nodes[node]
        if "*" in self.nodes:
            return self.nodes["*"]
        return self._unscripted


def _wake(waiter: asyncio.Future) -> None:
    """A mock command's timer: ends its wait unless the wait was cancelled."""
    if not waiter.cancelled():
        waiter.set_result(None)


class MockTransport:
    """In-memory node driven by a MockScript; all I/O is virtual.

    `files` is the node script's own dict, shared with every node it
    scripts, until the first push gives this node a copy.
    """

    __slots__ = ("target", "script", "strict_files", "files",
                 "_connect_failures_left", "_next_loss", "_ever_connected")

    def __init__(self, target: TargetDef, script: MockScript):
        self.target = target
        self.script = script.node_script(target.name)
        self.strict_files = script.strict_files
        self.files: dict[str, bytes] = self.script.files
        self._connect_failures_left = self.script.connect_failures
        self._next_loss = 0  # index of the first loss instant not yet passed
        self._ever_connected = False

    async def connect(self) -> None:
        if not self.script.available:
            raise ConnectFailed(f"node {self.target.name} is scripted unavailable")
        if self._ever_connected:
            # connect_failures throttles reconnection only: the pool never
            # retries a first connect, so initial failure is 'available'.
            if not self.script.reconnectable:
                raise ConnectFailed(f"node {self.target.name} refuses reconnection")
            if self._connect_failures_left > 0:
                self._connect_failures_left -= 1
                raise ConnectFailed(f"scripted reconnect failure on {self.target.name}")
        self._ever_connected = True

    async def exec(
        self, command: str, env: tuple[tuple[str, str], ...], deadline: float | None, outputs
    ) -> ExecOutput:
        """Sleep the scripted duration, then write the scripted bytes to
        `outputs` (empty ones for a timed-out or lost command)."""
        rule, output, data = self.script.rule_for(command)
        loop = asyncio.get_running_loop()
        start = loop.time()
        natural_end = start + rule.duration

        loss_at = None
        losses = self.script.lose_connection_at
        while self._next_loss < len(losses) and losses[self._next_loss] <= start:
            self._next_loss += 1  # loss instants only strike mid-exec
        if self._next_loss < len(losses) and losses[self._next_loss] <= natural_end:
            loss_at = losses[self._next_loss]

        if deadline is not None and deadline < natural_end and (loss_at is None or deadline < loss_at):
            delay = deadline - start
            output, data = _TIMED_OUT_OUTPUT, _NO_BYTES
        elif loss_at is not None:
            self._next_loss += 1
            delay = loss_at - start
            output, data = _LOST_OUTPUT, _NO_BYTES
        else:
            delay = rule.duration
        if delay > 0:
            # asyncio.sleep(delay) with one call_at in place of its call_later:
            # the same instant, the same heap entry, cancelled in the same place.
            woken = loop.create_future()
            timer = loop.call_at(
                loop.time() + delay, _wake, woken, context=getattr(loop, "run_context", None)
            )
            try:
                await woken
            finally:
                timer.cancel()
        else:
            await asyncio.sleep(0)
        if outputs is not None:
            outputs[0].parent.mkdir(parents=True, exist_ok=True)
            outputs[0].write_bytes(data[0])
            outputs[1].write_bytes(data[1])
        return output

    async def fetch(self, remote_path: str, destination: Path, deadline=None) -> ExecOutput:
        """Write the scripted file; a missing one exits 1 under strict_files."""
        data = self.files.get(remote_path, None if self.strict_files else b"")
        if data is None:
            return _EXIT_1
        destination.write_bytes(data)
        return _EXIT_0

    async def push(self, local_path: Path, remote_path: str, deadline=None) -> ExecOutput:
        if self.files is self.script.files:
            self.files = dict(self.files)  # this node's first push
        self.files[remote_path] = local_path.read_bytes()
        return _EXIT_0

    async def close(self) -> None:
        return None


def make_transport_factory(mock_script: MockScript | None = None):
    """Pick a transport per target: a mock node for every target when a
    script is given, else by target kind.

    PlanetLab targets must be expanded to ssh leaves before execution, so
    the factory refuses them.
    """

    def factory(target: TargetDef):
        if mock_script is not None:
            return MockTransport(target, mock_script)
        if target.kind is TargetKind.LOCAL:
            return LocalTransport(target)
        if target.kind is TargetKind.SSH:
            return SshTransport(target)
        raise ValueError(f"no transport for target kind {target.kind.value!r}")

    return factory
