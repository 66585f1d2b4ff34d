"""Node connections: local shell, external ssh client, and a scripted mock.

All transports are driven through Session objects handed out by a
SessionPool. The pool keeps at most one live session per node, gates every
establishment attempt through a sliding-window RateLimiter, and retries
lost connections with exponential backoff.
"""
from __future__ import annotations

import asyncio
import enum
import fnmatch
import json
import os
import shlex
import signal
import tempfile
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

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
    pass


class Unreachable(ConnectFailed):
    """The node is declared unavailable before any attempt is made."""


class AuthUnsupported(ConnectFailed):
    """The requested authentication scheme is not supported."""


class SessionClosed(TransportError):
    pass


class RemoteFileMissing(TransportError):
    pass


class LocalFileMissing(TransportError):
    pass


class RetriesExhausted(ConnectFailed):
    pass


class SessionState(enum.Enum):
    CONNECTED = "Connected"
    LOST = "Lost"
    CLOSED = "Closed"


@dataclass(frozen=True)
class RateLimiterConfig:
    """At most max_attempts connection attempts per sliding interval."""

    max_attempts: int
    interval: float

    def __post_init__(self) -> None:
        if self.max_attempts <= 0 or self.interval <= 0:
            raise ValueError("max_attempts and interval must be positive")


class RateLimiter:
    """Sliding-window permit source; None config means unlimited.

    Waiters are served in FIFO order; in every half-open window of length
    `interval` at most `max_attempts` permits are granted.
    """

    def __init__(self, config: RateLimiterConfig | None, clock):
        self._config = config
        self._clock = clock
        self._grants: deque[float] = deque()
        self._lock = asyncio.Lock()

    async def wait(self) -> None:
        if self._config is None:
            return
        # acquire/release rather than `async with`: no __aenter__ coroutine
        # stays on the stack of every queued waiter. A waiter cancelled in
        # acquire() never holds the lock.
        await self._lock.acquire()
        try:
            while True:
                now = self._clock.now()
                while self._grants and self._grants[0] <= now - self._config.interval:
                    self._grants.popleft()
                if len(self._grants) < self._config.max_attempts:
                    self._grants.append(now)
                    return
                await self._clock.sleep(self._grants[0] + self._config.interval - now)
        finally:
            self._lock.release()


@dataclass
class ExecOutput:
    """Raw transport result, before artifact capture and classification."""

    exit_code: int
    stdout: bytes = b""
    stderr: bytes = b""
    timed_out: bool = False
    connection_lost: bool = False


class Session:
    """One control connection to a node; all commands tunnel through it."""

    def __init__(self, node: str, transport, clock, pool: SessionPool):
        self.node = node
        self.state = SessionState.CLOSED
        self.connect_count = 0
        self.transport = transport
        self.clock = clock
        self.pool = pool
        self.lock = asyncio.Lock()  # serializes tasklist executions per node
        self._artifact_dir: Path | None = None  # created on the first write

    def _node_dir(self) -> Path:
        if self._artifact_dir is None:
            self._artifact_dir = node_artifact_dir(self.pool.artifact_root, self.node)
        return self._artifact_dir

    def _require_connected(self) -> None:
        if self.state is not SessionState.CONNECTED:
            raise SessionClosed(f"session to {self.node} is {self.state.value}")

    def mark_lost(self) -> None:
        if self.state is SessionState.CONNECTED:
            self.state = SessionState.LOST
            self.pool.emit(EventKind.CONNECT_LOST, self.node, "")

    async def exec(
        self,
        command: str,
        env: tuple[tuple[str, str], ...] = (),
        deadline: float | None = None,
        artifact_label: str | None = None,
    ) -> TaskResult:
        """Run a shell command on the node, capturing output to artifacts.

        `deadline` is an instant on the session clock; when it passes first
        the process group is terminated and the outcome is TimedOut.
        """
        self._require_connected()
        output = await self.transport.exec(command, env, deadline)

        stdout_ref = stderr_ref = ""
        if self.pool.artifact_root is not None and artifact_label is not None:
            node_dir = self._node_dir()
            stdout_ref = f"{self.node}/stdout-{artifact_label}.log"
            stderr_ref = f"{self.node}/stderr-{artifact_label}.log"
            (node_dir / f"stdout-{artifact_label}.log").write_bytes(output.stdout)
            (node_dir / f"stderr-{artifact_label}.log").write_bytes(output.stderr)

        if output.connection_lost:
            outcome = TaskOutcome.CONNECTION_LOST
            self.mark_lost()
        elif output.timed_out:
            outcome = TaskOutcome.TIMED_OUT
        elif output.exit_code == 0:
            outcome = TaskOutcome.SUCCESS
        else:
            outcome = TaskOutcome.FAILED
        return TaskResult(output.exit_code, stdout_ref, stderr_ref, outcome)

    async def fetch(self, remote_path: str) -> Path:
        """Copy a node-side file into `<artifact_root>/<node>/<basename>`."""
        self._require_connected()
        if self.pool.artifact_root is None:
            raise TransportError("no artifact directory configured for fetch")
        self._node_dir()  # the destination's directory
        try:
            destination = artifact_path(self.pool.artifact_root, self.node, remote_path)
        except ArtifactPathError:
            raise RemoteFileMissing(f"not a file path: {remote_path!r}") from None
        await self.transport.fetch(remote_path, destination)
        return destination

    async def push(self, local_path: str | Path, remote_path: str) -> None:
        """Copy a controller-side file to the node, atomically at the name."""
        self._require_connected()
        local_path = Path(local_path)
        if not local_path.is_file():
            raise LocalFileMissing(str(local_path))
        await self.transport.push(local_path, remote_path)

    async def close(self) -> None:
        if self.state is not SessionState.CLOSED:
            self.state = SessionState.CLOSED
            await self.transport.close()


class SessionPool:
    """Registry of live sessions; at most one per node at any instant."""

    def __init__(
        self,
        transport_factory,
        emit=None,
        artifact_root: str | Path | None = None,
        reconnect_budget: int = DEFAULT_RECONNECT_BUDGET,
    ):
        self.transport_factory = transport_factory
        self.artifact_root = Path(artifact_root) if artifact_root is not None else None
        self.reconnect_budget = reconnect_budget
        self._emit = emit
        self._sessions: dict[str, Session] = {}
        self._node_locks: dict[str, asyncio.Lock] = {}

    def emit(self, kind: EventKind, node: str, detail: str) -> None:
        if self._emit is not None:
            self._emit(kind, node, detail)

    def session_for(self, node: str) -> Session | None:
        return self._sessions.get(node)

    def _creation_lock(self, node: str) -> asyncio.Lock:
        lock = self._node_locks.get(node)
        if lock is None:
            lock = self._node_locks[node] = asyncio.Lock()
        return lock

    async def acquire(self, target: TargetDef, limiter: RateLimiter, clock) -> Session:
        """Return the node's live session, establishing one if needed.

        With an artifact root, a node name that cannot serve as one path
        component raises ArtifactPathError before any connection attempt.
        """
        if target.kind is TargetKind.GROUP:
            raise ValueError(f"cannot open a session to group {target.name!r}")
        async with self._creation_lock(target.name):
            session = self._sessions.get(target.name)
            if session is not None and session.state is SessionState.CONNECTED:
                return session
            if session is not None and session.state is SessionState.LOST:
                return await self._reconnect_locked(session, limiter, clock)
            if session is None:
                if self.artifact_root is not None:
                    _safe_component(target.name)
                transport = self.transport_factory(target)
                session = Session(target.name, transport, clock, self)
                self._sessions[target.name] = session
            await limiter.wait()
            session.connect_count += 1
            self.emit(EventKind.CONNECT_ATTEMPT, session.node, f"attempt={session.connect_count}")
            await session.transport.connect()
            session.state = SessionState.CONNECTED
            self.emit(EventKind.CONNECT_SUCCESS, session.node, f"attempt={session.connect_count}")
            return session

    async def reconnect(self, session: Session, limiter: RateLimiter, clock) -> Session:
        async with self._creation_lock(session.node):
            if session.state is SessionState.CONNECTED:
                return session
            return await self._reconnect_locked(session, limiter, clock)

    async def _reconnect_locked(self, session: Session, limiter: RateLimiter, clock) -> Session:
        if session.state is SessionState.CLOSED:
            raise SessionClosed(f"session to {session.node} is Closed")
        delay = DEFAULT_RECONNECT_BASE
        for attempt in range(self.reconnect_budget):
            if attempt > 0:
                await clock.sleep(delay)
                delay = min(delay * DEFAULT_RECONNECT_FACTOR, DEFAULT_RECONNECT_CAP)
            await limiter.wait()
            session.connect_count += 1
            self.emit(EventKind.CONNECT_ATTEMPT, session.node, f"attempt={session.connect_count}")
            try:
                await session.transport.connect()
            except ConnectFailed:
                continue
            session.state = SessionState.CONNECTED
            self.emit(EventKind.CONNECT_SUCCESS, session.node, f"attempt={session.connect_count}")
            return session
        raise RetriesExhausted(
            f"gave up reconnecting to {session.node} after {self.reconnect_budget} attempts"
        )

    async def close_all(self) -> None:
        for session in self._sessions.values():
            await session.close()

    def live_sessions(self) -> list[Session]:
        return [s for s in self._sessions.values() if s.state is SessionState.CONNECTED]


# --------------------------------------------------------------------------
# local transport


def _merged_env(env: tuple[tuple[str, str], ...]) -> dict[str, str]:
    merged = dict(os.environ)
    merged.update(env)
    return merged


async def _collect(proc, deadline: float | None, clock) -> ExecOutput:
    """Wait for a process's output; when `deadline` passes first, terminate
    its process group and report TimedOut."""
    timeout = None
    if deadline is not None:
        timeout = max(0.0, deadline - clock.now())
    try:
        stdout, stderr = await asyncio.wait_for(proc.communicate(), timeout)
    except asyncio.TimeoutError:
        await _terminate_group(proc)
        await proc.wait()
        code = proc.returncode if proc.returncode is not None else -15
        return ExecOutput(code, b"", b"", timed_out=True)
    return ExecOutput(proc.returncode, stdout, stderr)


async def _terminate_group(proc) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGTERM)
    except (ProcessLookupError, PermissionError):
        return
    try:
        await asyncio.wait_for(proc.wait(), KILL_GRACE_SECONDS)
    except asyncio.TimeoutError:
        try:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


class LocalTransport:
    """Runs commands on the controller under its default shell."""

    def __init__(self, target: TargetDef, clock):
        self.target = target
        self.clock = clock

    async def connect(self) -> None:
        return None  # nothing to establish

    async def exec(
        self, command: str, env: tuple[tuple[str, str], ...], deadline: float | None
    ) -> ExecOutput:
        proc = await asyncio.create_subprocess_shell(
            command,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=_merged_env(env),
            start_new_session=True,  # its own process group, so timeouts kill children too
        )
        return await _collect(proc, deadline, self.clock)

    async def fetch(self, remote_path: str, destination: Path) -> None:
        source = Path(remote_path).expanduser()
        if not source.is_file():
            raise RemoteFileMissing(remote_path)
        await asyncio.to_thread(_copy_atomic, source, destination)

    async def push(self, local_path: Path, remote_path: str) -> None:
        destination = Path(remote_path).expanduser()
        destination.parent.mkdir(parents=True, exist_ok=True)
        await asyncio.to_thread(_copy_atomic, local_path, destination)

    async def close(self) -> None:
        return None


def _write_atomic(destination: Path, data: bytes) -> None:
    temp = destination.with_name(destination.name + ".part")
    temp.write_bytes(data)
    os.replace(temp, destination)


def _copy_atomic(source: Path, destination: Path) -> None:
    _write_atomic(destination, source.read_bytes())


# --------------------------------------------------------------------------
# ssh transport (external client)


def ssh_client_executable() -> str:
    return os.environ.get("GPLMT_SSH_CLIENT", "ssh")


class SshTransport:
    """Drives an external ssh client; one multiplexed master per node.

    Connection reuse comes from the client's control-socket facility, so
    every exec/fetch/push rides the single established connection. Key
    material comes from the client's own per-user configuration; password
    authentication is rejected.
    """

    def __init__(self, target: TargetDef, clock):
        self.target = target
        self.clock = clock
        self._control_dir: str | None = None

    @property
    def _destination(self) -> str:
        return f"{self.target.ssh_user}@{self.target.ssh_host}"

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
            raise AuthUnsupported(
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
        proc = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE
        )
        _, stderr = await proc.communicate()
        if proc.returncode != 0:
            raise ConnectFailed(
                f"ssh master for {self._destination} exited {proc.returncode}: "
                + stderr.decode(errors="replace").strip()
            )

    async def exec(
        self, command: str, env: tuple[tuple[str, str], ...], deadline: float | None
    ) -> ExecOutput:
        exports = "".join(
            f"export {name}={shlex.quote(value)}; " for name, value in env
        )
        argv = self._base_argv() + [self._destination, "--", exports + command]
        proc = await asyncio.create_subprocess_exec(
            *argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            start_new_session=True,
        )
        output = await _collect(proc, deadline, self.clock)
        if output.exit_code == 255 and not output.timed_out:
            output.connection_lost = True  # the client's own "connection failed" code
        return output

    async def fetch(self, remote_path: str, destination: Path) -> None:
        argv = self._base_argv() + [
            self._destination,
            "--",
            f"cat {shlex.quote(remote_path)}",
        ]
        proc = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE
        )
        stdout, stderr = await proc.communicate()
        if proc.returncode != 0:
            raise RemoteFileMissing(
                f"{remote_path}: " + stderr.decode(errors="replace").strip()
            )
        _write_atomic(destination, stdout)

    async def push(self, local_path: Path, remote_path: str) -> None:
        quoted = shlex.quote(remote_path)
        script = f"cat > {quoted}.part && mv {quoted}.part {quoted}"
        argv = self._base_argv() + [self._destination, "--", script]
        proc = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
        )
        _, stderr = await proc.communicate(local_path.read_bytes())
        if proc.returncode != 0:
            raise TransportError(
                f"push to {remote_path} failed: " + stderr.decode(errors="replace").strip()
            )

    async def close(self) -> None:
        if self._control_dir is None:
            return
        argv = self._base_argv() + ["-O", "exit", self._destination]
        proc = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.DEVNULL, stderr=asyncio.subprocess.DEVNULL
        )
        await proc.communicate()


# --------------------------------------------------------------------------
# mock transport


@dataclass(frozen=True)
class MockRule:
    """First-match rule: command pattern (fnmatch) to scripted behavior."""

    pattern: str
    exit_code: int = 0
    duration: float = 0.0
    stdout: str = ""
    stderr: str = ""


_NO_RULE = MockRule(pattern="*")  # what an unmatched command does


@dataclass
class MockNodeScript:
    rules: tuple[MockRule, ...] = ()
    available: bool = True
    reconnectable: bool = True
    connect_failures: int = 0
    lose_connection_at: tuple[float, ...] = ()
    files: dict[str, bytes] = field(default_factory=dict)
    # Each command's first matching rule. The script is shared by every
    # node it scripts, so each distinct command is matched only once.
    _matches: dict[str, MockRule] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def rule_for(self, command: str) -> MockRule:
        rule = self._matches.get(command)
        if rule is None:
            rule = next(
                (r for r in self.rules if fnmatch.fnmatchcase(command, r.pattern)), _NO_RULE
            )
            self._matches[command] = rule
        return rule


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
    def empty(cls) -> MockScript:
        return cls()

    @classmethod
    def from_json(cls, text: str) -> MockScript:
        raw = json.loads(text)
        nodes = {}
        for name, entry in raw.get("nodes", {}).items():
            rules = tuple(
                MockRule(
                    pattern=rule["pattern"],
                    exit_code=int(rule.get("exit", 0)),
                    duration=float(rule.get("duration", 0.0)),
                    stdout=rule.get("stdout", ""),
                    stderr=rule.get("stderr", ""),
                )
                for rule in entry.get("rules", [])
            )
            nodes[name] = MockNodeScript(
                rules=rules,
                available=bool(entry.get("available", True)),
                reconnectable=bool(entry.get("reconnectable", True)),
                connect_failures=int(entry.get("connect_failures", 0)),
                lose_connection_at=tuple(float(t) for t in entry.get("lose_connection_at", [])),
                files={k: v.encode() for k, v in entry.get("files", {}).items()},
            )
        return cls(nodes=nodes, strict_files=bool(raw.get("strict_files", False)))

    @classmethod
    def from_file(cls, path: str | Path) -> MockScript:
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def node_script(self, node: str) -> MockNodeScript:
        if node in self.nodes:
            return self.nodes[node]
        if "*" in self.nodes:
            return self.nodes["*"]
        return self._unscripted


class MockTransport:
    """In-memory node driven by a MockScript; all I/O is virtual."""

    def __init__(self, target: TargetDef, clock, script: MockScript):
        self.target = target
        self.clock = clock
        self.script = script.node_script(target.name)
        self.strict_files = script.strict_files
        self.files: dict[str, bytes] = dict(self.script.files)
        self._connect_failures_left = self.script.connect_failures
        self._next_loss = 0  # index of the first loss instant not yet passed
        self._ever_connected = False

    async def connect(self) -> None:
        if not self.script.available:
            raise Unreachable(f"node {self.target.name} is scripted unavailable")
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
        self, command: str, env: tuple[tuple[str, str], ...], deadline: float | None
    ) -> ExecOutput:
        rule = self.script.rule_for(command)
        start = self.clock.now()
        natural_end = start + rule.duration

        loss_at = None
        losses = self.script.lose_connection_at
        while self._next_loss < len(losses) and losses[self._next_loss] <= start:
            self._next_loss += 1  # loss instants only strike mid-exec
        if self._next_loss < len(losses) and losses[self._next_loss] <= natural_end:
            loss_at = losses[self._next_loss]

        if deadline is not None and deadline < natural_end and (loss_at is None or deadline < loss_at):
            await self.clock.sleep(deadline - start)
            return ExecOutput(-15, b"", b"", timed_out=True)
        if loss_at is not None:
            self._next_loss += 1
            await self.clock.sleep(loss_at - start)
            return ExecOutput(-1, b"", b"", connection_lost=True)
        await self.clock.sleep(rule.duration)
        return ExecOutput(rule.exit_code, rule.stdout.encode(), rule.stderr.encode())

    async def fetch(self, remote_path: str, destination: Path) -> None:
        if remote_path in self.files:
            data = self.files[remote_path]
        elif self.strict_files:
            raise RemoteFileMissing(remote_path)
        else:
            data = b""
        _write_atomic(destination, data)

    async def push(self, local_path: Path, remote_path: str) -> None:
        self.files[remote_path] = local_path.read_bytes()

    async def close(self) -> None:
        return None


def make_transport_factory(clock, mock_script: MockScript | None = None, force_mock: bool = False):
    """Pick a transport per target: mock when forced, else by target kind.

    PlanetLab targets must be expanded to ssh leaves before execution, so
    the factory refuses them.
    """
    script = mock_script or MockScript.empty()

    def factory(target: TargetDef):
        if force_mock:
            return MockTransport(target, clock, script)
        if target.kind is TargetKind.LOCAL:
            return LocalTransport(target, clock)
        if target.kind is TargetKind.SSH:
            return SshTransport(target, clock)
        raise ValueError(f"no transport for target kind {target.kind.value!r}")

    return factory
