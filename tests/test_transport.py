from __future__ import annotations

import asyncio
import json
import math
import os
import re
import tempfile
import time

import pytest

from gplmt.model import TargetDef, TargetKind, TaskOutcome
from gplmt.transport import (
    ConnectFailed,
    ExecOutput,
    LocalTransport,
    MockNodeScript,
    MockRule,
    MockScript,
    MockTransport,
    RateLimiter,
    RateLimiterConfig,
    SessionClosed,
    SessionPool,
    SessionState,
    SshTransport,
    TransportError,
    _shell_path,
    make_transport_factory,
    ssh_client_executable,
)

from .conftest import run_virtual
from .oracles import backoff_attempt_offsets, limiter_grant_times, max_in_sliding_window


def mock_node(name="alpha"):
    return TargetDef(name=name, kind=TargetKind.SSH, ssh_user="u", ssh_host=f"{name}.example.org")


def mock_pool(script=None, emit=None, artifact_root=None, limiter_config=None):
    factory = make_transport_factory(script or MockScript())
    return SessionPool(factory, emit or (lambda kind, node, detail: None),
                       artifact_root=artifact_root, limiter_config=limiter_config)


def now():
    return asyncio.get_running_loop().time()


def log_paths(directory, label="x"):
    """The (stdout, stderr) paths a session hands a transport's exec."""
    return directory / f"stdout-{label}.log", directory / f"stderr-{label}.log"


def read_logs(outputs):
    return tuple(path.read_bytes() for path in outputs)


# --- rate limiter ---


@pytest.mark.parametrize("attempts,interval", [
    (0, 1.0), (-1, 1.0), (5, 0.0), (5, -2.0), (5, math.inf), (5, math.nan),
])
def test_limiter_config_rejects_non_positive_values(attempts, interval):
    with pytest.raises(ValueError):
        RateLimiterConfig(attempts, interval)


def test_limiter_grant_schedule_matches_oracle():
    limiter = RateLimiter(RateLimiterConfig(2, 1.0))

    async def scenario():
        grants = []
        for _ in range(5):
            await limiter.wait()
            grants.append(now())
        return grants

    grants = run_virtual(scenario())
    assert grants == limiter_grant_times(5, 2, 1.0)  # [0, 0, 1, 1, 2]


def test_limiter_window_never_exceeded():
    limiter = RateLimiter(RateLimiterConfig(3, 2.0))

    async def scenario():
        grants = []

        async def one():
            await limiter.wait()
            grants.append(now())

        await asyncio.gather(*[one() for _ in range(11)])
        return grants

    grants = run_virtual(scenario())
    assert len(grants) == 11
    assert max_in_sliding_window(grants, 2.0) <= 3


def test_limiter_window_slides_with_uneven_demand():
    limiter = RateLimiter(RateLimiterConfig(2, 1.0))

    async def scenario():
        grants = []
        await limiter.wait()
        grants.append(now())
        await asyncio.sleep(0.5)
        await limiter.wait()
        grants.append(now())
        # window [-0.4, 0.6] already holds two grants; the one at 0.0
        # leaves the window at 1.0 and the one at 0.5 at 1.5
        await asyncio.sleep(0.1)
        await limiter.wait()
        grants.append(now())
        await limiter.wait()
        grants.append(now())
        return grants

    assert run_virtual(scenario()) == [0.0, 0.5, 1.0, 1.5]


def test_limiter_none_config_is_unlimited():
    limiter = RateLimiter(None)

    async def scenario():
        for _ in range(50):
            await limiter.wait()
        return now()

    assert run_virtual(scenario()) == 0.0


def test_limiter_serves_waiters_in_fifo_order():
    limiter = RateLimiter(RateLimiterConfig(1, 1.0))

    async def scenario():
        order = []

        async def one(tag):
            await limiter.wait()
            order.append(tag)

        await asyncio.gather(*[one(i) for i in range(5)])
        return order

    assert run_virtual(scenario()) == [0, 1, 2, 3, 4]


def grants_with_c_cancelled(cancel_c_at=None):
    """Waiters a, b, c and d ask a limiter of one permit per second at 0 s:
    a is granted at once and b, the head, sleeps until 1 s. c is cancelled
    at `cancel_c_at` while queued, or else by b the moment b's release
    hands c the turn. Returns each waiter's grant instant."""
    limiter = RateLimiter(RateLimiterConfig(1, 1.0))

    async def scenario():
        grants, tasks = {}, {}

        async def one(tag):
            await limiter.wait()
            grants[tag] = now()
            if tag == "b" and cancel_c_at is None:
                tasks["c"].cancel()

        for tag in "abcd":
            tasks[tag] = asyncio.create_task(one(tag))
        if cancel_c_at is not None:
            await asyncio.sleep(cancel_c_at)
            tasks["c"].cancel()
        await asyncio.gather(*tasks.values(), return_exceptions=True)
        assert tasks["c"].cancelled()
        return grants

    return run_virtual(scenario())


def test_limiter_waiter_cancelled_after_the_hand_off_passes_the_turn_on():
    # d is granted at 2 s, the instant c would have been
    assert grants_with_c_cancelled() == {"a": 0.0, "b": 1.0, "d": 2.0}


def test_limiter_waiter_cancelled_while_queued_takes_no_permit():
    assert grants_with_c_cancelled(cancel_c_at=0.5) == {"a": 0.0, "b": 1.0, "d": 2.0}


# --- mock script parsing ---


def test_mock_script_defaults():
    script = MockScript.from_json("{}")
    assert script.nodes == {}
    assert script.strict_files is False
    node = script.node_script("anything")
    assert node == MockNodeScript()
    assert node.available and node.reconnectable


def test_mock_script_full_parse():
    text = json.dumps({
        "nodes": {
            "alpha": {
                "rules": [
                    {"pattern": "ping*", "exit": 1, "duration": 2.5,
                     "stdout": "out", "stderr": "err"},
                    {"pattern": "*"},
                ],
                "available": False,
                "reconnectable": False,
                "connect_failures": 3,
                "lose_connection_at": [2, 4.5],
                "files": {"/tmp/x": "payload"},
            }
        },
        "strict_files": True,
    })
    script = MockScript.from_json(text)
    assert script.strict_files is True
    node = script.node_script("alpha")
    assert node.rules[0] == MockRule("ping*", 1, 2.5, "out", "err")
    assert node.rules[1] == MockRule("*")
    assert node.available is False
    assert node.reconnectable is False
    assert node.connect_failures == 3
    assert node.lose_connection_at == (2.0, 4.5)
    assert node.files == {"/tmp/x": b"payload"}


def test_mock_script_wildcard_fallback():
    script = MockScript.from_json('{"nodes": {"*": {"rules": [{"pattern": "x", "exit": 9}]}, '
                                  '"beta": {}}}')
    assert script.node_script("gamma").rules[0].exit_code == 9
    assert script.node_script("beta").rules == ()  # exact name wins over "*"


def test_mock_script_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text('{"nodes": {"n": {"connect_failures": 2}}}')
    assert MockScript.from_file(path).node_script("n").connect_failures == 2



@pytest.mark.parametrize("text, path", [
    ("[]", "$"),
    ('{"nodes": []}', "$.nodes"),
    ('{"nodes": {"n0": 5}}', "$.nodes.n0"),
    ('{"nodes": {"n0": {"rules": {}}}}', "$.nodes.n0.rules"),
    ('{"nodes": {"n0": {"rules": [5]}}}', "$.nodes.n0.rules[0]"),
    ('{"nodes": {"n0": {"rules": [{}]}}}', "$.nodes.n0.rules[0].pattern"),
    ('{"nodes": {"n 2": {"rules": [{"pattern": 5}]}}}', '$.nodes["n 2"].rules[0].pattern'),
    ('{"nodes": {"*": {"rules": [{"pattern": "x", "stdout": 5}]}}}', '$.nodes["*"].rules[0].stdout'),
    ('{"nodes": {"n0": {"rules": [{"pattern": "x", "stderr": null}]}}}', "$.nodes.n0.rules[0].stderr"),
    ('{"nodes": {"n0": {"rules": [{"pattern": "x", "exit": true}]}}}', "$.nodes.n0.rules[0].exit"),
    ('{"nodes": {"n0": {"rules": [{"pattern": "x", "exit": 1.5}]}}}', "$.nodes.n0.rules[0].exit"),
    ('{"nodes": {"n0": {"rules": [{"pattern": "x", "duration": 1e309}]}}}',
     "$.nodes.n0.rules[0].duration"),
    ('{"nodes": {"n0": {"rules": [{"pattern": "x", "duration": NaN}]}}}',
     "$.nodes.n0.rules[0].duration"),
    ('{"nodes": {"n0": {"rules": [{"pattern": "x", "duration": -1}]}}}',
     "$.nodes.n0.rules[0].duration"),
    ('{"nodes": {"n0": {"rules": [{"pattern": "x", "duration": "1"}]}}}',
     "$.nodes.n0.rules[0].duration"),
    ('{"nodes": {"n0": {"lose_connection_at": [1, NaN]}}}', "$.nodes.n0.lose_connection_at[1]"),
    ('{"nodes": {"n0": {"lose_connection_at": 3}}}', "$.nodes.n0.lose_connection_at"),
    ('{"nodes": {"n0": {"files": {"data.bin": 5}}}}', '$.nodes.n0.files["data.bin"]'),
    ('{"nodes": {"n0": {"files": []}}}', "$.nodes.n0.files"),
    ('{"nodes": {"n0": {"available": "no"}}}', "$.nodes.n0.available"),
    ('{"nodes": {"n0": {"reconnectable": 0}}}', "$.nodes.n0.reconnectable"),
    ('{"nodes": {"n0": {"connect_failures": "2"}}}', "$.nodes.n0.connect_failures"),
    ('{"strict_files": 1}', "$.strict_files"),
])
def test_a_bad_mock_script_field_is_named_by_its_json_path(text, path):
    # An infinite duration used to make a dry run sleep forever; a number
    # as a pattern or as output failed every node as a controller fault.
    with pytest.raises(ValueError) as raised:
        MockScript.from_json(text)
    assert str(raised.value).startswith(f"{path}: expected ")


def test_a_bad_mock_script_field_says_what_it_got():
    text = '{"nodes": {"n0": {"rules": [{"pattern": "x", "duration": 1e309}, 5]}}}'
    with pytest.raises(ValueError, match=r"rules\[0\]\.duration: expected a finite number >= 0, got Infinity$"):
        MockScript.from_json(text)
    with pytest.raises(ValueError, match=r"^\$: expected an object, got an array$"):
        MockScript.from_json("[1]")
    with pytest.raises(ValueError, match=r"^\$: nested too deep"):
        MockScript.from_json('{"nodes": ' + "[" * 100_000 + "]" * 100_000 + "}")


# --- mock transport semantics ---


def exec_under_mock(script_json, command, deadline=None, node="alpha", outputs=None):
    script = MockScript.from_json(script_json)
    transport = MockTransport(mock_node(node), script)

    async def scenario():
        await transport.connect()
        output = await transport.exec(command, (), deadline, outputs)
        return output, now()

    return run_virtual(scenario())


def test_mock_exec_first_matching_rule_wins():
    script = ('{"nodes": {"alpha": {"rules": ['
              '{"pattern": "ping *", "exit": 3, "duration": 1},'
              '{"pattern": "*", "exit": 7}]}}}')
    output, now = exec_under_mock(script, "ping host-b")
    assert (output.exit_code, now) == (3, 1.0)
    output, now = exec_under_mock(script, "traceroute host-b")
    assert (output.exit_code, now) == (7, 0.0)


def test_mock_exec_unmatched_command_succeeds_instantly(tmp_path):
    outputs = log_paths(tmp_path)
    output, now = exec_under_mock("{}", "anything at all", outputs=outputs)
    assert output.exit_code == 0
    assert read_logs(outputs) == (b"", b"")
    assert now == 0.0


def test_mock_exec_scripted_output(tmp_path):
    script = ('{"nodes": {"alpha": {"rules": ['
              '{"pattern": "*", "stdout": "hello", "stderr": "oops"}]}}}')
    outputs = log_paths(tmp_path)
    exec_under_mock(script, "run it", outputs=outputs)
    assert read_logs(outputs) == (b"hello", b"oops")


def test_mock_exec_deadline_cuts_execution():
    script = '{"nodes": {"alpha": {"rules": [{"pattern": "*", "duration": 10}]}}}'
    output, now = exec_under_mock(script, "slow", deadline=3.0)
    assert output.timed_out is True
    assert now == 3.0


def test_mock_exec_connection_loss_mid_command():
    script = ('{"nodes": {"alpha": {"rules": [{"pattern": "*", "duration": 10}],'
              '"lose_connection_at": [4.0]}}}')
    output, now = exec_under_mock(script, "slow")
    assert output.connection_lost is True
    assert now == 4.0


def test_mock_exec_loss_beats_later_deadline():
    script = ('{"nodes": {"alpha": {"rules": [{"pattern": "*", "duration": 10}],'
              '"lose_connection_at": [2.0]}}}')
    output, now = exec_under_mock(script, "slow", deadline=5.0)
    assert output.connection_lost is True
    assert now == 2.0


def test_mock_exec_deadline_beats_later_loss():
    script = ('{"nodes": {"alpha": {"rules": [{"pattern": "*", "duration": 10}],'
              '"lose_connection_at": [5.0]}}}')
    output, now = exec_under_mock(script, "slow", deadline=2.0)
    assert output.timed_out is True
    assert now == 2.0


def test_mock_stale_loss_instants_are_discarded():
    # losses scheduled before the command starts must not strike
    script = MockScript.from_json(
        '{"nodes": {"alpha": {"rules": [{"pattern": "*", "duration": 1}],'
        '"lose_connection_at": [0.5]}}}')
    transport = MockTransport(mock_node(), script)

    async def scenario():
        await transport.connect()
        await asyncio.sleep(2.0)
        return await transport.exec("late", (), None, None)

    output = run_virtual(scenario())
    assert output.connection_lost is False
    assert output.exit_code == 0


@pytest.mark.parametrize("deadline, losses, expected", [
    (1.0, (), ExecOutput(0)),  # ends exactly at its deadline: succeeds
    (None, (1.0,), ExecOutput(-1, connection_lost=True)),  # a loss at its end strikes
    (None, (0.0,), ExecOutput(0)),  # a loss at its start does not
    (0.5, (0.5,), ExecOutput(-1, connection_lost=True)),  # a loss beats the deadline
])
def test_mock_exec_decides_ties_by_the_stated_rules(deadline, losses, expected):
    script = MockScript(nodes={"alpha": MockNodeScript(
        rules=(MockRule("*", duration=1.0),), lose_connection_at=losses)})
    transport = MockTransport(mock_node(), script)

    async def scenario():
        await transport.connect()
        return await transport.exec("cmd", (), deadline, None)

    assert run_virtual(scenario()) == expected


def test_mock_unavailable_node_refuses_connect():
    script = MockScript.from_json('{"nodes": {"alpha": {"available": false}}}')
    transport = MockTransport(mock_node(), script)
    with pytest.raises(ConnectFailed, match="node alpha is scripted unavailable"):
        run_virtual(transport.connect())


def test_mock_fetch_unscripted_path_depends_on_strict_files(tmp_path):
    async def fetch_with(script_text, destination):
        transport = MockTransport(mock_node(), MockScript.from_json(script_text))
        await transport.connect()
        output = await transport.fetch("/var/log/missing", destination)
        return output.exit_code, destination.exists() and destination.read_bytes()

    assert run_virtual(fetch_with("{}", tmp_path / "lax.bin")) == (0, b"")
    strict = run_virtual(fetch_with('{"strict_files": true}', tmp_path / "strict.bin"))
    assert strict == (1, False)  # as `cat` exits


def test_mock_push_then_fetch_round_trip(tmp_path):
    source = tmp_path / "in.bin"
    payload = bytes(range(256)) * 8
    source.write_bytes(payload)
    transport = MockTransport(mock_node(), MockScript())

    async def scenario():
        await transport.connect()
        await transport.push(source, "/remote/data.bin")
        await transport.fetch("/remote/data.bin", tmp_path / "back.bin")

    run_virtual(scenario())
    assert (tmp_path / "back.bin").read_bytes() == payload


def test_mock_push_stays_on_its_node(tmp_path):
    # n1 and n2 both match "*" and so share one node script and its files
    source = tmp_path / "in.bin"
    source.write_bytes(b"from n1")
    script = MockScript.from_json(
        '{"nodes": {"*": {"files": {"/seed": "seed"}}}, "strict_files": true}')
    n1, n2 = (MockTransport(mock_node(name), script) for name in ("n1", "n2"))

    async def scenario():
        await n1.push(source, "/remote/data.bin")
        await n1.fetch("/remote/data.bin", tmp_path / "n1.bin")
        await n2.fetch("/seed", tmp_path / "n2-seed.bin")
        assert (await n2.fetch("/remote/data.bin", tmp_path / "n2.bin")).exit_code == 1

    run_virtual(scenario())
    assert (tmp_path / "n1.bin").read_bytes() == b"from n1"
    assert (tmp_path / "n2-seed.bin").read_bytes() == b"seed"
    assert script.node_script("n3").files == {"/seed": b"seed"}


def test_mock_nodes_sharing_a_rule_keep_equal_outputs(tmp_path):
    # n1 times out and n2 loses its connection on the rule both match;
    # the outputs that rule yields afterwards are still equal and intact
    script = MockScript.from_json(
        '{"nodes": {"*": {"rules": [{"pattern": "*", "exit": 3, "duration": 2,'
        ' "stdout": "out", "stderr": "err"}], "lose_connection_at": [1.0]}}}')
    n1, n2 = (MockTransport(mock_node(name), script) for name in ("n1", "n2"))
    logs = [log_paths(tmp_path, label) for label in ("cut", "lost", "after-cut", "after-loss")]

    async def scenario():
        cut = await n1.exec("job", (), 0.5, logs[0])
        lost = await n2.exec("job", (), None, logs[1])
        return cut, lost, await n1.exec("job", (), None, logs[2]), await n2.exec("job", (), None, logs[3])

    cut, lost, after_cut, after_loss = run_virtual(scenario())
    assert (cut.timed_out, cut.connection_lost) == (True, False)
    assert (lost.timed_out, lost.connection_lost) == (False, True)
    assert read_logs(logs[0]) == read_logs(logs[1]) == (b"", b"")
    assert after_cut == after_loss
    assert after_cut.exit_code == 3
    assert read_logs(logs[2]) == read_logs(logs[3]) == (b"out", b"err")
    assert (after_cut.timed_out, after_cut.connection_lost) == (False, False)


# --- sessions ---


def test_session_refuses_exec_before_connect():
    pool = mock_pool()
    target = mock_node()
    factory = pool.transport_factory

    async def scenario():
        from gplmt.transport import Session
        session = Session(target.name, factory(target), pool)
        with pytest.raises(SessionClosed):
            await session.exec("true")

    run_virtual(scenario())


def test_session_classifies_exit_codes():
    script = MockScript.from_json(
        '{"nodes": {"alpha": {"rules": [{"pattern": "bad", "exit": 2}]}}}')
    pool = mock_pool(script)

    async def scenario():
        session = await pool.acquire(mock_node())
        good = await session.exec("good")
        bad = await session.exec("bad")
        return good, bad

    good, bad = run_virtual(scenario())
    assert good.outcome is TaskOutcome.SUCCESS
    assert good.exit_code == 0
    assert bad.outcome is TaskOutcome.FAILED
    assert bad.exit_code == 2


def test_session_timeout_and_loss_outcomes():
    script = MockScript.from_json(
        '{"nodes": {"alpha": {"rules": [{"pattern": "*", "duration": 10}],'
        '"lose_connection_at": [12.0]}}}')
    pool = mock_pool(script)
    seen = []
    pool.emit = lambda kind, node, detail: seen.append(kind)

    async def scenario():
        session = await pool.acquire(mock_node())
        timed = await session.exec("one", deadline=5.0)
        lost = await session.exec("two")
        return timed, lost, session.state

    timed, lost, state = run_virtual(scenario())
    assert timed.outcome is TaskOutcome.TIMED_OUT
    assert lost.outcome is TaskOutcome.CONNECTION_LOST
    assert state is SessionState.LOST
    assert seen.count("ConnectLost") == 1


def test_session_captures_artifacts_when_labeled(tmp_path):
    script = MockScript.from_json(
        '{"nodes": {"alpha": {"rules": [{"pattern": "*", "stdout": "data", "stderr": "warn"}]}}}')
    pool = mock_pool(script, artifact_root=tmp_path)

    async def scenario():
        session = await pool.acquire(mock_node())
        labeled = await session.exec("x", artifact_label="0-0")
        plain = await session.exec("x")
        return labeled, plain

    labeled, plain = run_virtual(scenario())
    assert labeled.stdout_ref == "alpha/stdout-0-0.log"
    assert labeled.stderr_ref == "alpha/stderr-0-0.log"
    assert (tmp_path / "alpha" / "stdout-0-0.log").read_bytes() == b"data"
    assert (tmp_path / "alpha" / "stderr-0-0.log").read_bytes() == b"warn"
    assert plain.stdout_ref == "" and plain.stderr_ref == ""


def test_session_fetch_lands_in_node_directory(tmp_path):
    script = MockScript.from_json(
        '{"nodes": {"alpha": {"files": {"/var/log/out.pcap": "bytes!"}}}}')
    pool = mock_pool(script, artifact_root=tmp_path)

    async def scenario():
        session = await pool.acquire(mock_node())
        return await session.fetch("/var/log/out.pcap")

    result = run_virtual(scenario())
    assert result.outcome is TaskOutcome.SUCCESS
    assert result.stdout_ref == "alpha/out.pcap"
    assert (tmp_path / "alpha" / "out.pcap").read_bytes() == b"bytes!"


@pytest.mark.parametrize("path", ["/", ".", "..", "logs/.."])
def test_session_fetch_rejects_non_file_paths(tmp_path, path):
    pool = mock_pool(artifact_root=tmp_path)

    async def scenario():
        session = await pool.acquire(mock_node())
        with pytest.raises(TransportError, match="not a file path"):
            await session.fetch(path)

    run_virtual(scenario())


def test_session_fetch_requires_some_destination():
    pool = mock_pool()  # no artifact root configured

    async def scenario():
        session = await pool.acquire(mock_node())
        with pytest.raises(TransportError):
            await session.fetch("/var/log/x")

    run_virtual(scenario())


def test_session_push_requires_local_file(tmp_path):
    pool = mock_pool()

    async def scenario():
        session = await pool.acquire(mock_node())
        with pytest.raises(TransportError, match=re.escape(str(tmp_path / "absent.bin"))):
            await session.push(tmp_path / "absent.bin", "/remote/x")

    run_virtual(scenario())


def test_session_close_is_terminal():
    pool = mock_pool()

    async def scenario():
        session = await pool.acquire(mock_node())
        await session.close()
        assert session.state is SessionState.CLOSED
        with pytest.raises(SessionClosed):
            await session.exec("true")
        await pool.close_all()
        again = await pool.acquire(mock_node())
        return session, again

    session, again = run_virtual(scenario())
    assert again is not session  # a closed session is never handed out again
    assert session.state is SessionState.CLOSED
    assert again.state is SessionState.CONNECTED


# --- session pool ---


def test_pool_reuses_connection_per_node():
    events = []
    pool = mock_pool(emit=lambda k, n, detail: events.append((k, n, detail)))

    async def scenario():
        first = await pool.acquire(mock_node())
        for _ in range(49):
            again = await pool.acquire(mock_node())
            assert again is first
        return first.connect_count

    assert run_virtual(scenario()) == 1
    assert [e[0] for e in events] == ["ConnectAttempt", "ConnectSuccess"]


def test_pool_keeps_one_session_per_node():
    events = []
    pool = mock_pool(emit=lambda k, n, detail: events.append((k, n)))

    async def scenario():
        a = await pool.acquire(mock_node("alpha"))
        b = await pool.acquire(mock_node("beta"))
        assert a is not b
        assert await pool.acquire(mock_node("alpha")) is a
        assert await pool.acquire(mock_node("beta")) is b
        return [(s.node, s.state) for s in (a, b)]

    assert run_virtual(scenario()) == [
        ("alpha", SessionState.CONNECTED), ("beta", SessionState.CONNECTED)]
    assert events == [("ConnectAttempt", "alpha"), ("ConnectSuccess", "alpha"),
                      ("ConnectAttempt", "beta"), ("ConnectSuccess", "beta")]


def test_pool_refuses_group_targets():
    pool = mock_pool()
    group = TargetDef(name="all", kind=TargetKind.GROUP, members=(mock_node(),))

    async def scenario():
        with pytest.raises(ValueError):
            await pool.acquire(group)

    run_virtual(scenario())


def test_pool_acquire_reconnects_lost_sessions():
    events = []
    pool = mock_pool(emit=lambda k, n, detail: events.append(k))

    async def scenario():
        session = await pool.acquire(mock_node())
        session.mark_lost()
        again = await pool.acquire(mock_node())
        assert again is session
        return session.connect_count, session.state

    count, state = run_virtual(scenario())
    assert count == 2
    assert state is SessionState.CONNECTED
    assert events == ["ConnectAttempt", "ConnectSuccess", "ConnectLost",
                      "ConnectAttempt", "ConnectSuccess"]


def test_reconnect_backoff_schedule_matches_oracle():
    script = MockScript.from_json('{"nodes": {"alpha": {"connect_failures": 3}}}')
    attempts = []
    pool = mock_pool(script)
    pool.emit = lambda kind, node, detail: (
        attempts.append(now()) if kind == "ConnectAttempt" else None)

    async def scenario():
        session = await pool.acquire(mock_node())
        session.mark_lost()
        base = now()
        assert await pool.acquire(mock_node()) is session
        return base, session.state

    base, state = run_virtual(scenario())
    assert state is SessionState.CONNECTED
    # attempts[0] is the initial connect; reconnect attempts follow the
    # exponential backoff offsets 0, 1, 3, 7 from the loss instant
    offsets = [t - base for t in attempts[1:]]
    assert offsets == backoff_attempt_offsets(4)


def test_reconnect_budget_exhaustion():
    script = MockScript.from_json('{"nodes": {"alpha": {"reconnectable": false}}}')
    attempts = []
    pool = mock_pool(script)
    pool.emit = lambda kind, node, detail: (
        attempts.append(now()) if kind == "ConnectAttempt" else None)

    async def scenario():
        session = await pool.acquire(mock_node())
        session.mark_lost()
        with pytest.raises(ConnectFailed, match="gave up reconnecting to alpha after 5 attempts"):
            await pool.acquire(mock_node())
        return session.state

    assert run_virtual(scenario()) is SessionState.LOST
    assert [t - 0.0 for t in attempts[1:]] == backoff_attempt_offsets(5)


def test_reconnect_attempts_respect_the_limiter():
    attempts = []
    pool = mock_pool(limiter_config=RateLimiterConfig(1, 2.0))
    pool.emit = lambda kind, node, detail: (
        attempts.append(now()) if kind == "ConnectAttempt" else None)

    async def scenario():
        for name in ("alpha", "beta", "gamma"):
            await pool.acquire(mock_node(name))

    run_virtual(scenario())
    assert attempts == [0.0, 2.0, 4.0]


def test_close_all_closes_every_session():
    pool = mock_pool()

    async def scenario():
        sessions = [await pool.acquire(mock_node(name))
                    for name in ("alpha", "beta")]
        await pool.close_all()
        return [s.state for s in sessions]

    assert run_virtual(scenario()) == [SessionState.CLOSED, SessionState.CLOSED]


def test_close_all_closes_every_session_before_forgetting_it():
    events = []
    pool = mock_pool(emit=lambda k, n, detail: events.append((k, n, detail)))

    async def scenario():
        sessions = [await pool.acquire(mock_node(name))
                    for name in ("alpha", "beta")]
        await pool.close_all()
        del events[:]
        again = [await pool.acquire(mock_node(name))
                 for name in ("alpha", "beta")]
        return sessions, again

    sessions, again = run_virtual(scenario())
    assert [s.state for s in sessions] == [SessionState.CLOSED, SessionState.CLOSED]
    # the pool forgot both: each node gets a new session and a first connect
    assert all(new is not old for new, old in zip(again, sessions))
    assert [s.state for s in again] == [SessionState.CONNECTED, SessionState.CONNECTED]
    assert events == [(kind, node, "attempt=1") for node in ("alpha", "beta")
                      for kind in ("ConnectAttempt", "ConnectSuccess")]


def test_a_first_connect_is_tried_once_and_raises_its_own_error():
    script = MockScript.from_json('{"nodes": {"alpha": {"available": false}}}')
    attempts = []
    pool = mock_pool(script)
    pool.emit = lambda kind, node, detail: (
        attempts.append(detail) if kind == "ConnectAttempt" else None)

    async def scenario():
        with pytest.raises(ConnectFailed, match="node alpha is scripted unavailable"):
            await pool.acquire(mock_node())
        assert attempts == ["attempt=1"]
        # the next acquire of the node tries exactly once more
        with pytest.raises(ConnectFailed, match="node alpha is scripted unavailable"):
            await pool.acquire(mock_node())
        return now()

    assert run_virtual(scenario()) == 0.0  # no backoff between the two
    assert attempts == ["attempt=1", "attempt=2"]


def reconnect_branches(cancel_b_at=None):
    """alpha's session is lost and three branches a, b and c ask for it at
    0 s. a reconnects: one refused attempt, then one after the 1 s backoff.
    b is cancelled at `cancel_b_at` while queued for the reconnect turn, or
    else by a the moment a's release hands b the turn. Returns the order in
    which the branches got the session and when, and the attempts' details."""
    script = MockScript.from_json('{"nodes": {"alpha": {"connect_failures": 1}}}')
    attempts = []
    pool = mock_pool(script)
    pool.emit = lambda kind, node, detail: (
        attempts.append(detail) if kind == "ConnectAttempt" else None)

    async def scenario():
        session = await pool.acquire(mock_node())
        session.mark_lost()
        got, tasks = [], {}

        async def branch(tag):
            assert await pool.acquire(mock_node()) is session
            got.append((tag, now()))
            if tag == "a" and cancel_b_at is None:
                tasks["b"].cancel()

        for tag in "abc":
            tasks[tag] = asyncio.create_task(branch(tag))
        if cancel_b_at is not None:
            await asyncio.sleep(cancel_b_at)
            tasks["b"].cancel()
        await asyncio.gather(*tasks.values(), return_exceptions=True)
        assert tasks["b"].cancelled()
        return got

    return run_virtual(scenario()), attempts


def test_reconnect_turn_cancelled_after_the_hand_off_passes_on_at_once():
    got, attempts = reconnect_branches()
    assert got == [("a", 1.0), ("c", 1.0)]
    assert attempts == ["attempt=1", "attempt=2", "attempt=3"]


def test_reconnect_turn_cancelled_while_queued_makes_no_attempt():
    got, attempts = reconnect_branches(cancel_b_at=0.5)
    assert got == [("a", 1.0), ("c", 1.0)]
    assert attempts == ["attempt=1", "attempt=2", "attempt=3"]


def test_reconnect_turn_is_taken_in_fifo_order():
    script = MockScript.from_json('{"nodes": {"alpha": {"connect_failures": 1}}}')
    pool = mock_pool(script)

    async def scenario():
        session = await pool.acquire(mock_node())
        session.mark_lost()
        order = []

        async def branch(tag):
            await pool.acquire(mock_node())
            order.append((tag, now()))

        await asyncio.gather(*[branch(tag) for tag in range(5)])
        return order, session.connect_count

    assert run_virtual(scenario()) == ([(tag, 1.0) for tag in range(5)], 3)


# --- local transport ---


def local_target():
    return TargetDef(name="controller", kind=TargetKind.LOCAL)


def test_local_exec_runs_real_processes(tmp_path):
    transport = LocalTransport(local_target())
    outputs = log_paths(tmp_path)

    async def scenario():
        await transport.connect()
        return await transport.exec("printf hello; printf oops >&2; exit 4", (), None, outputs)

    output = asyncio.run(scenario())
    assert read_logs(outputs) == (b"hello", b"oops")
    assert output.exit_code == 4


def test_local_exec_exports_environment(tmp_path):
    transport = LocalTransport(local_target())
    outputs = log_paths(tmp_path)

    async def scenario():
        return await transport.exec('printf "%s" "$GREETING"',
                                    (("GREETING", "hi there"),), None, outputs)

    asyncio.run(scenario())
    assert read_logs(outputs)[0] == b"hi there"


def test_local_exec_deadline_kills_process_group():
    transport = LocalTransport(local_target())

    async def scenario():
        return await transport.exec("sleep 30", (), now() + 0.2, None)

    started = time.monotonic()
    output = asyncio.run(scenario())
    assert output.timed_out is True
    assert time.monotonic() - started < 5.0


def shell_pool(artifact_root):
    """A pool of real transports (local and ssh) fetching into artifact_root."""
    return SessionPool(make_transport_factory(), lambda kind, node, detail: None,
                       artifact_root=artifact_root)


def test_local_fetch_and_push_copy_files(tmp_path):
    pool = shell_pool(tmp_path / "run")
    node_dir = tmp_path / "run" / "controller"
    source = tmp_path / "src.bin"
    source.write_bytes(b"x" * 4096)

    async def scenario():
        session = await pool.acquire(local_target())
        assert (await session.fetch(str(source))).exit_code == 0
        pushed = str(tmp_path / "deep" / "pushed.bin")
        assert (await session.push(node_dir / "src.bin", pushed)).exit_code == 0
        assert (await session.fetch(str(tmp_path / "nope"))).exit_code != 0
        await pool.close_all()

    asyncio.run(scenario())
    assert not (node_dir / "nope").exists()
    assert (node_dir / "src.bin").read_bytes() == b"x" * 4096
    assert (tmp_path / "deep" / "pushed.bin").read_bytes() == b"x" * 4096
    assert not list(node_dir.glob("*.part"))  # no stray temp files


@pytest.mark.parametrize("kind", ["mock", "local"])
def test_a_get_that_cannot_be_renamed_leaves_no_part_file(tmp_path, kind):
    # the destination's name is already taken by a directory, so the rename
    # of the staged part fails on either kind of node
    remote = tmp_path / "data.bin"
    remote.write_bytes(b"payload")
    node_dir = tmp_path / "run" / "n1"
    (node_dir / "data.bin").mkdir(parents=True)
    if kind == "mock":
        script = MockScript(nodes={"n1": MockNodeScript(files={str(remote): b"payload"})})
        pool, target = mock_pool(script, artifact_root=tmp_path / "run"), mock_node("n1")
    else:
        pool, target = shell_pool(tmp_path / "run"), TargetDef(name="n1", kind=TargetKind.LOCAL)

    async def scenario():
        session = await pool.acquire(target)
        with pytest.raises(OSError):
            await session.fetch(str(remote))

    asyncio.run(scenario())
    assert not (node_dir / "data.bin.part").exists()
    assert (node_dir / "data.bin").is_dir()


@pytest.mark.parametrize("path, word", [
    ("~", "~"),
    ("~/logs/run 1.pcap", "~/'logs/run 1.pcap'"),
    ("~deploy/x", "~deploy/x"),
    ("/var/log/a b", "'/var/log/a b'"),
    ("~$(touch x)/y", "'~$(touch x)/y'"),
    ("~;touch x", "'~;touch x'"),
    ("logs/~/x", "'logs/~/x'"),
])
def test_shell_path_leaves_only_a_home_prefix_unquoted(path, word):
    assert _shell_path(path) == word


def test_a_tilde_path_names_the_same_home_file_on_local_and_ssh_nodes(
    fake_ssh, tmp_path, monkeypatch
):
    home = tmp_path / "home"
    home.mkdir()
    (home / "f").write_bytes(b"from home")
    monkeypatch.setenv("HOME", str(home))
    local, ssh = LocalTransport(local_target()), SshTransport(ssh_target())

    async def scenario():
        await ssh.connect()
        codes = [
            (await local.fetch("~/f", tmp_path / "local.bin")).exit_code,
            (await ssh.fetch("~/f", tmp_path / "ssh.bin")).exit_code,
            (await local.push(tmp_path / "local.bin", "~/in/local.bin")).exit_code,
            (await ssh.push(tmp_path / "ssh.bin", "~/in/ssh.bin")).exit_code,
            (await local.fetch(f"~;touch {tmp_path / 'injected'}", tmp_path / "x")).exit_code,
        ]
        await ssh.close()
        return codes

    assert asyncio.run(scenario())[:4] == [0, 0, 0, 0]
    assert (tmp_path / "local.bin").read_bytes() == b"from home"
    assert (tmp_path / "ssh.bin").read_bytes() == b"from home"
    assert (home / "in" / "local.bin").read_bytes() == b"from home"
    assert (home / "in" / "ssh.bin").read_bytes() == b"from home"
    assert not (tmp_path / "injected").exists()


# --- ssh transport (external client stand-in) ---


def ssh_target(password=None):
    return TargetDef(name="alpha", kind=TargetKind.SSH, ssh_user="deploy",
                     ssh_host="alpha.example.org", ssh_password=password)


def test_ssh_client_executable_env_override(monkeypatch):
    monkeypatch.delenv("GPLMT_SSH_CLIENT", raising=False)
    assert ssh_client_executable() == "ssh"
    monkeypatch.setenv("GPLMT_SSH_CLIENT", "/opt/bin/ssh")
    assert ssh_client_executable() == "/opt/bin/ssh"


def test_ssh_rejects_password_targets(fake_ssh):
    transport = SshTransport(ssh_target(password="hunter2"))
    with pytest.raises(ConnectFailed, match="target 'alpha' requests password authentication"):
        asyncio.run(transport.connect())


def test_ssh_connect_failure_surfaces_stderr(fake_ssh, monkeypatch):
    monkeypatch.setenv("FAKE_SSH_CONNECT_EXIT", "255")
    transport = SshTransport(ssh_target())
    with pytest.raises(ConnectFailed):
        asyncio.run(transport.connect())


def test_ssh_connect_failure_names_the_exit_and_the_clients_words(tmp_path, monkeypatch):
    client = tmp_path / "refused-ssh"
    client.write_text("#!/bin/sh\necho 'Permission denied (publickey).' >&2\nexit 255\n")
    client.chmod(0o755)
    monkeypatch.setenv("GPLMT_SSH_CLIENT", str(client))
    with pytest.raises(ConnectFailed) as failed:
        asyncio.run(SshTransport(ssh_target()).connect())
    assert str(failed.value) == (
        "ssh master for deploy@alpha.example.org exited 255: Permission denied (publickey).")


def test_ssh_exec_round_trips_env_quoting(fake_ssh, tmp_path):
    transport = SshTransport(ssh_target())
    tricky = "s3 cr'et\"$x"
    outputs = log_paths(tmp_path)

    async def scenario():
        await transport.connect()
        output = await transport.exec('printf "%s" "$SECRET"',
                                      (("SECRET", tricky),), None, outputs)
        await transport.close()
        return output

    output = asyncio.run(scenario())
    assert output.exit_code == 0
    assert read_logs(outputs)[0].decode() == tricky


def test_ssh_exit_255_means_connection_lost(fake_ssh):
    transport = SshTransport(ssh_target())

    async def scenario():
        await transport.connect()
        output = await transport.exec("exit 255", (), None, None)
        await transport.close()
        return output

    output = asyncio.run(scenario())
    assert output.connection_lost is True
    assert output.exit_code == 255


def test_an_ssh_transfer_whose_client_exits_255_loses_the_session(tmp_path, monkeypatch):
    # a client that sets up and closes its master but loses every channel
    client = tmp_path / "lossy-ssh"
    client.write_text('#!/bin/sh\ncase "$*" in *ControlMaster=yes*|*"-O exit"*) exit 0;; esac\nexit 255\n')
    client.chmod(0o755)
    monkeypatch.setenv("GPLMT_SSH_CLIENT", str(client))
    (tmp_path / "local.bin").write_bytes(b"x")
    events = []
    pool = SessionPool(make_transport_factory(), lambda kind, node, detail: events.append(kind.value),
                       artifact_root=tmp_path / "run")

    async def scenario():
        outcomes = []
        for transfer in ("fetch", "push"):
            session = await pool.acquire(ssh_target())
            if transfer == "fetch":
                result = await session.fetch("/var/log/x")
            else:
                result = await session.push(tmp_path / "local.bin", "/tmp/x")
            outcomes.append((result.outcome, session.state))
        await pool.close_all()
        return outcomes

    lost = (TaskOutcome.CONNECTION_LOST, SessionState.LOST)
    assert asyncio.run(scenario()) == [lost, lost]
    assert events.count("ConnectLost") == 2
    assert list((tmp_path / "run" / "alpha").iterdir()) == []  # no .part file is left


def test_ssh_fetch_and_push_use_the_channel(fake_ssh, tmp_path):
    pool = shell_pool(tmp_path / "run")
    node_dir = tmp_path / "run" / "alpha"
    remote = tmp_path / "remote.bin"
    payload = os.urandom(1 << 20)
    remote.write_bytes(payload)
    local = tmp_path / "local.bin"
    local.write_bytes(payload[::-1])

    async def scenario():
        session = await pool.acquire(ssh_target())
        assert (await session.fetch(str(remote))).exit_code == 0
        assert (await session.push(local, str(tmp_path / "pushed.bin"))).exit_code == 0
        missing = await session.fetch(str(tmp_path / "missing.bin"))
        assert missing.exit_code != 0 and missing.outcome is not TaskOutcome.CONNECTION_LOST
        await pool.close_all()

    asyncio.run(scenario())
    assert (node_dir / "remote.bin").read_bytes() == payload
    assert (tmp_path / "pushed.bin").read_bytes() == payload[::-1]
    assert not (node_dir / "missing.bin").exists()
    assert not list(node_dir.glob("*.part"))  # a failed fetch removes its partial file


def test_ssh_fetch_streams_into_a_part_file(fake_ssh, tmp_path):
    # the remote file is a FIFO the test writes: its first bytes must reach
    # <dest>.part while the transfer still runs
    pool = shell_pool(tmp_path / "run")
    fifo, destination = tmp_path / "remote.fifo", tmp_path / "run" / "alpha" / "remote.fifo"
    part = tmp_path / "run" / "alpha" / "remote.fifo.part"
    os.mkfifo(fifo)
    writer = None

    async def scenario():
        nonlocal writer
        session = await pool.acquire(ssh_target())
        fetch = asyncio.create_task(session.fetch(str(fifo)))
        deadline = time.monotonic() + 10
        while writer is None:  # opening a FIFO without a reader fails with ENXIO
            try:
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.01)
        os.set_blocking(writer, True)
        os.write(writer, b"first chunk")
        while not (part.exists() and part.read_bytes() == b"first chunk"):
            if time.monotonic() > deadline:
                break
            await asyncio.sleep(0.01)
        streamed = part.exists() and part.read_bytes()
        os.write(writer, b", last chunk")
        os.close(writer)
        writer = None
        await fetch
        await pool.close_all()
        return streamed

    try:
        streamed = asyncio.run(scenario())
    finally:
        if writer is not None:
            os.close(writer)  # the remote cat then ends
    assert streamed == b"first chunk"
    assert destination.read_bytes() == b"first chunk, last chunk"
    assert not part.exists()


@pytest.mark.parametrize("connect_exit", ["0", "1"])
def test_ssh_leaves_no_control_directory_behind(fake_ssh, tmp_path, monkeypatch, connect_exit):
    """The master's control directory goes with the session: on close after
    a connect, and at once when the connect fails (such a session is never
    closed)."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("FAKE_SSH_CONNECT_EXIT", connect_exit)
    transport = SshTransport(ssh_target())

    async def scenario():
        if connect_exit != "0":
            with pytest.raises(ConnectFailed):
                await transport.connect()
            return
        await transport.connect()
        assert list(tmp_path.glob("gplmt-cm-*"))
        await transport.close()

    asyncio.run(scenario())
    assert list(tmp_path.glob("gplmt-cm-*")) == []


# --- factory selection ---


def test_factory_picks_transport_by_target_kind():
    factory = make_transport_factory()
    assert isinstance(factory(local_target()), LocalTransport)
    assert isinstance(factory(ssh_target()), SshTransport)
    planetlab = TargetDef(name="p", kind=TargetKind.PLANETLAB,
                          planetlab_api_url="https://x/", planetlab_slice="s")
    with pytest.raises(ValueError):
        factory(planetlab)


def test_factory_with_a_script_makes_every_target_a_mock_node():
    factory = make_transport_factory(MockScript())
    assert isinstance(factory(local_target()), MockTransport)
    assert isinstance(factory(ssh_target()), MockTransport)
