from __future__ import annotations

import contextlib
import errno
import gc
import itertools
import json
import stat
import threading
import weakref
import xmlrpc.client
from pathlib import Path
from typing import Iterable
from unittest import mock
from xmlrpc.server import SimpleXMLRPCServer

import pytest

from gplmt.parser import load_experiment
from gplmt.planetlab import _FAULT_AUTH
from gplmt.scheduler import ExperimentRunner, VirtualTimeEventLoop
from gplmt.telemetry import EventLog


def run_virtual(coro):
    """Drive a coroutine on the virtual-time loop until it completes."""
    loop = VirtualTimeEventLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class _FullDiskHandle:
    """An EventLog's file handle whose k-th write (counting from 0) raises
    ENOSPC when `fails(k)`; every other write goes through."""

    def __init__(self, handle, fails):
        self._handle = handle
        self._fails = fails
        self._writes = itertools.count()

    def write(self, text):
        if self._fails(next(self._writes)):
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._handle.write(text)

    def flush(self):
        self._handle.flush()

    def close(self):
        self._handle.close()


@contextlib.contextmanager
def without_collector():
    """Run the body with the cyclic collector off. Yields a list that gets
    a weak reference to every ExperimentRunner built in the body: a run
    that leaves no reference cycle has its runner dead once it returns."""
    runners = []
    init = ExperimentRunner.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runners.append(weakref.ref(self))

    enabled = gc.isenabled()
    gc.disable()
    try:
        with mock.patch.object(ExperimentRunner, "__init__", recorded):
            yield runners
    finally:
        if enabled:
            gc.enable()


def full_disk_log(path, fails) -> EventLog:
    """An EventLog on `path` whose k-th events.jsonl write fails when `fails(k)`."""
    log = EventLog(path)
    log._handle = _FullDiskHandle(log._handle, fails)
    return log


@pytest.fixture
def load_xml(tmp_path):
    """Write an experiment document and load it, asserting zero errors."""

    def _load(xml: str, name: str = "exp.xml"):
        path = tmp_path / name
        path.write_text(xml, encoding="utf-8")
        experiment, diagnostics = load_experiment(path)
        assert experiment is not None, [str(d) for d in diagnostics]
        return experiment

    return _load


@pytest.fixture
def run_dir(tmp_path):
    d = tmp_path / "rundir"
    d.mkdir()
    return d


def events_of(run_dir: Path) -> list[dict]:
    lines = (run_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


FAKE_SSH = """#!/bin/bash
# Imitates the ssh client surface the transport relies on: master setup
# (-N -f), command execution after --, and -O exit. Commands run locally.
master=0
ctl=""
dest=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    -o) case "$2" in ControlMaster=*) master=1;; esac; shift 2;;
    -n|-N|-f) shift;;
    -O) ctl="$2"; shift 2;;
    --) shift; break;;
    *) dest="$1"; shift;;
  esac
done
if [[ -n "$ctl" ]]; then exit 0; fi
if [[ $master == 1 ]]; then exit "${FAKE_SSH_CONNECT_EXIT:-0}"; fi
exec /bin/sh -c "$1"
"""


class FakePlanetLabApi:
    """In-process XML-RPC server speaking just enough of the slice API.

    Serves GetSlices and GetNodes on a loopback port with password
    authentication, in a thread of the test process:

        with FakePlanetLabApi("myslice", "sekrit",
                              [("a.example.org", "boot")]) as api:
            records = list_slice_nodes(api.url, api.user, "sekrit", "myslice")
    """

    def __init__(
        self,
        slice_name: str,
        password: str,
        nodes: Iterable[tuple[str, str]],
        user: str = "user@example.org",
    ):
        self.slice_name = slice_name
        self.password = password
        self.user = user
        self._nodes = {
            node_id: {"node_id": node_id, "hostname": hostname, "boot_state": boot_state}
            for node_id, (hostname, boot_state) in enumerate(nodes, start=1)
        }
        self._server = SimpleXMLRPCServer(
            ("127.0.0.1", 0), allow_none=True, logRequests=False
        )
        self._server.register_function(self._get_slices, "GetSlices")
        self._server.register_function(self._get_nodes, "GetNodes")
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/"

    def start(self) -> FakePlanetLabApi:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> FakePlanetLabApi:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _check_auth(self, auth) -> None:
        ok = (
            isinstance(auth, dict)
            and auth.get("AuthMethod") == "password"
            and auth.get("Username") == self.user
            and auth.get("AuthString") == self.password
        )
        if not ok:
            raise xmlrpc.client.Fault(_FAULT_AUTH, "authentication failed")

    def _get_slices(self, auth, names, fields):
        self._check_auth(auth)
        if self.slice_name not in names:
            return []
        return [{"name": self.slice_name, "node_ids": sorted(self._nodes)}]

    def _get_nodes(self, auth, node_ids, fields):
        self._check_auth(auth)
        return [dict(self._nodes[i]) for i in node_ids if i in self._nodes]


@pytest.fixture
def fake_ssh(tmp_path, monkeypatch):
    """Install a stand-in ssh executable and point the transport at it."""
    path = tmp_path / "fake-ssh"
    path.write_text(FAKE_SSH, encoding="utf-8")
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    monkeypatch.setenv("GPLMT_SSH_CLIENT", str(path))
    return path
