from __future__ import annotations

import contextlib
import errno
import gc
import itertools
import json
import stat
import weakref
from pathlib import Path
from unittest import mock

import pytest

from gplmt.parser import load_experiment
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


@pytest.fixture
def fake_ssh(tmp_path, monkeypatch):
    """Install a stand-in ssh executable and point the transport at it."""
    path = tmp_path / "fake-ssh"
    path.write_text(FAKE_SSH, encoding="utf-8")
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    monkeypatch.setenv("GPLMT_SSH_CLIENT", str(path))
    return path
