"""PlanetLab-style slice expansion.

A planetlab target names a slice on a central XML-RPC API. Before
execution the target is expanded into an ordinary group of ssh leaves,
one per live node allocated to the slice, so the engine never needs to
know the API exists. A small in-process fake of the API ships here too,
for tests and demos without a real federation.
"""
from __future__ import annotations

import http.client
import re
import socket
import threading
import xmlrpc.client
from dataclasses import dataclass, replace
from typing import Callable, Iterable
from xmlrpc.server import SimpleXMLRPCServer

from .model import Experiment, TargetDef, TargetKind

BOOT_STATE_LIVE = "boot"

_LABEL = r"(?!-)[A-Za-z0-9-]{1,63}(?<!-)"
_HOSTNAME_RE = re.compile(rf"{_LABEL}(?:\.{_LABEL})*")


class PlanetLabError(Exception):
    """Base class for slice API failures."""


class AuthFailed(PlanetLabError):
    """The API rejected the supplied credentials."""


class ApiUnreachable(PlanetLabError):
    """The API endpoint could not be reached or did not speak XML-RPC."""


class MalformedResponse(PlanetLabError):
    """The API answered with data of an unexpected shape."""


@dataclass(frozen=True)
class SliceNodeRecord:
    """One node allocated to a slice, as reported by the API."""

    hostname: str
    boot_state: str
    node_id: int = 0


# PLCAPI signals bad credentials with this fault code.
_FAULT_AUTH = 103


def _auth_struct(user: str, credential: str) -> dict[str, str]:
    return {"AuthMethod": "password", "Username": user, "AuthString": credential}


def list_slice_nodes(
    api_url: str, user: str, credential: str, slice_name: str
) -> list[SliceNodeRecord]:
    """Ask the slice API which nodes belong to `slice_name`.

    Returns an empty list when the slice exists but has no nodes, or when
    the API does not know the slice at all.
    """
    auth = _auth_struct(user, credential)
    proxy = xmlrpc.client.ServerProxy(api_url, allow_none=True)
    try:
        slices = proxy.GetSlices(auth, [slice_name], ["name", "node_ids"])
        node_ids = _slice_node_ids(slices, slice_name)
        if not node_ids:
            return []
        nodes = proxy.GetNodes(auth, node_ids, ["hostname", "boot_state", "node_id"])
    except xmlrpc.client.Fault as fault:
        if fault.faultCode == _FAULT_AUTH:
            raise AuthFailed(fault.faultString) from fault
        raise PlanetLabError(f"fault {fault.faultCode}: {fault.faultString}") from fault
    except xmlrpc.client.ProtocolError as exc:
        raise ApiUnreachable(f"{api_url}: HTTP {exc.errcode} {exc.errmsg}") from exc
    except (OSError, socket.timeout, http.client.HTTPException) as exc:
        raise ApiUnreachable(f"{api_url}: {exc}") from exc
    except xmlrpc.client.ResponseError as exc:
        raise MalformedResponse(str(exc)) from exc
    return _node_records(nodes)


def _slice_node_ids(slices: object, slice_name: str) -> list[int]:
    if not isinstance(slices, list):
        raise MalformedResponse(f"GetSlices returned {type(slices).__name__}, expected list")
    for entry in slices:
        if not isinstance(entry, dict):
            raise MalformedResponse("GetSlices entry is not a struct")
        if entry.get("name") not in (None, slice_name):
            continue
        node_ids = entry.get("node_ids", [])
        if not isinstance(node_ids, list) or not all(isinstance(i, int) for i in node_ids):
            raise MalformedResponse(f"slice {slice_name!r} carries malformed node_ids")
        return node_ids
    return []


def _node_records(nodes: object) -> list[SliceNodeRecord]:
    if not isinstance(nodes, list):
        raise MalformedResponse(f"GetNodes returned {type(nodes).__name__}, expected list")
    records = []
    for entry in nodes:
        if not isinstance(entry, dict) or not isinstance(entry.get("hostname"), str):
            raise MalformedResponse("GetNodes entry lacks a hostname")
        boot_state = entry.get("boot_state")
        if not isinstance(boot_state, str):
            boot_state = "unknown"
        node_id = entry.get("node_id")
        if not isinstance(node_id, int):
            node_id = 0
        records.append(SliceNodeRecord(entry["hostname"], boot_state, node_id))
    return records


def expand_planetlab_target(
    target: TargetDef,
    records: Iterable[SliceNodeRecord],
    include_non_boot: bool = False,
) -> TargetDef:
    """Turn a planetlab target into a group of ssh leaves.

    One leaf per distinct hostname, named `<target>:<hostname>`, logging in
    as the slice (the PlanetLab convention). Nodes not in boot state are
    dropped unless `include_non_boot` is set. The target's exports move to
    the group, so resolution applies them to every leaf. A kept hostname
    that is not an RFC 1123 host name raises MalformedResponse.
    """
    members = []
    seen: set[str] = set()
    for record in records:
        if record.boot_state != BOOT_STATE_LIVE and not include_non_boot:
            continue
        if len(record.hostname) > 253 or not _HOSTNAME_RE.fullmatch(record.hostname):
            raise MalformedResponse(f"slice node hostname {record.hostname!r} is not a host name")
        if record.hostname in seen:
            continue
        seen.add(record.hostname)
        members.append(
            TargetDef(
                name=f"{target.name}:{record.hostname}",
                kind=TargetKind.SSH,
                ssh_user=target.planetlab_slice,
                ssh_host=record.hostname,
            )
        )
    return TargetDef(
        name=target.name,
        kind=TargetKind.GROUP,
        members=tuple(members),
        env_exports=target.env_exports,
    )


FetchFn = Callable[[str, str, str, str], list[SliceNodeRecord]]


def expand_experiment(
    experiment: Experiment,
    fetch: FetchFn | None = list_slice_nodes,
    include_non_boot: bool = False,
) -> Experiment:
    """Replace every planetlab target in the experiment with its expansion.

    `fetch` is called as fetch(api_url, user, credential, slice_name); pass
    None to expand offline into empty groups (dry runs never touch the
    network). Nested planetlab members inside groups are expanded too.
    """

    def rebuild(t: TargetDef) -> TargetDef:
        if t.kind is TargetKind.PLANETLAB:
            if fetch is None:
                records: list[SliceNodeRecord] = []
            else:
                records = fetch(
                    t.planetlab_api_url,
                    t.planetlab_user,
                    t.ssh_password or "",
                    t.planetlab_slice,
                )
            return expand_planetlab_target(t, records, include_non_boot)
        if t.members:
            return replace(t, members=tuple(rebuild(m) for m in t.members))
        return t

    return replace(experiment, targets=tuple(rebuild(t) for t in experiment.targets))


def planetlab_target_names(experiment: Experiment) -> list[str]:
    """Names of all planetlab targets, in definition order."""
    from .model import iter_target_defs

    names = []
    for top in experiment.targets:
        for t in iter_target_defs(top):
            if t.kind is TargetKind.PLANETLAB and t.name not in names:
                names.append(t.name)
    return names


class FakePlanetLabApi:
    """In-process XML-RPC server speaking just enough of the slice API.

    Serves GetSlices and GetNodes on a loopback port with password
    authentication, for tests and offline demos:

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
