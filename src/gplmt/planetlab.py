"""PlanetLab-style slice expansion.

A planetlab target names a slice on a central XML-RPC API. Before
execution the target is expanded into an ordinary group of ssh leaves,
one per live node allocated to the slice, so the engine never needs to
know the API exists.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from .model import Experiment, TargetDef, TargetKind

# The XML-RPC and HTTP client modules are imported where they are used: a
# run that never contacts a slice API does not load them.

BOOT_STATE_LIVE = "boot"

_new_tuple = tuple.__new__  # builds a named tuple without its Python __new__

_LABEL = r"(?!-)[A-Za-z0-9-]{1,63}(?<!-)"
_HOSTNAME_RE = re.compile(rf"{_LABEL}(?:\.{_LABEL})*")


class PlanetLabError(Exception):
    """Any failure of the slice API or of its answer; the message says which."""


@dataclass(frozen=True)
class SliceNodeRecord:
    """One node allocated to a slice, as reported by the API."""

    hostname: str
    boot_state: str
    node_id: int = 0


# PLCAPI signals bad credentials with this fault code.
_FAULT_AUTH = 103


def list_slice_nodes(
    api_url: str, user: str, credential: str, slice_name: str
) -> list[SliceNodeRecord]:
    """Ask the slice API which nodes belong to `slice_name`.

    Returns an empty list when the slice exists but has no nodes, or when
    the API does not know the slice at all. Every failure of the exchange
    raises PlanetLabError.
    """
    import http.client
    import xmlrpc.client
    from xml.parsers.expat import ExpatError

    auth = {"AuthMethod": "password", "Username": user, "AuthString": credential}
    try:
        proxy = xmlrpc.client.ServerProxy(api_url, allow_none=True)
        slices = proxy.GetSlices(auth, [slice_name], ["name", "node_ids"])
        node_ids = _slice_node_ids(slices, slice_name)
        if not node_ids:
            return []
        nodes = proxy.GetNodes(auth, node_ids, ["hostname", "boot_state", "node_id"])
    except xmlrpc.client.Fault as fault:
        if fault.faultCode == _FAULT_AUTH:
            raise PlanetLabError(fault.faultString) from fault
        raise PlanetLabError(f"fault {fault.faultCode}: {fault.faultString}") from fault
    except xmlrpc.client.ProtocolError as exc:
        raise PlanetLabError(f"{api_url}: HTTP {exc.errcode} {exc.errmsg}") from exc
    # no connection, an unusable api-url, or an answer that is not XML-RPC
    except (OSError, http.client.HTTPException, xmlrpc.client.Error, ExpatError,
            TypeError, ValueError) as exc:
        raise PlanetLabError(f"{api_url}: {exc}") from exc
    return _node_records(nodes)


def _slice_node_ids(slices: object, slice_name: str) -> list[int]:
    if not isinstance(slices, list):
        raise PlanetLabError(f"GetSlices returned {type(slices).__name__}, expected list")
    for entry in slices:
        if not isinstance(entry, dict):
            raise PlanetLabError("GetSlices entry is not a struct")
        if entry.get("name") not in (None, slice_name):
            continue
        node_ids = entry.get("node_ids", [])
        if not isinstance(node_ids, list) or not all(isinstance(i, int) for i in node_ids):
            raise PlanetLabError(f"slice {slice_name!r} carries malformed node_ids")
        return node_ids
    return []


def _node_records(nodes: object) -> list[SliceNodeRecord]:
    if not isinstance(nodes, list):
        raise PlanetLabError(f"GetNodes returned {type(nodes).__name__}, expected list")
    records = []
    for entry in nodes:
        if not isinstance(entry, dict) or not isinstance(entry.get("hostname"), str):
            raise PlanetLabError("GetNodes entry lacks a hostname")
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
    that is not an RFC 1123 host name raises PlanetLabError.
    """
    members = []
    seen: set[str] = set()
    prefix, ssh, slice_user = f"{target.name}:", TargetKind.SSH, target.planetlab_slice
    for record in records:
        if record.boot_state != BOOT_STATE_LIVE and not include_non_boot:
            continue
        hostname = record.hostname
        if len(hostname) > 253 or not _HOSTNAME_RE.fullmatch(hostname):
            raise PlanetLabError(f"slice node hostname {hostname!r} is not a host name")
        if hostname in seen:
            continue
        seen.add(hostname)
        # name, kind, ssh_user, ssh_password, ssh_host, then the defaults
        members.append(_new_tuple(TargetDef, (
            prefix + hostname, ssh, slice_user, None, hostname, None, None, None, (), ()
        )))
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
    network). Nested planetlab members inside groups are expanded too, each
    target once however many groups embed it; a group none of whose members
    changed is kept as it is.
    """
    slices: dict[str, TargetDef] = {}
    targets = tuple([_rebuild(t, slices, fetch, include_non_boot) for t in experiment.targets])
    return replace(experiment, targets=targets)


def _rebuild(
    t: TargetDef, slices: dict[str, TargetDef], fetch: FetchFn | None, include_non_boot: bool
) -> TargetDef:
    """`t` with its planetlab targets expanded; `slices` holds each
    expansion made so far. A module function, not a closure that calls
    itself: such a closure would keep `slices` in a reference cycle."""
    if t.kind is TargetKind.PLANETLAB:
        expansion = slices.get(t.name)
        if expansion is None:
            records = [] if fetch is None else fetch(
                t.planetlab_api_url, t.planetlab_user, t.ssh_password or "", t.planetlab_slice
            )
            expansion = slices[t.name] = expand_planetlab_target(t, records, include_non_boot)
        return expansion
    if t.members:
        members = tuple([_rebuild(m, slices, fetch, include_non_boot) for m in t.members])
        if any(map(operator.is_not, members, t.members)):
            return t._replace(members=members)
    return t


def planetlab_target_names(experiment: Experiment) -> list[str]:
    """Names of all planetlab targets, in definition order."""
    return [name for name, t in experiment.target_map().items() if t.kind is TargetKind.PLANETLAB]
