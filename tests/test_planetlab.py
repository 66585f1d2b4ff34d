from __future__ import annotations

import socket
import threading
import xmlrpc.client
from xmlrpc.server import SimpleXMLRPCServer

import pytest

from gplmt.model import TargetDef, TargetKind, audit
from gplmt.planetlab import (
    ApiUnreachable,
    AuthFailed,
    FakePlanetLabApi,
    MalformedResponse,
    PlanetLabError,
    SliceNodeRecord,
    expand_experiment,
    expand_planetlab_target,
    list_slice_nodes,
    planetlab_target_names,
)

THREE_HOSTS = [
    SliceNodeRecord("a.example.org", "boot", 1),
    SliceNodeRecord("b.example.org", "dbg", 2),
    SliceNodeRecord("c.example.org", "boot", 3),
]


def pl_target(name="testbed", **overrides):
    fields = dict(
        name=name,
        kind=TargetKind.PLANETLAB,
        planetlab_api_url="https://api.example/",
        planetlab_slice="myslice",
        planetlab_user="me@example.org",
        ssh_password="sekrit",
    )
    fields.update(overrides)
    return TargetDef(**fields)


# --- pure expansion ---


def test_expansion_keeps_only_boot_state_nodes():
    group = expand_planetlab_target(pl_target(), THREE_HOSTS)
    assert group.kind is TargetKind.GROUP
    assert group.name == "testbed"
    assert [m.name for m in group.members] == [
        "testbed:a.example.org",
        "testbed:c.example.org",
    ]


def test_expanded_leaves_log_in_as_the_slice():
    group = expand_planetlab_target(pl_target(), THREE_HOSTS)
    leaf = group.members[0]
    assert leaf.kind is TargetKind.SSH
    assert leaf.ssh_user == "myslice"
    assert leaf.ssh_host == "a.example.org"
    assert leaf.ssh_password is None  # node login uses the client's keys


def test_expansion_can_include_non_boot_nodes():
    group = expand_planetlab_target(pl_target(), THREE_HOSTS, include_non_boot=True)
    assert len(group.members) == 3
    assert group.members[1].ssh_host == "b.example.org"


def test_expansion_deduplicates_hostnames():
    records = [
        SliceNodeRecord("a.example.org", "boot", 1),
        SliceNodeRecord("a.example.org", "boot", 9),
    ]
    group = expand_planetlab_target(pl_target(), records)
    assert len(group.members) == 1


@pytest.mark.parametrize(
    "hostname", ["../../../escape", "a/b.example.org", "", "-a.example.org", "a..b", "x" * 64]
)
def test_expansion_rejects_hostnames_that_are_not_host_names(hostname):
    records = [SliceNodeRecord("a.example.org", "boot", 1), SliceNodeRecord(hostname, "boot", 2)]
    with pytest.raises(MalformedResponse):
        expand_planetlab_target(pl_target(), records)


def test_expansion_moves_env_exports_to_the_group():
    target = pl_target(env_exports=(("REGION", "eu"),))
    group = expand_planetlab_target(target, THREE_HOSTS)
    assert group.env_exports == (("REGION", "eu"),)
    assert all(m.env_exports == () for m in group.members)


def test_expansion_of_no_live_nodes_is_an_empty_group():
    group = expand_planetlab_target(pl_target(), [SliceNodeRecord("x", "dbg")])
    assert group.members == ()


# --- experiment-level expansion ---


PL_DOC = """
<experiment>
 <targets>
   <target name="ctl" type="local" />
   <target name="testbed" type="planetlab" api-url="https://api.example/"
           slice="myslice" user="me@example.org"><password>sekrit</password></target>
   <target name="mixed" type="group">
     <export-env var="REGION" value="eu" />
     <target name="inner" type="planetlab" api-url="https://api.example/"
             slice="myslice" user="me@example.org" />
   </target>
 </targets>
 <tasklists>
   <tasklist name="work"><run>true</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="testbed" />
 </steps>
</experiment>
"""


def test_expand_experiment_rewrites_nested_planetlab_targets(load_xml):
    experiment = load_xml(PL_DOC)
    calls = []

    def fetch(api_url, user, credential, slice_name):
        calls.append((api_url, user, credential, slice_name))
        return THREE_HOSTS

    expanded = expand_experiment(experiment, fetch)
    assert calls == [
        ("https://api.example/", "me@example.org", "sekrit", "myslice"),
        ("https://api.example/", "me@example.org", "", "myslice"),
    ]
    by_name = expanded.target_map()
    assert by_name["ctl"].kind is TargetKind.LOCAL  # untouched
    assert [m.name for m in by_name["testbed"].members] == [
        "testbed:a.example.org", "testbed:c.example.org"]
    inner = by_name["mixed"].members[0]
    assert inner.kind is TargetKind.GROUP
    assert [m.name for m in inner.members] == [
        "inner:a.example.org", "inner:c.example.org"]
    assert planetlab_target_names(expanded) == []


def test_expand_experiment_offline_yields_empty_groups(load_xml):
    experiment = load_xml(PL_DOC)
    expanded = expand_experiment(experiment, fetch=None)
    assert expanded.target_map()["testbed"].members == ()
    # the expanded document still audits clean: empty groups are legal here
    assert audit(expanded) == []


def test_planetlab_target_names_in_definition_order(load_xml):
    experiment = load_xml(PL_DOC)
    assert planetlab_target_names(experiment) == ["testbed", "inner"]


# --- the wire protocol, against the bundled fake ---


def test_list_slice_nodes_happy_path():
    with FakePlanetLabApi("myslice", "sekrit",
                          [("a.example.org", "boot"),
                           ("b.example.org", "dbg"),
                           ("c.example.org", "boot")]) as api:
        records = list_slice_nodes(api.url, api.user, "sekrit", "myslice")
    assert records == [
        SliceNodeRecord("a.example.org", "boot", 1),
        SliceNodeRecord("b.example.org", "dbg", 2),
        SliceNodeRecord("c.example.org", "boot", 3),
    ]


def test_list_slice_nodes_rejects_bad_credentials():
    with FakePlanetLabApi("myslice", "sekrit", [("a.example.org", "boot")]) as api:
        with pytest.raises(AuthFailed):
            list_slice_nodes(api.url, api.user, "wrong", "myslice")


def test_list_slice_nodes_unknown_slice_is_empty():
    with FakePlanetLabApi("myslice", "sekrit", [("a.example.org", "boot")]) as api:
        assert list_slice_nodes(api.url, api.user, "sekrit", "elsewhere") == []


def test_list_slice_nodes_unreachable_endpoint():
    # bind a port, then close it: nothing listens there afterwards
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ApiUnreachable):
        list_slice_nodes(f"http://127.0.0.1:{port}/", "me", "pw", "myslice")


class _ShapedApi:
    """XML-RPC server that answers with whatever shape a test dictates."""

    def __init__(self, slices, nodes=None):
        self._server = SimpleXMLRPCServer(("127.0.0.1", 0), allow_none=True,
                                          logRequests=False)
        self._server.register_function(lambda auth, names, fields: slices, "GetSlices")
        self._server.register_function(lambda auth, ids, fields: nodes, "GetNodes")
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def __enter__(self):
        self._thread.start()
        host, port = self._server.server_address
        return f"http://{host}:{port}/"

    def __exit__(self, *exc_info):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


@pytest.mark.parametrize(
    "slices,nodes",
    [
        (7, None),                                             # GetSlices not a list
        ([["not-a-struct"]], None),                            # entry not a struct
        ([{"name": "myslice", "node_ids": "1,2"}], None),      # node_ids not ints
        ([{"name": "myslice", "node_ids": [1]}], {"bad": 1}),  # GetNodes not a list
        ([{"name": "myslice", "node_ids": [1]}], [{"boot_state": "boot"}]),  # no hostname
    ],
)
def test_list_slice_nodes_rejects_malformed_shapes(slices, nodes):
    with _ShapedApi(slices, nodes) as url:
        with pytest.raises(MalformedResponse):
            list_slice_nodes(url, "me", "pw", "myslice")


def test_list_slice_nodes_tolerates_missing_optional_fields():
    nodes = [{"hostname": "a.example.org"}]  # no boot_state, no node_id
    with _ShapedApi([{"name": "myslice", "node_ids": [1]}], nodes) as url:
        records = list_slice_nodes(url, "me", "pw", "myslice")
    assert records == [SliceNodeRecord("a.example.org", "unknown", 0)]


def test_other_faults_are_not_auth_failures():
    server = SimpleXMLRPCServer(("127.0.0.1", 0), allow_none=True, logRequests=False)

    def boom(auth, names, fields):
        raise xmlrpc.client.Fault(42, "maintenance window")

    server.register_function(boom, "GetSlices")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        with pytest.raises(PlanetLabError) as info:
            list_slice_nodes(f"http://{host}:{port}/", "me", "pw", "myslice")
        assert not isinstance(info.value, AuthFailed)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def test_fake_api_get_nodes_filters_by_requested_ids():
    with FakePlanetLabApi("myslice", "sekrit",
                          [("a.example.org", "boot"), ("b.example.org", "boot")]) as api:
        proxy = xmlrpc.client.ServerProxy(api.url, allow_none=True)
        auth = {"AuthMethod": "password", "Username": api.user, "AuthString": "sekrit"}
        nodes = proxy.GetNodes(auth, [2, 99], ["hostname", "boot_state", "node_id"])
    assert nodes == [{"node_id": 2, "hostname": "b.example.org", "boot_state": "boot"}]


# --- end to end: expand against the fake, then execute ---


def test_expanded_slice_runs_on_its_leaves(load_xml):
    from gplmt.scheduler import dry_run
    from gplmt.telemetry import EventLog

    experiment = load_xml("""
<experiment>
 <targets>
   <target name="testbed" type="planetlab" api-url="PLACEHOLDER"
           slice="myslice" user="me@example.org"><password>sekrit</password></target>
 </targets>
 <tasklists>
   <tasklist name="work"><run>uname -a</run></tasklist>
 </tasklists>
 <steps>
   <step tasklist="work" targets="testbed" />
 </steps>
</experiment>
""")
    with FakePlanetLabApi("myslice", "sekrit",
                          [("a.example.org", "boot"),
                           ("b.example.org", "dbg"),
                           ("c.example.org", "boot")], user="me@example.org") as api:
        def fetch(api_url, user, credential, slice_name):
            return list_slice_nodes(api.url, user, credential, slice_name)

        expanded = expand_experiment(experiment, fetch)

    log = EventLog()
    dry_run(expanded, event_log=log)
    ran_on = {e.node for e in log.events if e.kind.value == "TaskStart"}
    assert ran_on == {"testbed:a.example.org", "testbed:c.example.org"}
