from __future__ import annotations

import http.server
import os
import re
import socket
import subprocess
import sys
import threading
import xmlrpc.client
from xml.parsers.expat import ExpatError
from xmlrpc.server import SimpleXMLRPCServer

import pytest

import gplmt
from gplmt.model import TargetDef, TargetKind
from gplmt.planetlab import (
    PlanetLabError,
    SliceNodeRecord,
    expand_experiment,
    expand_planetlab_target,
    list_slice_nodes,
    planetlab_target_names,
)

from .conftest import FakePlanetLabApi
from .oracles import audit

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
    message = f"slice node hostname {hostname!r} is not a host name"
    with pytest.raises(PlanetLabError, match=f"^{re.escape(message)}$"):
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


def test_expand_experiment_keeps_groups_without_slices(load_xml):
    experiment = load_xml(PL_DOC.replace(
        '<export-env var="REGION" value="eu" />',
        '<export-env var="REGION" value="eu" />'
        '<target name="static" type="group"><target name="ctl" /></target>',
    ))
    expanded = expand_experiment(experiment, lambda *request: THREE_HOSTS)
    before, after = experiment.target_map(), expanded.target_map()
    assert after["ctl"] is before["ctl"]
    assert after["mixed"] is not before["mixed"]  # its slice member was expanded
    assert after["mixed"].members[0] is before["static"]


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
        with pytest.raises(PlanetLabError, match="^authentication failed$"):
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
    url = f"http://127.0.0.1:{port}/"
    with pytest.raises(PlanetLabError, match=f"^{re.escape(url)}: "):
        list_slice_nodes(url, "me", "pw", "myslice")


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
    "slices,nodes,message",
    [
        (7, None, "GetSlices returned int, expected list"),
        ([["not-a-struct"]], None, "GetSlices entry is not a struct"),
        ([{"name": "myslice", "node_ids": "1,2"}], None,
         "slice 'myslice' carries malformed node_ids"),
        ([{"name": "myslice", "node_ids": [1]}], {"bad": 1},
         "GetNodes returned dict, expected list"),
        ([{"name": "myslice", "node_ids": [1]}], [{"boot_state": "boot"}],
         "GetNodes entry lacks a hostname"),
    ],
    ids=["7-None", "slices1-None", "slices2-None", "slices3-nodes3", "slices4-nodes4"],
)
def test_list_slice_nodes_rejects_malformed_shapes(slices, nodes, message):
    with _ShapedApi(slices, nodes) as url:
        with pytest.raises(PlanetLabError, match=f"^{re.escape(message)}$"):
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
        with pytest.raises(PlanetLabError, match="^fault 42: maintenance window$"):
            list_slice_nodes(f"http://{host}:{port}/", "me", "pw", "myslice")
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


class _RawApi(_ShapedApi):
    """HTTP server that answers every POST with one fixed status and body."""

    def __init__(self, status, body):
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                data = body.encode()
                self.send_response(status)
                self.send_header("Content-Type", "text/xml")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)


def _answer(value):
    return ("<?xml version='1.0'?><methodResponse><params><param>"
            f"<value>{value}</value></param></params></methodResponse>")


@pytest.mark.parametrize(
    "status,body,cause",
    [
        (200, "not xml at all", ExpatError),
        (200, _answer("<boolean>2</boolean>"), TypeError),
        (200, "<?xml version='1.0'?><methodResponse><fault><value><int>3</int>"
              "</value></fault></methodResponse>", TypeError),  # fault value not a struct
        (200, _answer("<int>x</int>"), ValueError),
        (200, "<foo/>", xmlrpc.client.ResponseError),  # well-formed, not XML-RPC
        (500, "oops", xmlrpc.client.ProtocolError),
    ],
    ids=["not-xml", "boolean-2", "fault-not-a-struct", "int-x", "not-xml-rpc", "http-500"],
)
def test_every_odd_answer_is_a_planetlab_error(status, body, cause):
    with _RawApi(status, body) as url:
        with pytest.raises(PlanetLabError, match=f"^{re.escape(url)}: ") as info:
            list_slice_nodes(url, "me", "pw", "myslice")
    assert isinstance(info.value.__cause__, cause)
    if status == 500:
        assert str(info.value) == f"{url}: HTTP 500 Internal Server Error"


@pytest.mark.parametrize(
    "url,cause",
    [
        ("ftp://example.org/", OSError),  # a scheme the client does not speak
        ("http://[::1", ValueError),       # not a URL
    ],
)
def test_an_unusable_api_url_is_a_planetlab_error(url, cause):
    with pytest.raises(PlanetLabError, match=f"^{re.escape(url)}: ") as info:
        list_slice_nodes(url, "me", "pw", "myslice")
    assert isinstance(info.value.__cause__, cause)


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


def test_importing_the_cli_loads_no_network_modules():
    # A run that never contacts a slice API should not pay for importing
    # the XML-RPC server, which pulls in http.server, socketserver and pydoc.
    src = os.path.dirname(os.path.dirname(gplmt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, gplmt.cli; "
        "print(sorted(m for m in ('xmlrpc.server', 'http.client', 'pydoc') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
