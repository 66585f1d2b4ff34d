from __future__ import annotations

import gc
import json
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gplmt.model import (
    CallTask,
    ErrorMode,
    GetTask,
    ParTask,
    PutTask,
    Repeat,
    RunTask,
    SeqTask,
    Step,
    Synchronize,
    TargetKind,
    audit,
)
from gplmt.parser import (
    MAX_NESTING_DEPTH,
    BadTimeSpecError,
    Severity,
    XmlNode,
    load_experiment,
    parse_document,
    parse_duration,
    parse_timespec,
    parse_timestamp,
    resolve_includes,
    validate_and_lower,
)

from .oracles import iso_duration_seconds

CORPUS = Path(__file__).parent / "corpus"

VALID = """<experiment>
 <targets>
   <target name="n" type="local" />
 </targets>
 <tasklists>
   <tasklist name="t"><run>true</run></tasklist>
 </tasklists>
 <steps><step tasklist="t" targets="n" /></steps>
</experiment>
"""


def check(tmp_path, xml: str, name="doc.xml"):
    path = tmp_path / name
    path.write_text(xml, encoding="utf-8")
    return load_experiment(path)


def error_codes(diags):
    return [d.code for d in diags if d.severity is Severity.ERROR]


# -- time specs ------------------------------------------------------


DURATION_TABLE = [
    ("PT5S", 5.0),
    ("PT1M", 60.0),
    ("PT1H30M", 5400.0),
    ("P1D", 86400.0),
    ("P1W", 604800.0),
    ("PT0.5S", 0.5),
    ("PT0,5S", 0.5),
    ("P1DT2H3M4S", 86400.0 + 7200.0 + 180.0 + 4.0),
]


@pytest.mark.parametrize("text,expected", DURATION_TABLE)
def test_parse_duration_table(text, expected):
    assert parse_duration(text) == expected


@pytest.mark.parametrize("text,expected", DURATION_TABLE)
def test_parse_duration_matches_reference(text, expected):
    assert iso_duration_seconds(text) == parse_duration(text) == expected


@pytest.mark.parametrize("bad", ["", "P", "PT", "5s", "PT5", "P5M-ish", "T5S", "PT5S later"])
def test_parse_duration_rejects(bad):
    with pytest.raises(BadTimeSpecError):
        parse_duration(bad)


def test_parse_duration_tolerates_surrounding_whitespace():
    # attribute values may carry stray whitespace from formatting
    assert parse_duration(" PT5S ") == 5.0


@given(
    st.integers(0, 3),
    st.integers(0, 23),
    st.integers(0, 59),
    st.integers(0, 59),
)
def test_parse_duration_composed(days, hours, minutes, seconds):
    text = "P"
    if days:
        text += f"{days}D"
    text += f"T{hours}H{minutes}M{seconds}S"
    expected = days * 86400 + hours * 3600 + minutes * 60 + seconds
    assert parse_duration(text) == expected == iso_duration_seconds(text)


def test_parse_timestamp_zulu_and_offset():
    t = parse_timestamp("1970-01-01T00:00:03Z")
    assert t == datetime(1970, 1, 1, 0, 0, 3, tzinfo=timezone.utc)
    u = parse_timestamp("2016-01-01T12:00:00+01:00")
    assert u.utcoffset().total_seconds() == 3600


def test_parse_timestamp_requires_timezone():
    with pytest.raises(BadTimeSpecError):
        parse_timestamp("2016-01-01T12:00:00")


def test_parse_timespec_discriminates():
    from gplmt.model import AbsoluteTime, RelativeTime

    assert parse_timespec("PT5S") == RelativeTime(5.0)
    spec = parse_timespec("1970-01-01T00:00:03Z")
    assert isinstance(spec, AbsoluteTime)
    with pytest.raises(BadTimeSpecError):
        parse_timespec("whenever")


# -- document level ------------------------------------------------------


def test_valid_minimal_document(tmp_path):
    exp, diags = check(tmp_path, VALID)
    assert diags == []
    assert exp is not None
    assert audit(exp) == []
    assert [t.name for t in exp.targets] == ["n"]
    assert exp.targets[0].kind is TargetKind.LOCAL


def test_parse_document_records_locations(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(VALID, encoding="utf-8")
    tree = parse_document(path)
    assert tree.tag == "experiment"
    assert tree.line == 1
    steps = [c for c in tree.children if c.tag == "steps"][0]
    assert steps.line == 8
    assert steps.column == 2


def test_diagnostics_carry_location_and_format(tmp_path):
    _, diags = check(tmp_path, VALID.replace('targets="n"', 'targets="ghost"'))
    assert len(diags) == 1
    d = diags[0]
    assert d.code == "UnknownReference"
    document, line, column = d.location
    assert document.endswith("doc.xml") and (line, column) == (8, 9)
    assert f"doc.xml:8:9: Error: UnknownReference: " in str(d)


def test_collects_all_errors_not_just_first(tmp_path):
    xml = VALID.replace('<target name="n" type="local" />',
                        '<target name="n" type="local" /><target name="n" type="local" />')
    xml = xml.replace('targets="n"', 'targets="ghost"')
    xml = xml.replace("<run>true</run>", '<run>true</run><call ref="missing" />')
    _, diags = check(tmp_path, xml)
    codes = error_codes(diags)
    assert "DuplicateName" in codes
    assert "UnknownReference" in codes
    assert len(codes) >= 3


def test_root_element_must_be_experiment(tmp_path):
    exp, diags = check(tmp_path, "<banana />")
    assert exp is None
    assert error_codes(diags) == ["UnknownElement"]


def test_unexpected_text_in_structural_element(tmp_path):
    exp, diags = check(tmp_path, VALID.replace("<targets>", "<targets>stray words"))
    assert exp is None
    assert "UnexpectedText" in error_codes(diags)


# -- targets ------------------------------------------------------


def test_ssh_target_requires_user_and_host(tmp_path):
    xml = VALID.replace('<target name="n" type="local" />',
                        '<target name="n" type="ssh"><user>u</user></target>')
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "BadTargetDef" in error_codes(diags)


def test_username_is_accepted_for_user(tmp_path):
    xml = VALID.replace(
        '<target name="n" type="local" />',
        '<target name="n" type="ssh"><username>u</username><host>h</host></target>',
    )
    exp, diags = check(tmp_path, xml)
    assert diags == []
    assert exp.targets[0].ssh_user == "u"


def test_duplicate_connection_child_rejected(tmp_path):
    xml = VALID.replace(
        '<target name="n" type="local" />',
        '<target name="n" type="ssh"><user>u</user><username>v</username><host>h</host></target>',
    )
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "BadTargetDef" in error_codes(diags)


def test_planetlab_requires_api_attrs(tmp_path):
    xml = VALID.replace('<target name="n" type="local" />',
                        '<target name="n" type="planetlab" slice="s" />')
    exp, diags = check(tmp_path, xml)
    assert exp is None
    codes = error_codes(diags)
    assert codes.count("MissingAttribute") == 2  # api-url and user


def test_planetlab_full_definition(tmp_path):
    xml = VALID.replace(
        '<target name="n" type="local" />',
        '<target name="n" type="planetlab" api-url="https://api.example/" '
        'slice="sl" user="me@example.org"><password>pw</password></target>',
    )
    exp, diags = check(tmp_path, xml)
    assert diags == []
    t = exp.targets[0]
    assert t.kind is TargetKind.PLANETLAB
    assert t.planetlab_api_url == "https://api.example/"
    assert t.planetlab_slice == "sl"
    assert t.planetlab_user == "me@example.org"
    assert t.ssh_password == "pw"


def test_member_reference_must_point_backward(tmp_path):
    xml = VALID.replace(
        '<target name="n" type="local" />',
        '<target name="g" type="group"><target name="n" /></target>'
        '<target name="n" type="local" />',
    )
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "UnknownReference" in error_codes(diags)


def test_member_reference_backward_resolves(tmp_path):
    xml = VALID.replace(
        '<target name="n" type="local" />',
        '<target name="n" type="local" />'
        '<target name="g" type="group"><target name="n" /></target>',
    )
    exp, diags = check(tmp_path, xml)
    assert diags == []
    group = exp.target_map()["g"]
    assert [m.name for m in group.members] == ["n"]


def test_member_reference_with_body_rejected(tmp_path):
    xml = VALID.replace(
        '<target name="n" type="local" />',
        '<target name="n" type="local" />'
        '<target name="g" type="group"><target name="n"><host>h</host></target></target>',
    )
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "BadTargetDef" in error_codes(diags)


def test_local_target_rejects_connection_children(tmp_path):
    xml = VALID.replace('<target name="n" type="local" />',
                        '<target name="n" type="local"><host>h</host></target>')
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "BadTargetDef" in error_codes(diags)


# -- tasklists ------------------------------------------------------


def test_error_attribute_alias_warns(tmp_path):
    xml = VALID.replace('<tasklist name="t">', '<tasklist name="t" error="panic">')
    exp, diags = check(tmp_path, xml)
    assert exp is not None
    assert [d.severity for d in diags] == [Severity.WARNING]
    assert diags[0].code == "AttributeAlias"
    assert exp.tasklists[0].on_error is ErrorMode.PANIC


def test_on_error_and_alias_together_rejected(tmp_path):
    xml = VALID.replace('<tasklist name="t">',
                        '<tasklist name="t" error="panic" on-error="abort-step">')
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "BadAttributeValue" in error_codes(diags)


def test_bad_error_mode_value(tmp_path):
    xml = VALID.replace('<tasklist name="t">', '<tasklist name="t" on-error="explode">')
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "BadAttributeValue" in error_codes(diags)


def test_tasklist_timeout_parsed_to_seconds(tmp_path):
    xml = VALID.replace('<tasklist name="t">', '<tasklist name="t" timeout="PT2M">')
    exp, diags = check(tmp_path, xml)
    assert diags == []
    assert exp.tasklists[0].timeout == 120.0


def test_task_tree_lowering(tmp_path):
    xml = VALID.replace(
        "<run>true</run>",
        "<seq><run>alpha</run><par><run>beta</run><get>/var/log/x</get></par></seq>"
        "<put>payload.bin</put><call ref=\"t2\" />",
    ).replace(
        "</tasklist>",
        "</tasklist><tasklist name=\"t2\"><run>gamma</run></tasklist>",
        1,
    )
    exp, diags = check(tmp_path, xml)
    assert diags == []
    seq, put, call = exp.tasklists[0].tasks
    assert isinstance(seq, SeqTask)
    assert isinstance(seq.children[0], RunTask) and seq.children[0].command == "alpha"
    par = seq.children[1]
    assert isinstance(par, ParTask)
    assert isinstance(par.children[1], GetTask) and par.children[1].remote_path == "/var/log/x"
    assert isinstance(put, PutTask) and put.local_path == "payload.bin"
    assert isinstance(call, CallTask) and call.ref == "t2"


def test_get_requires_path_text(tmp_path):
    xml = VALID.replace("<run>true</run>", "<get>  </get>")
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "BadAttributeValue" in error_codes(diags)


def test_empty_run_command_is_allowed(tmp_path):
    xml = VALID.replace("<run>true</run>", "<run></run>")
    exp, diags = check(tmp_path, xml)
    assert diags == []
    assert exp.tasklists[0].tasks[0].command == ""


def test_call_cycle_reports_chain(tmp_path):
    xml = VALID.replace(
        "<run>true</run>", '<call ref="u" />'
    ).replace(
        "</tasklist>",
        '</tasklist><tasklist name="u"><call ref="t" /></tasklist>',
        1,
    )
    exp, diags = check(tmp_path, xml)
    assert exp is None
    cycle = [d for d in diags if d.code == "CallCycle"][0]
    assert "->" in cycle.message


def test_self_call_is_a_cycle(tmp_path):
    xml = VALID.replace("<run>true</run>", '<call ref="t" />')
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "CallCycle" in error_codes(diags)


@pytest.mark.parametrize("name", ["a/b", "..", "pl:../../../escape", "back\\slash"])
def test_target_name_must_be_a_safe_directory_name(tmp_path, name):
    xml = VALID.replace('name="n"', f'name="{name}"').replace('targets="n"', f'targets="{name}"')
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert error_codes(diags) == ["BadAttributeValue"]
    assert repr(name) in diags[0].message


def test_cleanup_unknown_reference(tmp_path):
    xml = VALID.replace('<tasklist name="t">', '<tasklist name="t" cleanup="ghost">')
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "UnknownReference" in error_codes(diags)


# -- steps ------------------------------------------------------


def test_steps_items_lowering(tmp_path):
    xml = VALID.replace(
        "<steps><step tasklist=\"t\" targets=\"n\" /></steps>",
        """<steps>
            <step tasklist="t" targets="n" start="PT1S" stop="PT9S" />
            <synchronize />
            <register-teardown ref="t" targets="n" />
            <repeat iterations="2" during="PT1M">
              <step tasklist="t" targets="n" />
            </repeat>
          </steps>""",
    )
    exp, diags = check(tmp_path, xml)
    assert diags == []
    step, sync, reg, rep = exp.steps.items
    assert isinstance(step, Step) and step.start.offset == 1.0 and step.stop.offset == 9.0
    assert isinstance(sync, Synchronize)
    assert reg.tasklist_ref == "t" and reg.targets_ref == "n"
    assert isinstance(rep, Repeat) and rep.iterations == 2 and rep.during == 60.0
    assert isinstance(rep.body[0], Step)


def test_repeat_until_timestamp(tmp_path):
    xml = VALID.replace(
        '<step tasklist="t" targets="n" />',
        '<repeat until="1970-01-01T00:00:09Z"><step tasklist="t" targets="n" /></repeat>',
    )
    exp, diags = check(tmp_path, xml)
    assert diags == []
    assert exp.steps.items[0].until.timestamp() == 9.0


def test_repeat_iterations_must_be_positive(tmp_path):
    xml = VALID.replace(
        '<step tasklist="t" targets="n" />',
        '<repeat iterations="0"><step tasklist="t" targets="n" /></repeat>',
    )
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "BadAttributeValue" in error_codes(diags)


def test_mixed_start_stop_kinds_not_ordered_statically(tmp_path):
    # duration start, absolute stop: no static ordering claim possible
    xml = VALID.replace(
        '<step tasklist="t" targets="n" />',
        '<step tasklist="t" targets="n" start="PT10S" stop="1970-01-01T00:00:01Z" />',
    )
    exp, diags = check(tmp_path, xml)
    assert diags == []
    assert exp is not None


def test_absolute_start_after_absolute_stop_rejected(tmp_path):
    xml = VALID.replace(
        '<step tasklist="t" targets="n" />',
        '<step tasklist="t" targets="n" start="1970-01-01T00:00:09Z" stop="1970-01-01T00:00:01Z" />',
    )
    exp, diags = check(tmp_path, xml)
    assert exp is None
    assert "StartNotBeforeStop" in error_codes(diags)


# -- includes ------------------------------------------------------


def test_include_splices_tasklists(tmp_path):
    (tmp_path / "inc").mkdir()
    (tmp_path / "inc" / "extra.xml").write_text(
        "<experiment><tasklists><tasklist name=\"more\"><run>x</run></tasklist></tasklists></experiment>",
        encoding="utf-8",
    )
    xml = VALID.replace("<targets>", '<include file="inc/extra.xml" /><targets>')
    exp, diags = check(tmp_path, xml)
    assert diags == []
    assert {t.name for t in exp.tasklists} == {"t", "more"}
    assert len(exp.source_documents) == 2


def test_include_cycle_detected(tmp_path):
    (tmp_path / "a.xml").write_text(
        '<experiment><include file="b.xml" /></experiment>', encoding="utf-8"
    )
    (tmp_path / "b.xml").write_text(
        '<experiment><include file="a.xml" /></experiment>', encoding="utf-8"
    )
    exp, diags = load_experiment(tmp_path / "a.xml")
    assert exp is None
    assert "IncludeCycle" in error_codes(diags)


def test_include_relative_to_including_document(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "nested.xml").write_text(
        '<experiment><include file="leaf.xml" /></experiment>', encoding="utf-8"
    )
    (tmp_path / "sub" / "leaf.xml").write_text(
        '<experiment><tasklists><tasklist name="deep"><run>x</run></tasklist></tasklists></experiment>',
        encoding="utf-8",
    )
    xml = VALID.replace("<targets>", '<include file="sub/nested.xml" /><targets>')
    exp, diags = check(tmp_path, xml)
    assert diags == []
    assert "deep" in exp.tasklist_map()


def test_validate_and_lower_direct_api(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(VALID, encoding="utf-8")
    tree = parse_document(path)
    tree, include_diags = resolve_includes(tree, tmp_path)
    assert include_diags == []
    collected = []
    result = validate_and_lower(tree, diagnostics=collected)
    assert not isinstance(result, list)
    assert collected == []

    bad = tmp_path / "bad.xml"
    bad.write_text(VALID.replace('targets="n"', 'targets="ghost"'), encoding="utf-8")
    tree = parse_document(bad)
    result = validate_and_lower(tree)
    assert isinstance(result, list)
    assert error_codes(result) == ["UnknownReference"]


def test_parser_output_always_passes_audit(tmp_path):
    for fixture in ("listing1.xml", "nested_groups.xml", "par_seq_timing.xml"):
        from gplmt import fixture_path

        exp, diags = load_experiment(fixture_path(fixture))
        assert exp is not None and diags == []
        assert audit(exp) == []


def nested_groups_doc(depth: int) -> str:
    """One line; its deepest element, a local leaf, sits at `depth`."""
    groups = depth - 3
    opens = "".join(f'<target name="g{i}" type="group">' for i in range(groups))
    return (
        f'<experiment><targets>{opens}<target name="leaf" type="local"/>'
        f'{"</target>" * groups}</targets>'
        '<tasklists><tasklist name="t"><run>true</run></tasklist></tasklists>'
        '<steps><step tasklist="t" targets="g0"/></steps></experiment>'
    )


def nested_seqs_doc(depth: int) -> str:
    """One line; its deepest element, a run task, sits at `depth`."""
    seqs = depth - 4
    return (
        '<experiment><targets><target name="n" type="local"/></targets>'
        f'<tasklists><tasklist name="t">{"<seq>" * seqs}<run>true</run>{"</seq>" * seqs}'
        '</tasklist></tasklists>'
        '<steps><step tasklist="t" targets="n"/></steps></experiment>'
    )


GROUPS_1200 = nested_groups_doc(1203)
SEQS_1200 = nested_seqs_doc(1204)


@pytest.mark.parametrize(
    "doc,offset",  # offset: where the first element below the limit starts
    [
        (GROUPS_1200, GROUPS_1200.index(f'<target name="g{MAX_NESTING_DEPTH - 2}"')),
        (SEQS_1200, SEQS_1200.index("<seq>") + len("<seq>") * (MAX_NESTING_DEPTH - 3)),
    ],
    ids=["groups", "seqs"],
)
def test_nesting_beyond_the_limit_is_one_diagnostic(tmp_path, capsys, doc, offset):
    # Without the limit, 1,200 levels overflow the stack while lowering.
    path = tmp_path / "deep.xml"
    path.write_text(doc, encoding="utf-8")
    exp, diags = load_experiment(path)
    assert exp is None
    assert [(d.severity, d.code, d.location) for d in diags] == [
        (Severity.ERROR, "NestingTooDeep", (str(path), 1, offset + 1))
    ]

    from gplmt.cli import EXIT_USAGE, main

    assert main([str(path), "--dry-run", "--log-dir", str(tmp_path / "logs")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "NestingTooDeep" in err and "Traceback" not in err


@pytest.mark.parametrize("doc", [nested_groups_doc, nested_seqs_doc], ids=["groups", "seqs"])
def test_nesting_at_the_limit_loads_and_dry_runs(tmp_path, doc):
    from gplmt.cli import EXIT_COMPLETED, main

    path = tmp_path / "deep.xml"
    path.write_text(doc(MAX_NESTING_DEPTH), encoding="utf-8")
    exp, diags = load_experiment(path)
    assert exp is not None and diags == []
    assert main([str(path), "--dry-run", "--log-dir", str(tmp_path / "logs")]) == EXIT_COMPLETED


def call_chain_doc(links: int, seqs: tuple[int, int] = (0, 0)) -> str:
    """One line: tasklist t0 calls t1, and so on up to t<links>, which runs
    true; ``seqs`` wraps t0's call and t<links>'s run in that many seqs."""
    first, last = seqs
    tasklists = [f'<tasklist name="t{i}"><call ref="t{i + 1}"/></tasklist>' for i in range(links)]
    tasklists[0] = f'<tasklist name="t0">{"<seq>" * first}<call ref="t1"/>{"</seq>" * first}</tasklist>'
    tasklists.append(
        f'<tasklist name="t{links}">{"<seq>" * last}<run>true</run>{"</seq>" * last}</tasklist>'
    )
    return (
        '<experiment><targets><target name="n" type="local"/></targets>'
        f'<tasklists>{"".join(tasklists)}</tasklists>'
        '<steps><step tasklist="t0" targets="n"/></steps></experiment>'
    )


@pytest.mark.parametrize(
    "links,seqs,crossing",  # crossing: the tasklist whose call crosses the limit
    [
        (1000, (0, 0), 1000 - MAX_NESTING_DEPTH - 1),
        (MAX_NESTING_DEPTH + 1, (0, 0), 0),
        (1, (60, 40), 0),  # 60 seqs and the call, then the callee's 40 seqs
    ],
    ids=["chain-1000", "chain-over", "seqs-and-call"],
)
def test_call_nesting_beyond_the_limit_is_one_diagnostic(tmp_path, capsys, links, seqs, crossing):
    # Without the limit, 1,000 links overflow the stack in the cycle check.
    doc = call_chain_doc(links, seqs)
    path = tmp_path / "chain.xml"
    path.write_text(doc, encoding="utf-8")
    exp, diags = load_experiment(path)
    assert exp is None
    offset = doc.index(f'<call ref="t{crossing + 1}"/>')
    assert [(d.severity, d.code, d.location) for d in diags] == [
        (Severity.ERROR, "NestingTooDeep", (str(path), 1, offset + 1))
    ]
    assert f"more than {MAX_NESTING_DEPTH}" in diags[0].message

    from gplmt.cli import EXIT_USAGE, main

    assert main([str(path), "--dry-run", "--log-dir", str(tmp_path / "logs")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "NestingTooDeep" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "links,seqs",
    [(MAX_NESTING_DEPTH, (0, 0)), (1, (60, 39)), (MAX_NESTING_DEPTH - 4, (2, 2))],
    ids=["chain", "seqs-and-call", "both"],
)
def test_call_nesting_at_the_limit_loads_and_dry_runs(tmp_path, links, seqs):
    from gplmt.cli import EXIT_COMPLETED, main

    path = tmp_path / "chain.xml"
    path.write_text(call_chain_doc(links, seqs), encoding="utf-8")
    exp, diags = load_experiment(path)
    assert exp is not None and diags == []
    assert main([str(path), "--dry-run", "--log-dir", str(tmp_path / "logs")]) == EXIT_COMPLETED


def test_a_call_cycle_gets_no_depth_diagnostic(tmp_path):
    doc = call_chain_doc(MAX_NESTING_DEPTH + 5).replace(
        '<run>true</run></tasklist>', '<call ref="t0"/></tasklist>'
    )
    exp, diags = check(tmp_path, doc)
    assert exp is None
    assert [d.code for d in diags] == ["CallCycle"]


def test_buffered_text_keeps_every_run_of_character_data(tmp_path):
    # Entities, CDATA and a run longer than expat's text buffer each reach
    # the handler in pieces; the task text must be their exact join.
    long_arg = "x" * 20000
    xml = VALID.replace(
        "<run>true</run>",
        f"<run> echo a &amp; b<![CDATA[ <c> ]]>&#65; {long_arg}\n</run>",
    )
    exp, diags = check(tmp_path, xml)
    assert diags == []
    assert exp.tasklists[0].tasks == (RunTask(f"echo a & b <c> A {long_arg}"),)


@pytest.mark.parametrize("fixture", ["listing1.xml", "fanout_rate_limit.xml"])
def test_parsing_leaves_no_cyclic_garbage(fixture):
    # listing1.xml includes a second document. Refcounting alone must free
    # every parse tree once loading returns; a cycle would keep it alive
    # into the run until a full collection.
    from gplmt import fixture_path

    gc.collect()
    gc.disable()
    try:
        exp, diags = load_experiment(fixture_path(fixture))
        assert exp is not None and diags == []
        alive = sum(isinstance(obj, XmlNode) for obj in gc.get_objects())
        assert alive == 0
    finally:
        gc.enable()


def test_corpus_documents_all_rejected():
    manifest = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest) == 20
    for name, code in manifest.items():
        exp, diags = load_experiment(CORPUS / name)
        assert exp is None, f"{name} was accepted"
        assert code in error_codes(diags), f"{name}: {code} not in {error_codes(diags)}"
