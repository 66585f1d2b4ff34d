from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from gplmt.model import (
    CallTask,
    ErrorMode,
    Experiment,
    ParTask,
    RegisterTeardown,
    Repeat,
    RunTask,
    SeqTask,
    Step,
    StepsProgram,
    TargetDef,
    TargetKind,
    Tasklist,
    TaskOutcome,
    TaskResult,
    UnknownTargetError,
    audit,
    call_graph,
    depth_first,
    find_cycle,
    iter_steps_items,
    iter_target_defs,
    resolve_group,
    static_step_execution_bound,
)

from .oracles import first_cycle, resolve_leaf_names


def ssh(name: str, host: str | None = None, env: tuple = ()) -> TargetDef:
    return TargetDef(
        name, TargetKind.SSH, ssh_user="u", ssh_host=host or f"{name}.example", env_exports=env
    )


def group(name: str, *members: TargetDef, env: tuple = ()) -> TargetDef:
    return TargetDef(name, TargetKind.GROUP, members=tuple(members), env_exports=env)


def test_leaf_and_group_classification():
    assert ssh("a").is_leaf()
    assert TargetDef("l", TargetKind.LOCAL).is_leaf()
    assert not group("g", ssh("a")).is_leaf()


def test_resolve_group_flattens_in_document_order():
    g = group("all", ssh("b"), group("inner", ssh("a"), ssh("c")), ssh("d"))
    leaves = resolve_group(g, {})
    assert [t.name for t, _ in leaves] == ["b", "a", "c", "d"]


def test_resolve_group_deduplicates_first_occurrence():
    a = ssh("a")
    g = group("all", a, group("inner", a, ssh("b")), a)
    leaves = resolve_group(g, {})
    assert [t.name for t, _ in leaves] == ["a", "b"]


def test_resolve_group_env_inner_wins():
    leaf = ssh("a", env=(("REGION", "inner"), ("ROLE", "worker")))
    g = group("g", leaf, env=(("REGION", "outer"), ("SITE", "x")))
    ((resolved, env),) = resolve_group(g, {})
    assert resolved is leaf
    assert dict(env) == {"REGION": "inner", "SITE": "x", "ROLE": "worker"}


def test_resolve_group_by_name_and_unknown():
    table = {"a": ssh("a")}
    assert resolve_group("a", table)[0][0].name == "a"
    with pytest.raises(UnknownTargetError):
        resolve_group("ghost", table)


def test_resolve_group_matches_reference_resolution():
    # same structure expressed for the independent oracle
    g = group("all", ssh("x"), group("mid", ssh("y"), group("deep", ssh("x"), ssh("z"))))
    defs = {
        "all": ["x", "mid"],
        "mid": ["y", "deep"],
        "deep": ["x", "z"],
        "x": None,
        "y": None,
        "z": None,
    }
    assert [t.name for t, _ in resolve_group(g, {})] == resolve_leaf_names(defs, "all")


@st.composite
def target_trees(draw, depth: int = 3):
    names = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6))
    if depth == 0 or draw(st.booleans()):
        return ssh(f"leaf-{names[0]}")
    members = draw(st.lists(target_trees(depth=depth - 1), min_size=1, max_size=3))
    return group(f"grp-{''.join(names)}-{depth}", *members)


@given(target_trees())
def test_resolve_group_yields_unique_leaves(tree):
    leaves = resolve_group(tree, {})
    names = [t.name for t, _ in leaves]
    assert len(names) == len(set(names))
    assert all(t.is_leaf() for t, _ in leaves)
    defined = {t.name for t in iter_target_defs(tree) if t.is_leaf()}
    assert set(names) == defined


def test_iter_target_defs_preorder():
    tree = group("top", ssh("a"), group("mid", ssh("b")))
    assert [t.name for t in iter_target_defs(tree)] == ["top", "a", "mid", "b"]


def _experiment(**overrides) -> Experiment:
    base = dict(
        targets=(ssh("node"),),
        tasklists=(
            Tasklist("work", (RunTask("true"),)),
            Tasklist("mop", (RunTask("rm -f lock"),)),
        ),
        steps=StepsProgram(items=(Step("work", "node"),)),
    )
    base.update(overrides)
    return Experiment(**base)


def test_audit_accepts_wellformed_experiment():
    assert audit(_experiment()) == []


def test_audit_accepts_empty_group():
    # slice expansion may legitimately produce a group with no live nodes
    exp = _experiment(targets=(ssh("node"), group("fleet")))
    assert audit(exp) == []


def test_audit_flags_unknown_step_references():
    exp = _experiment(steps=StepsProgram(items=(Step("nosuch", "ghost"),)))
    problems = audit(exp)
    assert any("nosuch" in p for p in problems)
    assert any("ghost" in p for p in problems)


def test_audit_flags_duplicate_distinct_definitions():
    exp = _experiment(targets=(ssh("node", host="one"), ssh("node", host="two")))
    assert any("duplicate" in p for p in audit(exp))


def test_audit_allows_repeated_identical_member():
    shared = ssh("node")
    exp = _experiment(targets=(shared, group("fleet", shared)))
    assert audit(exp) == []


def test_audit_flags_call_cycle():
    exp = _experiment(
        tasklists=(
            Tasklist("work", (CallTask("other"),)),
            Tasklist("other", (CallTask("work"),)),
        )
    )
    assert any("cycle" in p for p in audit(exp))


def test_audit_flags_cleanup_cycle():
    exp = _experiment(
        tasklists=(
            Tasklist("work", (RunTask("true"),), cleanup="mop"),
            Tasklist("mop", (RunTask("true"),), cleanup="work"),
        )
    )
    assert any("cleanup" in p for p in audit(exp))


def test_audit_flags_unbounded_repeat():
    exp = _experiment(
        steps=StepsProgram(items=(Repeat(body=(Step("work", "node"),)),))
    )
    assert any("repeat" in p.lower() for p in audit(exp))


def test_call_graph_covers_nested_constructs():
    exp = _experiment(
        tasklists=(
            Tasklist("work", (SeqTask((CallTask("mop"),)), ParTask((CallTask("other"),)))),
            Tasklist("mop", (RunTask("true"),)),
            Tasklist("other", (RunTask("true"),)),
        )
    )
    assert call_graph(exp) == {"work": ["mop", "other"], "mop": [], "other": []}


def test_iter_steps_items_descends_into_repeat():
    inner = Step("work", "node")
    registration = RegisterTeardown("work", "node")
    items = (Repeat(body=(inner, registration), iterations=2),)
    flat = list(iter_steps_items(items))
    assert inner in flat and registration in flat


def test_static_step_execution_bound():
    one = Step("work", "node")
    assert static_step_execution_bound(StepsProgram(items=(one, one))) == 2
    nested = StepsProgram(
        items=(one, Repeat(body=(one, Repeat(body=(one,), iterations=3)), iterations=2))
    )
    assert static_step_execution_bound(nested) == 1 + 2 * (1 + 3)
    during_only = StepsProgram(items=(Repeat(body=(one,), during=5.0),))
    assert static_step_execution_bound(during_only) is None


def test_runtime_riders_do_not_mutate():
    exp = _experiment()
    filtered = exp.with_node_filter(frozenset({"node"}))
    assert exp.node_filter is None
    assert filtered.node_filter == frozenset({"node"})
    enriched = exp.with_env_overrides((("K", "V"),))
    assert enriched.env_overrides == (("K", "V"),)
    assert exp.env_overrides == ()


def test_target_map_includes_nested_members():
    exp = _experiment(targets=(group("fleet", ssh("a"), group("mid", ssh("b"))),))
    assert set(exp.target_map()) == {"fleet", "a", "mid", "b"}


def test_default_error_mode_is_abort_tasklist():
    assert Tasklist("t").on_error is ErrorMode.ABORT_TASKLIST


def test_task_results_are_immutable():
    result = TaskResult(0)
    with pytest.raises(AttributeError):
        result.outcome = TaskOutcome.FAILED


def test_task_result_fields_and_defaults():
    assert TaskResult._fields == ("exit_code", "stdout_ref", "stderr_ref", "outcome")
    assert TaskResult._field_defaults == {
        "stdout_ref": "", "stderr_ref": "", "outcome": TaskOutcome.SUCCESS,
    }


TARGET_FIELDS = (
    "name", "kind", "ssh_user", "ssh_password", "ssh_host", "planetlab_api_url",
    "planetlab_slice", "planetlab_user", "members", "env_exports",
)


def _field_values(target: TargetDef) -> tuple:
    return tuple(getattr(target, name) for name in TARGET_FIELDS)


def test_target_defaults_are_empty():
    t = TargetDef("l", TargetKind.LOCAL)
    assert _field_values(t) == ("l", TargetKind.LOCAL, None, None, None, None, None, None, (), ())


def test_targets_with_equal_fields_are_equal_and_hash_as_their_field_tuple():
    def build():
        return group("g", ssh("a", env=(("K", "v"),)), TargetDef("l", TargetKind.LOCAL), env=(("X", "1"),))

    first, second = build(), build()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    for t in (first, *first.members):
        assert hash(t) == hash(_field_values(t))
    assert ssh("a") != ssh("b")
    assert ssh("a") != ssh("a", host="elsewhere")
    assert {ssh("a"), ssh("a"), ssh("b")} == {ssh("a"), ssh("b")}


@pytest.mark.parametrize("field_name", TARGET_FIELDS)
def test_target_fields_cannot_be_assigned(field_name):
    t = ssh("a")
    with pytest.raises(AttributeError):
        setattr(t, field_name, "x")
    assert t == ssh("a")


def test_resolve_group_leaves_and_environments_are_pinned():
    a = ssh("a", env=(("ROLE", "a"),))
    b = ssh("b")
    local = TargetDef("l", TargetKind.LOCAL, env_exports=(("ROLE", "local"), ("X", "1")))
    inner = group("inner", b, a, env=(("SITE", "in"), ("ROLE", "inner")))
    top = group("top", a, inner, local, group("empty"), env=(("SITE", "out"),))
    assert resolve_group(top, {}) == [
        (a, (("SITE", "out"), ("ROLE", "a"))),
        (b, (("SITE", "in"), ("ROLE", "inner"))),
        (local, (("SITE", "out"), ("ROLE", "local"), ("X", "1"))),
    ]
    assert resolve_group("inner", {"inner": inner}) == [
        (b, (("SITE", "in"), ("ROLE", "inner"))),
        (a, (("SITE", "in"), ("ROLE", "a"))),
    ]


call_graphs = st.dictionaries(
    st.sampled_from("abcdefg"),
    st.lists(st.sampled_from("abcdefgh"), max_size=4),  # "h" is never a key
    max_size=7,
)


@given(call_graphs, st.none() | st.lists(st.sampled_from("abcdefg"), max_size=4))
def test_find_cycle_matches_the_recursive_walk(graph, roots):
    if roots is not None:
        roots = [r for r in roots if r in graph]
    assert find_cycle(graph, roots) == first_cycle(graph, roots)


@given(call_graphs)
def test_depth_first_finishes_callees_before_callers(graph):
    cycle, finished = depth_first(graph)
    if cycle is None:
        assert sorted(finished) == sorted(graph)
        position = {name: i for i, name in enumerate(finished)}
        for name, refs in graph.items():
            assert all(position[ref] < position[name] for ref in refs if ref in graph)


def test_a_long_call_chain_walks_without_recursion():
    chain = {f"t{i}": [f"t{i + 1}"] for i in range(5000)}
    chain["t5000"] = []
    assert find_cycle(chain) is None
    chain["t5000"] = ["t4000"]
    assert find_cycle(chain) == [f"t{i}" for i in range(4000, 5001)] + ["t4000"]
