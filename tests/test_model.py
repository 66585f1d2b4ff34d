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
    iter_steps_items,
    iter_target_defs,
    resolve_group,
    static_step_execution_bound,
)

from .oracles import resolve_leaf_names


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
