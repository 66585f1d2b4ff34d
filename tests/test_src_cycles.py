"""No function nested in the package calls itself by name.

A nested function that refers to its own name holds the cell that holds
it: each call of its outer function then leaves the function, and all it
closes over, in a reference cycle that only the cyclic collector frees.
resolve_group's walk and expand_experiment's rebuild were such closures,
and kept every run's leaf list and slice expansions alive; recursion goes
through module-level functions instead.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gplmt"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_referencing_nested_functions() -> list[str]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, (*_FUNCTIONS, ast.Lambda)):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, _FUNCTIONS) and any(
                    isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)
                ):
                    found.add(f"{path.name}: {inner.name} in {getattr(outer, 'name', 'lambda')}")
    return sorted(found)


def test_no_nested_function_refers_to_its_own_name():
    assert _self_referencing_nested_functions() == []
