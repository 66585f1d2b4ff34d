"""Every exception class of the package is told apart by some caller.

A class passes when src/ names it in an ``except`` clause or as the
second argument of an ``isinstance`` call. An exception type that no code
catches or tests for carries nothing its message does not: raise its base
with that message instead.
"""
from __future__ import annotations

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gplmt"


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _names(node: ast.AST | None) -> set[str]:
    """Class names in an ``except`` type or an ``isinstance`` class argument:
    a Name, an Attribute, or a tuple of them."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    return set()


def _base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _exception_classes(trees) -> dict[str, str]:
    """`<module>: <name>` of every class whose bases lead to a builtin
    exception, directly or through other classes of the package."""
    classes = {
        node.name: (path.name, [_base_name(b) for b in node.bases])
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return name in classes and any(map(is_exception, classes[name][1]))

    return {name: f"{module}: {name}" for name, (module, _) in classes.items() if is_exception(name)}


def _told_apart(trees) -> set[str]:
    told: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                told |= _names(node.type)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                told |= _names(node.args[1])
    return told


def test_every_exception_class_in_src_is_caught_or_tested_by_name():
    trees = _trees()
    classes = _exception_classes(trees)
    assert {"PlanetLabError", "ParseFailure", "TransportError", "UnknownTargetError"} <= set(classes)
    told = _told_apart(trees)
    assert sorted(label for name, label in classes.items() if name not in told) == []
