"""Every top-level function and class of the package, and every method, is
used by the program itself or documented for its users.

A definition passes when its name is read (as a Name or an Attribute)
somewhere in src/ or bench/ outside its own body, or when README.md names
it. What only the tests call is test-only API: it belongs in the tests, or
nowhere.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gplmt"

# Names kept although no code reads them and README.md does not name them.
ALLOWED = {
    "fixture_path": "locates the bundled example documents packaged as package data",
}


def _definitions(tree: ast.Module):
    """(name, node) of every top-level function and class and of every
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member


def _references(tree: ast.AST, skip: ast.AST | None = None, out: set | None = None) -> set[str]:
    """Names read as a Name or an Attribute under ``tree``, except under
    the definitions in ``skip`` (a definition's own body)."""
    out = set() if out is None else out
    for node in ast.iter_child_nodes(tree):
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        _references(node, skip, out)
    return out


def _readme_code() -> str:
    """The code README.md shows: fenced blocks and `inline spans`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return "\n".join(re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S))


def _unused(allowed) -> list[str]:
    """`<module>: <name>` of every definition neither read nor documented."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    everywhere = {path: _references(tree) for path, tree in trees.items()}
    documented = set(re.findall(r"\w+", _readme_code()))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue  # dunders are called by the language, not by name
            if name in allowed or name in documented:
                continue
            elsewhere = any(name in refs for other, refs in everywhere.items() if other != path)
            if not elsewhere and name not in _references(trees[path], skip=node):
                unused.append(f"{path.name}: {name}")
    return unused


def test_every_definition_in_src_is_used_or_documented():
    assert _unused(ALLOWED) == []


def test_every_allow_list_entry_is_needed():
    assert {entry.partition(": ")[2] for entry in _unused(())} == set(ALLOWED)
