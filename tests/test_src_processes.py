"""One function of the package starts and waits for child processes, and
no module of it uses a thread.

transport._run_child starts every child with subprocess.Popen and learns of
its exit from the child's pidfd, on the event loop's own thread. asyncio's
subprocess API would add a thread per waiting child, and communicate()
would pass the child's output through the controller's memory.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gplmt"

# Other ways to start or wait for a process; none may appear in the package.
FORBIDDEN = ("create_subprocess_", "communicate(", "os.system(", "os.fork(", "os.spawn",
             "posix_spawn", "waitpid(", "os.wait(", "subprocess.run(", "check_output(")


def _sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _calls_by_function(name: str) -> list[str]:
    """`<module>: <top-level function or class>` of every call of `name`,
    as a plain name or as an attribute."""
    found = []
    for module, text in _sources().items():
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        found.append(f"{module}: {getattr(top, 'name', '<module>')}")
    return found


def test_only_run_child_starts_a_process_and_learns_of_its_exit():
    assert _calls_by_function("Popen") == ["transport.py: _run_child"]
    assert _calls_by_function("pidfd_open") == ["transport.py: _run_child"]
    used = [(module, word) for module, text in _sources().items() for word in FORBIDDEN if word in text]
    assert used == []


def test_no_module_imports_threading():
    importers = []
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "threading" for name in names):
                importers.append(module)
    assert importers == []
