"""Check that a dry run does not depend on the interpreter.

Runs `tests/differential.py SEEDS` and `python -m tests.test_golden_generated`
from this checkout (with `src` on PYTHONPATH) under two interpreters, prints
every line that differs as a unified diff, and exits 1 if any does:

    python tests/cross_interpreter.py python3.11 python3.12 1000

SEEDS defaults to differential.py's own default. Both interpreters run each
check at once, so the check costs two processes at a time. It needs only the
standard library, so any interpreter can run it, pytest or not.
"""
from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def outputs(interpreters: list[str], args: list[str]) -> list[list[str]]:
    """The stdout lines of `interpreter *args` for each interpreter, run at
    once; exits with the child's stderr if one of them fails."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    children = [
        subprocess.Popen([python, *args], cwd=ROOT, env=env, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for python in interpreters
    ]
    results = [child.communicate() for child in children]
    for python, child, (_, stderr) in zip(interpreters, children, results):
        if child.returncode != 0:
            sys.exit(f"{python} {' '.join(args)} exited {child.returncode}:\n{stderr}")
    return [stdout.splitlines() for stdout, _ in results]


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.exit("usage: cross_interpreter.py PY_A PY_B [SEEDS]")
    interpreters, seeds = argv[:2], argv[2:]
    differs = False
    for args in (["tests/differential.py", *seeds], ["-m", "tests.test_golden_generated"]):
        a, b = outputs(interpreters, args)
        labels = (f"{python} {' '.join(args)}" for python in interpreters)
        for line in difflib.unified_diff(a, b, *labels, lineterm=""):
            differs = True
            print(line)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
