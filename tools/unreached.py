"""Print each statement of the unlearnkit package that a pytest run never executes.

Runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``), then prints each statement of ``src/unlearnkit``
that never ran, as ``path:line  source``, and then their count. Docstrings
and ``def``, ``class`` and ``import`` lines are left out. A statement over
several lines counts as run when any of its own lines runs (for an ``if``,
``for``, ``with`` or ``try``, the lines of its header). Exits with pytest's
exit code. Standard library only.

Code that runs only in a forked pool worker (``sweep --workers``) counts as
unreached: the worker inherits the tracer but records into its own copy of
the process, which ends with it.

Usage, from the repository root:

    python3 tools/unreached.py [PYTEST_ARGS...]   # e.g. python3 tools/unreached.py -q
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest
from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unlearnkit"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> dict[int, range]:
    """``{first line: its own lines}`` of each counted statement of one module."""
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED) \
                and node.lineno not in docstrings:
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            out[node.lineno] = range(node.lineno, last + 1)
    return out


def traced_pytest(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest on ``args``; return its exit code and each ``(file, line)`` of
    the package that ran."""
    ran: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}  # code file name -> whether it is a package module
    prefix = str(PACKAGE) + os.sep

    def line_tracer(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return line_tracer if inside[name] else None

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(os.path.realpath(name), line) for name, line in ran}


def main(argv: list[str]) -> int:
    code, ran = traced_pytest(argv)
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, own in sorted(statements(source).items()):
            if not any((str(path), line) in ran for line in own):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{first}  {lines[first - 1].strip()}")
    print(f"{unreached} unreached statements")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
