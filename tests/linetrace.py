"""A pytest plugin that lists the statements of appnet's functions a run never executed.

Standard library only. Load it by name, with the tests directory on the path:

    PYTHONPATH=src:tests python -m pytest -p linetrace

While the session runs, sys.settrace (and threading.settrace, for the
threads the run starts) records each line executed in a file under
src/appnet. At the end, the terminal summary lists every statement inside a
function whose lines never ran, one `path:line  qualname` a line. Constant
expressions (docstrings, `...` stubs) and `global`/`nonlocal` declarations,
which compile to nothing, are left out. Code run only in a child process,
such as a daemon started with subprocess, is not seen.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Iterator, Optional

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCTIONS, ast.ClassDef)


class LineTrace:
    """The lines executed in the .py files under one directory."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root).resolve()
        self._prefix = f"{self.root}{os.sep}"
        self.hits: dict[Path, set[int]] = {}
        self._by_filename: dict[str, Optional[set[int]]] = {}
        self._previous: tuple = (None, None)

    def _on_call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._by_filename:
            path = Path(os.path.realpath(filename))
            inside = str(path).startswith(self._prefix)
            self._by_filename[filename] = self.hits.setdefault(path, set()) if inside else None
        lines = self._by_filename[filename]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def start(self) -> None:
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)

    def stop(self) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])

    def unexecuted(self) -> list[tuple[Path, int, str]]:
        """(file, line, function) of each statement no recorded line belongs to."""
        missed = []
        for path in sorted(self.root.rglob("*.py")):
            hits = self.hits.get(path.resolve(), set())
            tree = ast.parse(path.read_text(), str(path))
            for qualname, stmt in _function_statements(tree.body, ""):
                if not _executed(stmt, hits):
                    missed.append((path, stmt.lineno, qualname))
        return missed


def _function_statements(body: list[ast.stmt], scope: str) -> Iterator[tuple[str, ast.stmt]]:
    """Each statement inside a function under `body`, with its function's qualname."""
    for stmt in body:
        if isinstance(stmt, _SCOPES):
            qualname = f"{scope}{stmt.name}"
            if isinstance(stmt, _FUNCTIONS):
                yield from _statements(stmt.body, qualname)
            yield from _function_statements(stmt.body, f"{qualname}.")


def _statements(body: list[ast.stmt], qualname: str) -> Iterator[tuple[str, ast.stmt]]:
    for stmt in body:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        ):
            continue
        yield qualname, stmt
        if not isinstance(stmt, _SCOPES):  # a nested def is a function of its own
            for child in _child_bodies(stmt):
                yield from _statements(child, qualname)


def _child_bodies(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    for name in ("body", "orelse", "finalbody"):
        yield getattr(stmt, name, [])
    for handler in getattr(stmt, "handlers", []):
        yield handler.body
    for case in getattr(stmt, "cases", []):
        yield case.body


def _executed(stmt: ast.stmt, hits: set[int]) -> bool:
    """A simple statement ran if any of its lines did; a compound one if its
    header did, or anything in its blocks."""
    children = [child for body in _child_bodies(stmt) for child in body]
    first = min((child.lineno for child in children), default=stmt.end_lineno + 1)
    start = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", []))])
    if any(line in hits for line in range(start, first)):
        return True
    return not isinstance(stmt, _SCOPES) and any(_executed(child, hits) for child in children)


_trace: Optional[LineTrace] = None


def pytest_configure(config) -> None:
    global _trace
    import appnet

    _trace = LineTrace(Path(appnet.__file__).parent)
    _trace.start()


def pytest_terminal_summary(terminalreporter) -> None:
    _trace.stop()
    missed = _trace.unexecuted()
    terminalreporter.section("statements never executed")
    for path, line, qualname in missed:
        terminalreporter.write_line(f"{os.path.relpath(path)}:{line}  {qualname}")
    functions = {(path, qualname) for path, _, qualname in missed}
    terminalreporter.write_line(f"{len(missed)} statements in {len(functions)} functions")
