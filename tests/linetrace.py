"""A standard-library line tracer for the ``stationcast`` package.

:class:`LineTracer` records which lines of ``src/stationcast`` run, in
every thread started while it is on.  :func:`statements` lists the lines
that can run: the first line of each statement the compiler emits code
for, with the function around it.  Two guards use them:

- ``tests/test_src_coverage.py`` checks that every function runs under a
  small command matrix;
- ``pytest --lines`` (see ``conftest.py``) traces the whole session and
  fails on any statement no test runs, except those on :data:`UNRUN`.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
import types
from pathlib import Path

import stationcast

PACKAGE = Path(stationcast.__file__).resolve().parent

# Statements no test runs, keyed by (function, statement text), and why each
# stays.
UNRUN = {
    ("_forget_worker", "_worker = None"):
        "runs only in a child forked after the worker started",
    ("", "entrypoint()"):
        "runs only under python -m stationcast.cli, which one test starts "
        "as a child process",
}


class LineTracer:
    """Context manager: ``lines`` maps each package file that ran to the
    set of its line numbers that ran.

    Whether a file is in the package is decided once per file name, and a
    frame outside the package gets no line tracing at all.  A tracer started
    inside another hands its lines to the outer one when it stops, and
    restores it.
    """

    def __init__(self):
        self.lines: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}

    def _trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        local = self._local.get(name, False)
        if local is False:
            local = None
            if Path(name).resolve().parent == PACKAGE:
                local = self._line_tracer(self.lines.setdefault(name, set()))
            self._local[name] = local
        return local

    @staticmethod
    def _line_tracer(seen: set[int]):
        add = seen.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def __enter__(self) -> "LineTracer":
        self._outer = sys.gettrace(), threading.gettrace()
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc) -> None:
        outer, thread_outer = self._outer
        sys.settrace(outer)
        threading.settrace(thread_outer)
        outer = getattr(outer, "__self__", None)
        if isinstance(outer, LineTracer):
            for name, seen in self.lines.items():
                outer.lines.setdefault(name, set()).update(seen)

    def ran(self) -> set[tuple[Path, int]]:
        """``(file, line)`` of every package line that ran."""
        return {
            (Path(name).resolve(), n) for name, seen in self.lines.items() for n in seen
        }


def reexecute_package() -> None:
    """Run each package module's top level once more, in a fresh module
    object, so that a tracer started after import sees it."""
    for path in sorted(PACKAGE.glob("*.py")):
        spec = importlib.util.spec_from_file_location(f"stationcast.{path.stem}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _emitted(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _emitted(const)
    return lines


def statements() -> tuple[dict[tuple[Path, int], tuple[str, str]], set[str]]:
    """``(file, line) -> (scope, text)`` for every package statement that
    compiles to code, keyed by its first line, and the dotted names of the
    package's functions.

    ``scope`` is the dotted name of the innermost function or class around
    the statement, ``""`` at module level; ``text`` is the line, stripped.
    Docstrings and ``global`` declarations compile to no code, so they are
    not statements here.
    """
    found, defined = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        emitted = _emitted(compile(source, str(path), "exec"))
        text = source.splitlines()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, ast.stmt) and child.lineno in emitted:
                    line = child.lineno
                    found[(path, line)] = (scope, text[line - 1].strip())
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.FunctionDef):
                    defined.add(inner)
                visit(child, inner)

        visit(ast.parse(source), "")
    return found, defined


def unrun(tracer: LineTracer) -> tuple[list[str], list[str]]:
    """Statements no traced code ran that :data:`UNRUN` does not name, and
    :data:`UNRUN` entries that ran or no longer exist, as report lines."""
    table, _ = statements()
    ran = tracer.ran()
    missed, listed = [], set()
    for (path, line), key in sorted(table.items()):
        if (path, line) in ran:
            continue
        if key in UNRUN:
            listed.add(key)
        else:
            missed.append(f"{path.name}:{line} in {key[0] or '<module>'}: {key[1]}")
    stale = [f"{scope}: {text}" for scope, text in sorted(set(UNRUN) - listed)]
    return missed, stale
