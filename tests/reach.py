"""Statements of src/allocperc that no tier-1 test runs.

The test suite runs under a sys.settrace line trace, restricted to the files
of src/allocperc, and every statement none of its lines ran in is printed as
path:line: source, with a count at the end. It is a script, not a test
module, so pytest does not collect it:

    PYTHONPATH=src python tests/reach.py [pytest arguments, default: tests/]

A statement counts as run when any line of it (of a compound statement, its
header or decorators) made a line event. Lines that compile to no bytecode
are never listed. The trace slows the suite down several times.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "allocperc"


def code_lines(code) -> set[int]:
    """The lines that the code object and its nested ones have bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def spans(tree: ast.Module):
    """(first, last) line of each statement, a compound statement's header only."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield first, max(first, last)


def unreached(path: Path, ran: set[int]) -> list[int]:
    source = path.read_text(encoding="utf-8")
    executable = code_lines(compile(source, str(path), "exec"))
    out = []
    for first, last in spans(ast.parse(source)):
        lines = set(range(first, last + 1))
        if lines & executable and not lines & ran:
            out.append(first)
    return sorted(out)


class _Profile:
    """A pytest plugin: the trace slows examples down, so no health check
    fails them; the suite's own settings still apply."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import HealthCheck, settings

        settings.register_profile("reach", suppress_health_check=list(HealthCheck))
        settings.load_profile("reach")


def main(argv: list[str]) -> int:
    import pytest

    hits = {path: set() for path in SRC.glob("*.py")}
    lines_of: dict[object, set[int] | None] = {}  # code object -> its file's hits

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in lines_of:
            lines_of[code] = hits.get(Path(code.co_filename).resolve())
        ran = lines_of[code]
        if ran is None:
            return None
        ran.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *(argv or [str(ROOT / "tests")])], plugins=[_Profile()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for n in unreached(path, hits[path]):
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
            total += 1
    print(f"{total} statements unreached; pytest exit code {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
