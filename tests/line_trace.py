"""Run Tier-1 under a line trace of src/mintime and report the statements it never runs.

    PYTHONPATH=src python tests/line_trace.py [--allow FILE:STATEMENT ...] [-- PYTEST_ARGS]

A statement runs when a line of its header runs: its own lines up to its
body, decorators included, that carry bytecode.  Statements with no bytecode
(docstrings) do not count.  Only lines are read, never test outcomes: under
the tracer Tier-1 runs several times slower, so its fixed runtime bounds may
fail.  An allowlist entry names one statement by its file and the text of
its first line.  The exit status is 1 when a statement outside the allowlist
never runs, or when an entry names no statement that never runs.
"""

import argparse
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mintime"


def _code_lines(code) -> set[int]:
    """Every line that carries bytecode in code and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def statements(source: str) -> list[tuple[int, set[int]]]:
    """(first line, header lines with bytecode) of each statement of source that has bytecode."""
    code_lines = _code_lines(compile(source, "<src>", "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        header = set(range(first, last + 1)) & code_lines
        if header:
            out.append((node.lineno, header))
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--allow", action="append", default=[], metavar="FILE:STATEMENT")
    ap.add_argument("pytest_args", nargs="*")
    args = ap.parse_args(argv)

    executed: dict[str, set[int]] = {}
    prefix = str(SRC)

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        add = executed.setdefault(path, set()).add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line

        return line

    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *args.pytest_args])
    finally:
        sys.settrace(None)

    allowed = {tuple(entry.split(":", 1)) for entry in args.allow}
    used = set()
    missed = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        ran = executed.get(str(path), set())
        for lineno, header in statements(source):
            if header & ran:
                continue
            key = (path.name, text[lineno - 1].strip())
            if key in allowed:
                used.add(key)
            else:
                missed.append(f"{path.name}:{lineno}: {key[1]}")
    print(f"line trace: {len(missed)} statements never run outside the allowlist, "
          f"{len(used)} of {len(allowed)} allowlist entries used")
    for entry in missed:
        print("  never run:", entry)
    for name, stmt in sorted(allowed - used):
        print(f"  allowlist entry names no statement that never runs: {name}:{stmt}")
    return 1 if missed or allowed - used else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
