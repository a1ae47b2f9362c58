"""Run Tier-1 under an opcode trace of src/mintime and report the statements
it never runs and the conditional jumps it runs one way only.

    PYTHONPATH=src python tests/line_trace.py [--allow FILE:STATEMENT ...]
        [--allow-branch FILE:STATEMENT ...] [-- PYTEST_ARGS]

One trace run (sys.settrace with frame.f_trace_opcodes) feeds both reports.

Lines: a statement runs when a line of its header runs: its own lines up to
its body, decorators included, that carry bytecode.  Statements with no
bytecode (docstrings) do not count.

Branches: a conditional jump (an `if`, `while`, `and`/`or`, conditional
expression, each link of a chained comparison, a `for` loop's FOR_ITER)
counts when it ran and every run went the same way, to its target or on to
the next instruction.  A jump that never ran is the line report's business.
The exception-match jumps of `except` clauses are skipped: they go the other
way only when an exception of another type passes through.  Opnames differ
between Python versions, so jumps are told apart by name pattern, not by a
fixed list.  Each jump belongs to the innermost statement whose lines hold it.

Only executed code is read, never test outcomes: under the tracer Tier-1
runs several times slower, so its fixed runtime bounds may fail.  An
allowlist entry names one statement by its file and the text of its first
line; --allow exempts it from the line report, --allow-branch exempts its
one-way jumps from the branch report.  The exit status is 1 when a
statement or a one-way jump outside its allowlist is reported, or when an
entry names nothing that its report finds.
"""

import argparse
import ast
import dis
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mintime"


def _code_objects(code):
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _code_objects(const)


def _code_lines(code) -> set[int]:
    """Every line that carries bytecode in code and the code objects nested in it."""
    return {line for c in _code_objects(code) for _, _, line in c.co_lines() if line is not None}


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


def _is_conditional(op: str) -> bool:
    """A jump that can go either way: POP_JUMP_IF_* (3.10),
    POP_JUMP_FORWARD/BACKWARD_IF_* (3.11), JUMP_IF_*_OR_POP and FOR_ITER."""
    return op == "FOR_ITER" or (op.startswith(("POP_JUMP_", "JUMP_IF_")) and "_IF_" in op
                                and op != "JUMP_IF_NOT_EXC_MATCH")


def jumps(code) -> dict[int, tuple[int, int, int, str]]:
    """{event offset: (jump offset, fall-through offset, target offset, opname)}
    of code's conditional jumps, outside except-clause matches.

    The event offset is where the opcode trace reports the jump: an
    EXTENDED_ARG prefix carries the event for the jump it extends.
    """
    instrs = list(dis.get_instructions(code))
    out = {}
    for i, ins in enumerate(instrs):
        if not _is_conditional(ins.opname):
            continue
        if i and instrs[i - 1].opname in ("CHECK_EXC_MATCH", "CHECK_EG_MATCH"):  # 3.11 except
            continue
        first = i
        while first and instrs[first - 1].opname == "EXTENDED_ARG":
            first -= 1
        entry = (ins.offset, instrs[i + 1].offset, ins.argval, ins.opname)
        for k in range(first, i + 1):
            out[instrs[k].offset] = entry
    return out


def _jump_lines(code, table: dict) -> set:
    """The lines of the event offsets in table; None for an offset without a line."""
    out = set()
    for start, end, line in code.co_lines():
        if any(start <= offset < end for offset in table):
            out.add(line)
    return out


def _line_of(code, offset: int) -> int:
    """The line of the instruction at offset, or of the last one before it with a line."""
    found = code.co_firstlineno
    for start, _, line in code.co_lines():
        if start > offset:
            break
        if line is not None:
            found = line
    return found


def _owner(tree: ast.AST, line: int) -> ast.stmt:
    """The innermost statement whose lines hold line (the outermost of those
    starting on it, so `if c: return x` owns its test)."""
    best = None
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno <= line <= node.end_lineno:
            if best is None or node.lineno > best.lineno:
                best = node
    return best


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--allow", action="append", default=[], metavar="FILE:STATEMENT")
    ap.add_argument("--allow-branch", action="append", default=[], metavar="FILE:STATEMENT")
    ap.add_argument("pytest_args", nargs="*")
    args = ap.parse_args(argv)

    executed: dict[str, set[int]] = {}
    arcs: dict = {}  # code -> {(a jump's event offset, the next offset run)}
    jump_tables: dict = {}
    prefix = str(SRC)

    def trace(frame, event, arg):
        code = frame.f_code
        path = code.co_filename
        if not path.startswith(prefix):
            return None
        if code not in jump_tables:
            table = jumps(code)
            jump_tables[code] = table, _jump_lines(code, table)
        table, jump_lines = jump_tables[code]
        always = None in jump_lines
        add_line = executed.setdefault(path, set()).add
        add_arc = arcs.setdefault(code, set()).add
        pending = None

        # Opcode events run only from a line that holds a jump, or one that
        # a jump has just reached, to the next line event: the instruction
        # after a jump is on the jump's own line or raises a line event.
        def local(frame, event, arg):
            nonlocal pending
            if event == "opcode":
                offset = frame.f_lasti
                if pending is not None:
                    add_arc((pending, offset))
                    pending = None
                if offset in table:
                    pending = offset
            elif event == "line":
                line = frame.f_lineno
                add_line(line)
                frame.f_trace_opcodes = always or pending is not None or line in jump_lines
            return local

        frame.f_trace_opcodes = always
        return local

    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *args.pytest_args])
    finally:
        sys.settrace(None)

    status = _line_report(executed, args.allow)
    status |= _branch_report(arcs, jump_tables, args.allow_branch)
    return status


def _line_report(executed: dict[str, set[int]], allow: list[str]) -> int:
    allowed = {tuple(entry.split(":", 1)) for entry in allow}
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


def _branch_report(arcs: dict, jump_tables: dict, allow: list[str]) -> int:
    allowed = {tuple(entry.split(":", 1)) for entry in allow}
    used = set()
    one_way = []
    trees: dict[str, tuple[ast.AST, list[str]]] = {}
    for code, (table, _) in jump_tables.items():
        seen: dict[int, set[int]] = {}
        for offset, nxt in arcs.get(code, ()):
            seen.setdefault(table[offset][0], set()).add(nxt)
        for at, fall, target, op in sorted(set(table.values())):
            went = seen.get(at)
            if not went or {fall, target} <= went:
                continue
            path = code.co_filename
            if path not in trees:
                source = Path(path).read_text()
                trees[path] = ast.parse(source), source.splitlines()
            tree, text = trees[path]
            line = _line_of(code, at)
            stmt = _owner(tree, line)
            key = (Path(path).name, text[stmt.lineno - 1].strip())
            if key in allowed:
                used.add(key)
                continue
            way = "to its target" if went == {target} else "on" if went == {fall} else f"to {sorted(went)}"
            one_way.append((key[0], line, f"{key[0]}:{line}: {op} at offset {at} "
                            f"only ever went {way}, in: {key[1]}"))
    one_way.sort()
    print(f"branch trace: {len(one_way)} conditional jumps ran one way only outside the allowlist, "
          f"{len(used)} of {len(allowed)} allowlist entries used")
    for *_, entry in one_way:
        print("  one way:", entry)
    for name, stmt in sorted(allowed - used):
        print(f"  allowlist entry names no statement with a one-way jump: {name}:{stmt}")
    return 1 if one_way or allowed - used else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
