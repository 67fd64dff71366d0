"""The statements of src/qent that the tier-1 suite never runs; too slow for
the test suite.

    python tests/unexecuted.py [PYTEST ARGUMENT ...]

Runs the tier-1 suite in this process under a `sys.settrace` hook that
records each line run in a frame of a src/qent module, then prints every
statement of those modules that none of its lines ran, as
`module.py:LINE function: source`, and the count. It reports coverage, not
test outcomes: the suite's failures appear in pytest's summary but leave
the exit status 0. Extra arguments go to pytest.

`test_c7_linear_scaling` is deselected: it bounds wall-clock time, which
the tracer breaks, and other tests run the same code. Code run in a
subprocess or another thread is not seen, and the body of an
`if TYPE_CHECKING:` block, which only a type checker reads, is not listed.

A statement's lines are the lines of a simple statement, or the header of
a compound one (its decorators through the line before its body). A
statement counts when the compiled code has an instruction on one of them:
a function's docstring, for one, has none.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qent"
DESELECT = "not test_c7_linear_scaling"


def statements(tree: ast.Module):
    """(statement, its lines, enclosing function or class) of every
    statement outside `if TYPE_CHECKING:` bodies."""
    stack = [(stmt, "") for stmt in reversed(tree.body)]
    while stack:
        node, scope = stack.pop()
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            stack.extend((stmt, scope) for stmt in reversed(node.orelse))
            continue
        children = [child for field in ("body", "orelse", "finalbody") for child in
                    getattr(node, field, ())]
        children += [stmt for handler in getattr(node, "handlers", ()) for stmt in handler.body]
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = node.body[0].lineno - 1 if children else node.end_lineno
        yield node, range(first, max(first, last) + 1), scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in reversed(children))


def code_lines(code) -> set[int]:
    """The lines that code and the code objects nested in it have instructions on."""
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def unexecuted(path: Path, ran: set[int]) -> tuple[list[str], int]:
    """`module.py:LINE function: source` of each statement of path that has
    code and none of whose lines ran, and the count of statements with code."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    compiled = code_lines(compile(text, str(path), "exec"))
    counted = [(node, lines, scope) for node, lines, scope in statements(ast.parse(text))
               if compiled.intersection(lines)]
    return [f"{path.name}:{node.lineno} {scope or '<module>'}: {source[node.lineno - 1].strip()}"
            for node, lines, scope in counted if not ran.intersection(lines)], len(counted)


def run_traced(args: list[str]) -> dict[str, set[int]]:
    """Run pytest with args under the tracer; the lines run per src/qent file."""
    ran: dict[str, set[int]] = {str(path): set() for path in SRC.glob("*.py")}
    seen: dict[str, set[int] | None] = {}  # co_filename -> its set in ran, or None

    def record(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return record

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = ran.get(os.path.realpath(name))
        return record if seen[name] is not None else None

    sys.settrace(on_call)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
    return ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    ran = run_traced(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                      "-k", DESELECT, *argv])
    if not any(ran.values()):
        print(f"no line of {SRC} ran: was qent imported from elsewhere?")
        return 1
    missed, total = [], 0
    for path, lines in sorted(ran.items()):
        found, counted = unexecuted(Path(path), lines)
        missed += found
        total += counted
    print(*missed, sep="\n")
    print(f"{len(missed)} of {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
