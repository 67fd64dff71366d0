"""Checks on the source of `src/qent` itself, read with `ast`."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import qent
import qent.cli

SRC = Path(qent.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def traced_functions() -> set[tuple[str, str]]:
    """(module, qualified name) of each function and method that the
    benchmark's tracer (bench/tracing.py) wraps: its install() is run with a
    patch that only records what it would wrap."""
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    wrapped = []

    class Recorder(tracing.Tracer):
        def patch(self, owner, attr, *args, **kwargs):
            wrapped.append(getattr(owner, attr))

    recorder = Recorder()
    recorder.install()
    recorder.uninstall()  # puts back cli.json, which install() replaces itself
    return {(fn.__module__.rpartition(".")[2], fn.__qualname__) for fn in wrapped}


def module_functions_nothing_uses(pinned: set[tuple[str, str]]) -> list[str]:
    """The module-level functions of src/qent that no other code there names
    (by a Name or an Attribute node), that are not in qent.__all__ and not
    `cli.main`, the entry point, nor pinned. A module's `__getattr__` and
    other dunders are called by the interpreter, not by name."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if owner is not None:
                defined.append((module, owner))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != owner:
                    used.add(name)
    return [f"{module}.{name}" for module, name in defined
            if name not in used and name not in qent.__all__ and not name.startswith("__")
            and (module, name) != ("cli", "main") and (module, name) not in pinned]


def test_every_module_function_is_used():
    """Pinned are exactly the functions the benchmark wraps by name, so a
    function that only the tracer kept fails here once it lets go."""
    pinned = traced_functions()
    assert qent.cli.json is json
    assert ("cli", "state_to_document") in pinned
    assert module_functions_nothing_uses(pinned) == []


EXIT_CODES = {"EXIT_PARSE", "EXIT_VALIDATION", "EXIT_UNSOUND"}


def error_path_sites() -> tuple[list[str], list[tuple[str, str]]]:
    """Where src/qent names `sys.stderr`, and each `_Refusal(...)` built with
    the source of its first argument, as "module.function:line"."""
    stderr, refusals = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                        and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                    stderr.append(f"{owner}:{node.lineno}")
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_Refusal"):
                    code = ast.unparse(node.args[0]) if node.args else ""
                    refusals.append((f"{owner}:{node.lineno}", code))
    return stderr, refusals


def test_one_error_path():
    """Only `cli.main` writes to stderr (by print(..., file=sys.stderr) or
    sys.stderr.write), and every refusal exits 1, 2 or 3 by name."""
    stderr, refusals = error_path_sites()
    assert stderr and [site for site in stderr if not site.startswith("cli.main:")] == []
    assert refusals and [(site, code) for site, code in refusals if code not in EXIT_CODES] == []


def test_one_analysis_loop():
    """`analyze`, `analyze_traced` and compare's two modes, over a tree or a
    Program, share one loop: analyzer.py has one `for` statement whose body
    looks a rule up in `_RULES`, by that name, by a name bound to the table
    itself (`rules = _RULES`) or by a name bound to one of its methods
    (`rules = _RULES.get`)."""
    tree = ast.parse((SRC / "analyzer.py").read_text(encoding="utf-8"))

    def names(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    lookups = {"_RULES"} | {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                            and isinstance(node.value, (ast.Name, ast.Attribute))
                            and names(node.value) == {"_RULES"}
                            for target in node.targets if isinstance(target, ast.Name)}
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and any(lookups & names(stmt) for stmt in node.body)]
    assert len(loops) == 1


def calls_by_site(test) -> list[tuple[str, ast.AST]]:
    """Each node of src/qent that test(node) accepts, with its site as
    "module.qualified.name" of the function or class around it."""
    found = []

    def visit(node, owner):
        if test(node):
            found.append((owner, node))
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            visit(child, f"{owner}.{name}" if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_one_wire_check():
    """`circuit._check_wires` is the only code in src/qent that raises
    IndexError, so every wire is refused by the one check; and a Program is
    built past its constructor's check (by a `__new__` call) only by the
    parser, whose programs are valid as parsed, and by the constructor
    itself once it has checked."""
    raises = calls_by_site(lambda node: isinstance(node, ast.Raise) and node.exc is not None
                           and "IndexError" in {n.id for n in ast.walk(node.exc)
                                                if isinstance(n, ast.Name)})
    assert [site for site, _ in raises] == ["circuit._check_wires"]
    news = calls_by_site(lambda node: isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__")
    assert [(site, ast.unparse(node.args[0])) for site, node in news] == [
        ("circuit.Program.__new__", "cls"), ("circuit._parse", "Program")]
