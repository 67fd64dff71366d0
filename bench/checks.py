"""Checks of `qent` command output against the benchmark's ground truth.

Every checker takes a Case (one generated circuit with its exact facts)
and the command's exit code and standard output, and returns None when the
output is right or a one-line reason when it is not. Nothing is compared
with a stored copy of earlier output: results are held to the exact
simulation (truth.py), to the gate list the generator wrote, and to
properties the method must have.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import truth


@dataclass
class Case:
    """One circuit file and what is known about it apart from qent."""

    path: str
    gates: list[tuple[str, int]]  # analysis order
    truths: list[truth.GroupTruth]
    pitfall: bool = False  # holds the stale-level group
    docs: dict = field(default_factory=dict)  # mode -> verified JSON document

    @property
    def wires(self) -> int:
        return sum(t.width for t in self.truths)


def state_problem(case: Case, labels, sep, lvl, sound: bool = True) -> str | None:
    """Shape, group-boundary and (for a sound mode) guarantee checks."""
    n = case.wires
    if len(labels) != n or sorted(q for b in sep for q in b) != list(range(n)) \
            or sorted(q for b in lvl for q in b) != list(range(n)):
        return "result does not cover the qubits exactly once"
    if truth.crosses_groups(sep, case.truths) or truth.crosses_groups(lvl, case.truths):
        return "a block crosses a group boundary"
    if sound:
        broken = truth.violations(labels, sep, lvl, case.truths)
        if broken:
            return f"guarantee broken: {sorted(broken)[:3]}"
    return None


def _doc(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_analyze(case: Case, mode: str, rc: int, out: str) -> str | None:
    """`analyze --format json` in a sound mode; remembers the verified document."""
    doc = _doc(out)
    if rc != 0 or doc is None or doc.get("mode") != mode or doc.get("qubits") != case.wires:
        return f"exit {rc} or malformed document"
    problem = state_problem(case, doc["labels"], doc["separability"], doc["levels"])
    if problem is None:
        case.docs[mode] = doc
    return problem


def _blocks(text: str) -> list[list[int]]:
    return [[int(q) for q in b.strip("{}").split(",")] for b in text.split()]


def _state_fields(line: str) -> tuple[list[str], list[list[int]], list[list[int]]]:
    """'labels: a b | separability: {..} | levels: {..}' -> the three parts."""
    labels, sep, lvl = (part.split(":", 1)[1] for part in line.split(" | "))
    return labels.split(), _blocks(sep), _blocks(lvl)


def _same_state(doc: dict, state) -> bool:
    return (doc["labels"], doc["separability"], doc["levels"]) == tuple(state)


def check_compare(case: Case, rc: int, out: str) -> str | None:
    """`compare`: both lines equal the verified levels and no-levels
    documents, and the 'more precise on' pairs are exactly those joined
    in no-levels and split in levels."""
    lv, nl = case.docs.get("levels"), case.docs.get("no-levels")
    if lv is None or nl is None:
        return "no verified reference document"
    lines = out.splitlines()
    if rc != 0 or len(lines) != 4 or lines[0] != f"qubits: {case.wires}":
        return f"exit {rc} or malformed compare output"
    try:
        got_lv = _state_fields(lines[1].split(":", 1)[1].strip())
        got_nl = _state_fields(lines[2].split(":", 1)[1].strip())
    except (ValueError, IndexError):
        return "malformed state line"
    if not (_same_state(lv, got_lv) and _same_state(nl, got_nl)):
        return "compare state differs from the analyze document"
    rep = {q: b[0] for b in lv["separability"] for q in b}
    want = sorted((i, j) for b in nl["separability"] for k, i in enumerate(b) for j in b[k + 1:]
                  if rep[i] != rep[j])
    tail = lines[3].removeprefix("more precise on: ")
    got = [] if tail == "(none)" else [tuple(int(x) for x in p.strip("()").split(",")) for p in tail.split()]
    if got != want:
        return f"more-precise pairs {got[:3]} differ from {want[:3]}"
    return None


def _steps_problem(case: Case, steps, final) -> str | None:
    """One step per gate, each at the generator's gate and wire, the last
    equal to the final state."""
    if len(steps) != len(case.gates):
        return f"{len(steps)} trace steps for {len(case.gates)} gates"
    for k, ((gate, index, _), want) in enumerate(zip(steps, case.gates)):
        if (gate, index) != want:
            return f"step {k + 1} is {gate}@{index}, generator wrote {want[0]}@{want[1]}"
    if steps and tuple(steps[-1][2]) != tuple(final):
        return "last trace step differs from the final state"
    return None


def check_trace_json(case: Case, rc: int, out: str) -> str | None:
    doc = _doc(out)
    if rc != 0 or doc is None or "trace" not in doc:
        return f"exit {rc} or malformed document"
    final = (doc["labels"], doc["separability"], doc["levels"])
    problem = state_problem(case, *final)
    if problem:
        return problem
    steps = [(s["gate"], s["index"], (s["labels"], s["separability"], s["levels"]))
             for s in doc["trace"]]
    return _steps_problem(case, steps, final)


def check_trace_text(case: Case, rc: int, out: str) -> str | None:
    lines = out.splitlines()
    if rc != 0 or len(lines) < 5 or lines[0] != f"qubits: {case.wires}":
        return f"exit {rc} or malformed text output"
    try:
        final = (lines[2].split(":", 1)[1].split(),
                 _blocks(lines[3].split(":", 1)[1]), _blocks(lines[4].split(":", 1)[1]))
        steps = []
        for k, line in enumerate(lines[5:], 1):
            head, state = line.split(" -> ", 1)
            prefix, at = head.split(": ", 1)
            gate, index = at.split("@")
            if prefix != f"step {k}":
                return f"step line {k} is numbered {prefix!r}"
            steps.append((gate, int(index), _state_fields(state)))
    except (ValueError, IndexError):
        return "malformed trace line"
    problem = state_problem(case, *final)
    return problem or _steps_problem(case, steps, final)


def check_oracle(case: Case, mode: str, rc: int, out: str) -> str | None:
    """`analyze --check-oracle --format json`: the reported violations must
    be exactly the breaches found against the benchmark's own ground truth,
    and the exit code must follow them. Sound modes must have none; the
    unsafe mode must be caught on a planted pitfall."""
    doc = _doc(out)
    if doc is None or "soundness" not in doc or doc.get("mode") != mode:
        return f"exit {rc} or malformed document"
    labels, sep, lvl = doc["labels"], doc["separability"], doc["levels"]
    problem = state_problem(case, labels, sep, lvl, sound=False)
    if problem:
        return problem
    want = truth.violations(labels, sep, lvl, case.truths)
    report = doc["soundness"]
    got = {(kind, tuple(s) if isinstance(s, list) else s) for kind, s, _ in report["violations"]}
    if got != want:
        return f"oracle reported {sorted(got)[:3]}, ground truth gives {sorted(want)[:3]}"
    kinds = {kind for kind, _ in want}
    flags = (report["entanglement_ok"], report["level_ok"], report["label_ok"])
    if flags != tuple(k not in kinds for k in ("entanglement", "level", "label")):
        return "soundness flags disagree with the violations"
    if rc != (3 if want else 0):
        return f"exit {rc} with {len(want)} violations"
    if mode == "unsafe-leveling":
        if case.pitfall and not want:
            return "planted pitfall not caught"
    elif want:
        return f"sound mode {mode} broke a guarantee: {sorted(want)[:3]}"
    return None
