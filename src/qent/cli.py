"""Command-line front end.

    qent analyze FILE [--mode levels|no-levels|unsafe-leveling] [--trace]
                      [--format text|json] [--check-oracle] [--max-oracle-qubits N]
    qent compare FILE

Exit codes: 0 success, 1 parse error or stdout closed early or not
writable (no traceback), 2 validation error (a sequence of circuits of
different heights, reported at the `oo`'s line:col; or oracle qubit limit
exceeded, or out of memory, in the oracle or anywhere else, or numpy cannot
be imported for --check-oracle), 3 soundness violation. Results go to stdout.
Every failure takes one path: the command raises a `_Refusal` (or runs out of
memory), and `main` alone prints its one `error: ...` line to stderr and picks
the exit code. Output is deterministic for a given input file and flags.

Every state printed (the final state in text and JSON, compare's two lines,
each trace line and each JSON trace entry) is formatted by one
`_StateWriter`, made anew for each output. The JSON is written by hand and
is byte-for-byte `json.dumps(state_to_document(...), indent=2)`; json.dumps
encodes only the soundness report. A trace is O(n x m) bytes for n
qubits and m gates, but each distinct snapshot and each distinct block is
rendered once; a step that changes nothing writes its prefix and reuses the
previous snapshot's text.

`compare` analyzes both modes in one pass over the gates (`analyzer._walk`
with two modes). It lists the pairs that share a no-levels block but not a
levels block by grouping each no-levels block's members by their levels
block, so it costs O(n) plus the pairs it prints (and their sort), not the
square of a block's size.

`main` pauses Python's cyclic garbage collector while a command runs and
turns it back on only if it was on at entry. The syntax tree has tens of
thousands of nodes and no reference cycles; a collection while it is built
would re-scan it and free nothing. The cyclic objects a command leaves
(argparse's parser graph) do not grow with its input. The library
functions never touch the collector.

Only --check-oracle imports the exact oracle, and numpy with it; `analyze`,
`compare` and `--trace` never load either. The oracle's `simulate`,
`check_soundness` and `QubitLimitError` become globals of this module on
first use or first attribute access, and the command calls them through
those globals, so a replacement set on the module is what runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import combinations
from typing import TYPE_CHECKING

from .analyzer import AnalysisMode, TraceStep, _walk, analyze, analyze_traced
from .circuit import (DEFAULT_QUBIT_LIMIT, CircuitAst, CircuitSyntaxError, GateKind,
                      ValidationError, parse_circuit)
from .circuit import validate  # noqa: F401  (unused; bench/tracing.py wraps cli.validate)
from .domain import AbstractState, BasisLabel, Partition

if TYPE_CHECKING:
    from .oracle import SoundnessReport

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_UNSOUND = 3

_ORACLE_NAMES = ("simulate", "check_soundness", "QubitLimitError")


class _Refusal(Exception):
    """_Refusal(exit code, message): `main` prints `error: <message>` and exits."""


def _load_oracle() -> None:
    """Import qent.oracle (and numpy) and bind the oracle names that are not
    yet globals of this module; a name set from outside is kept."""
    from . import oracle

    for name in _ORACLE_NAMES:
        globals().setdefault(name, getattr(oracle, name))


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_oracle()
    return globals()[name]


def _state_fields(state: AbstractState) -> dict:
    """A state's labels and blocks as JSON values; blocks and members sorted."""
    return {
        "labels": [label.value for label in state.labels],
        "separability": state.sep.blocks(),
        "levels": state.lvl.blocks(),
    }


def state_to_document(state: AbstractState, mode: AnalysisMode,
                      trace: list[TraceStep] | None = None) -> dict:
    """Serialize an analysis result; blocks and members sorted ascending."""
    doc = {"qubits": state.n, "mode": mode.value, **_state_fields(state)}
    if trace is not None:
        doc["trace"] = [{"gate": step.gate.value, "index": step.index, **_state_fields(step.state)}
                        for step in trace]
    return doc


_PAD = " " * 6  # the indentation of a trace entry's fields in the JSON document
_LABEL_TEXT = {label: label.value for label in BasisLabel}
_LABEL_JSON = {label: f'\n{_PAD}  "{label.value}"' for label in BasisLabel}
_GATE_TEXT = {kind: kind.value for kind in GateKind}


def _block_text(block: frozenset[int]) -> str:
    return "{" + ",".join(map(str, sorted(block))) + "}"


def _block_json(block: frozenset[int]) -> str:
    """A block as an indent=2 JSON list item of a trace entry, newline first."""
    return f"\n{_PAD}  [" + ",".join(f"\n{_PAD}    {m}" for m in sorted(block)) + f"\n{_PAD}  ]"


def _json_list(items) -> str:
    """Rendered items as a list closed at a trace entry's depth. No list is
    empty: every state has a qubit, so a label and a block."""
    return f"[{','.join(items)}\n{_PAD}]"


class _StateWriter(dict):
    """Formats one output's states with its block -> text dict, which render
    (_block_text, or _block_json for JSON) fills on first lookup.

    The blocks of a partition are the distinct entries of its members, which
    dict.fromkeys keeps in order of least member, as blocks() lists them. Each
    block is rendered once per writer and kept under the frozenset itself: a
    freed block's id() could be reused by another block. The JSON is what
    json.dumps(..., indent=2) writes for state_to_document's state fields in
    a trace entry.
    """

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, block):
        text = self[block] = self.render(block)
        return text

    def text(self, state: AbstractState, sep: str) -> str:
        """The labels, separability and levels lines, joined by sep."""
        blocks = self.__getitem__
        return (f"labels: {' '.join(map(_LABEL_TEXT.__getitem__, state.labels))}{sep}"
                f"separability: {' '.join(map(blocks, dict.fromkeys(state.sep.members)))}{sep}"
                f"levels: {' '.join(map(blocks, dict.fromkeys(state.lvl.members)))}")

    def json(self, state: AbstractState) -> str:
        """The "labels", "separability" and "levels" fields, from the first
        key's quote to the last field's closing bracket."""
        blocks = self.__getitem__
        sep = _json_list(map(blocks, dict.fromkeys(state.sep.members)))
        lvl = _json_list(map(blocks, dict.fromkeys(state.lvl.members)))
        return (f'"labels": {_json_list(map(_LABEL_JSON.__getitem__, state.labels))},\n'
                f'{_PAD}"separability": {sep},\n{_PAD}"levels": {lvl}')


def _print_text(state: AbstractState, mode: AnalysisMode, trace: list[TraceStep] | None,
                report: SoundnessReport | None) -> None:
    """Write the result, the trace line by line (never held whole; each distinct
    snapshot rendered once), then the soundness lines when there is a report."""
    writer = _StateWriter(_block_text)
    print(f"qubits: {state.n}", f"mode: {mode.value}", writer.text(state, "\n"), sep="\n")
    write = sys.stdout.write
    gates = _GATE_TEXT
    snap = text = None
    for k, step in enumerate(trace or (), 1):
        if step.state is not snap:  # steps that change nothing share a snapshot
            snap, text = step.state, writer.text(step.state, " | ") + "\n"
        write(f"step {k}: {gates[step.gate]}@{step.index} -> ")
        write(text)
    if report is not None:
        verdict = "ok" if report.ok else "VIOLATED"
        print(f"soundness: {verdict} (entanglement={report.entanglement_ok} "
              f"level={report.level_ok} label={report.label_ok})")
        for kind, subject, explanation in report.violations:
            print(f"  violation[{kind}] {subject}: {explanation}")


def _print_json(state: AbstractState, mode: AnalysisMode, trace: list[TraceStep] | None,
                report: SoundnessReport | None) -> None:
    """Print json.dumps(document, indent=2) for state_to_document(state, mode,
    trace) with "soundness" added when there is a report.

    The frame is written here as text, the state fields and the trace entries
    by a _StateWriter, and json.dumps encodes only the soundness report. Each
    distinct snapshot is rendered once, and the entries are written one at a
    time, so the output is never held whole."""
    writer = _StateWriter(_block_json)
    write = sys.stdout.write
    # the final state's fields, rendered at a trace entry's depth (its blocks
    # are the last snapshot's) and moved up to the top level, 4 spaces less
    write(f'{{\n  "qubits": {state.n},\n  "mode": "{mode.value}",\n  '
          + writer.json(state).replace("\n    ", "\n"))
    if trace is not None:
        write(',\n  "trace": [')
        gates = _GATE_TEXT
        snap = body = None
        sep = "\n"
        for step in trace:
            if step.state is not snap:
                snap, body = step.state, writer.json(step.state) + "\n    }"
            write(f'{sep}    {{\n      "gate": "{gates[step.gate]}",\n'
                  f'      "index": {step.index},\n      ')
            write(body)
            sep = ",\n"
        write("\n  ]")  # every circuit has a gate, so no trace is empty
    if report is not None:
        write(',\n  "soundness": '
              + json.dumps(_soundness_doc(report), indent=2).replace("\n", "\n  "))
    write("\n}\n")


def _soundness_doc(report: SoundnessReport) -> dict:
    return {
        "entanglement_ok": report.entanglement_ok,
        "level_ok": report.level_ok,
        "label_ok": report.label_ok,
        "violations": [list(v) for v in report.violations],
    }


def _decode(data: bytes) -> str:
    # UTF-8 with universal newlines, as a text-mode read decodes it
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load(path: str) -> CircuitAst:
    """The file's circuit, or a _Refusal naming what is wrong with it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise _Refusal(EXIT_PARSE, f"cannot read {path}: {err}")
    # strip the byte-order mark here, not with the utf-8-sig codec, whose
    # err.start would count from after it and index the wrong byte below
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        text = _decode(data)
    except UnicodeDecodeError as err:
        head = _decode(data[:err.start])  # the valid prefix
        line, column = head.count("\n") + 1, len(head) - head.rfind("\n")
        raise _Refusal(EXIT_PARSE, f"{path}:{line}:{column}: not UTF-8: {err.reason} "
                                   f"(byte 0x{data[err.start]:02x})")
    try:
        return parse_circuit(text)
    except CircuitSyntaxError as err:
        raise _Refusal(EXIT_PARSE, f"{path}:{err}")
    except ValidationError as err:
        raise _Refusal(EXIT_VALIDATION, f"{path}:{err}")


def _no_memory(circuit: CircuitAst) -> _Refusal:
    return _Refusal(EXIT_VALIDATION,
                    f"{circuit.height} qubits: not enough memory for the exact oracle")


def _cmd_analyze(args) -> None:
    circuit = _load(args.file)
    mode = AnalysisMode(args.mode)

    # the oracle's refusals come before the analysis, which they would waste
    exact = None
    if args.check_oracle:
        try:
            _load_oracle()
        except ImportError as err:
            raise _Refusal(EXIT_VALIDATION, f"--check-oracle needs numpy: {err}")
        try:
            exact = simulate(circuit, max_qubits=args.max_oracle_qubits)
        except QubitLimitError as err:
            raise _Refusal(EXIT_VALIDATION, str(err))
        except MemoryError:
            raise _no_memory(circuit)

    if args.trace:
        state, trace = analyze_traced(circuit, mode)
    else:
        state, trace = analyze(circuit, mode), None

    report = None
    if exact is not None:
        try:
            report = check_soundness(state, exact)
        except MemoryError:
            raise _no_memory(circuit)

    (_print_json if args.format == "json" else _print_text)(state, mode, trace, report)
    if report is not None and not report.ok:
        raise _Refusal(EXIT_UNSOUND, "analysis is unsound for this circuit")


def _split_pairs(coarse: Partition, fine: Partition) -> list[tuple[int, int]]:
    """The pairs i < j that share a block of coarse but not of fine, sorted.

    Each block of coarse is grouped by the fine blocks of its members, and
    only pairs across two groups are listed, so pairs that share a fine
    block are never visited: O(n + p log p) for p pairs listed."""
    pairs: list[tuple[int, int]] = []
    fine_of = fine.members
    for block in dict.fromkeys(coarse.members):
        groups: dict[frozenset[int], list[int]] = {}
        for m in block:
            groups.setdefault(fine_of[m], []).append(m)
        for left, right in combinations(groups.values(), 2):
            pairs.extend((i, j) if i < j else (j, i) for i in left for j in right)
    pairs.sort()
    return pairs


def _cmd_compare(args) -> None:
    circuit = _load(args.file)
    with_levels, without = _walk(circuit, (AnalysisMode.LEVELS, AnalysisMode.NO_LEVELS))
    delta = _split_pairs(without.sep, with_levels.sep)
    print(f"qubits: {with_levels.n}")
    writer = _StateWriter(_block_text)
    print("levels:    " + writer.text(with_levels, " | "))
    print("no-levels: " + writer.text(without, " | "))
    if delta:
        print("more precise on: " + " ".join(f"({i},{j})" for i, j in delta))
    else:
        print("more precise on: (none)")


def positive_int(text: str) -> int:
    """An argparse type; it names the type in "invalid positive_int value"."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qent",
        description="Static entanglement analysis for quantum circuit files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a circuit file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--mode", choices=[m.value for m in AnalysisMode],
                           default=AnalysisMode.LEVELS.value)
    p_analyze.add_argument("--no-levels", dest="mode", action="store_const",
                           const=AnalysisMode.NO_LEVELS.value,
                           help="alias for --mode no-levels")
    p_analyze.add_argument("--trace", action="store_true",
                           help="include a per-gate snapshot of the state")
    p_analyze.add_argument("--format", choices=["text", "json"], default="text")
    p_analyze.add_argument("--check-oracle", action="store_true",
                           help="simulate the circuit exactly and verify the analysis")
    p_analyze.add_argument("--max-oracle-qubits", type=positive_int,
                           default=DEFAULT_QUBIT_LIMIT, metavar="N",
                           help="widest circuit --check-oracle simulates (default: %(default)s)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_compare = sub.add_parser("compare",
                               help="run levels and no-levels modes side by side")
    p_compare.add_argument("file")
    p_compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only code that writes to stderr. The cyclic
    garbage collector is off while it runs, and is switched back on at the
    end only if it was on at entry."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        code = EXIT_OK
        try:
            try:
                args.func(args)
            except _Refusal as refusal:
                code, message = refusal.args
            except MemoryError:  # the oracle's own are refused by _cmd_analyze
                code, message = EXIT_VALIDATION, f"{args.file}: not enough memory"
            if code != EXIT_OK:  # printed here, once the failed command's frames are freed
                print(f"error: {message}", file=sys.stderr)
            sys.stdout.flush()  # so that a closed reader raises here, not at exit
        except OSError as err:  # _load refuses its own read errors
            if not isinstance(err, BrokenPipeError):
                print(f"error: cannot write output: {err.strerror}", file=sys.stderr)
            # the signal module docs' recipe: what is left goes to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
