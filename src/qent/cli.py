"""Command-line front end.

    qent analyze FILE [--mode levels|no-levels|unsafe-leveling] [--trace]
                      [--format text|json] [--check-oracle] [--max-oracle-qubits N]
    qent compare FILE

Exit codes: 0 success, 1 parse error or stdout closed early (no traceback),
2 validation error (a sequence of circuits of different heights, reported
at the `oo`'s line:col; or oracle qubit limit exceeded, or too little
memory for the oracle), 3 soundness violation. Diagnostics go to stderr;
results to stdout. Output is deterministic for a given input file and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import combinations

from .analyzer import AnalysisMode, TraceStep, analyze, analyze_traced
from .circuit import CircuitSyntaxError, ValidationError, parse_circuit
from .circuit import validate  # noqa: F401  (unused; bench/tracing.py wraps cli.validate)
from .domain import AbstractState, BasisLabel, Partition
from .oracle import (DEFAULT_QUBIT_LIMIT, QubitLimitError, SoundnessReport, check_soundness,
                     simulate)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_UNSOUND = 3


def _state_fields(state: AbstractState) -> dict:
    """A state's labels and blocks as JSON values; blocks and members sorted."""
    return {
        "labels": [label.value for label in state.labels],
        "separability": state.sep.blocks(),
        "levels": state.lvl.blocks(),
    }


def _blocks_text(blocks: list[list[int]]) -> str:
    return " ".join("{" + ",".join(str(q) for q in block) + "}" for block in blocks)


def _state_text(state: AbstractState) -> list[str]:
    """The text lines of a state: _state_fields, rendered."""
    fields = _state_fields(state)
    return [
        "labels: " + " ".join(fields["labels"]),
        "separability: " + _blocks_text(fields["separability"]),
        "levels: " + _blocks_text(fields["levels"]),
    ]


def state_to_document(state: AbstractState, mode: AnalysisMode,
                      trace: list[TraceStep] | None = None) -> dict:
    """Serialize an analysis result; blocks and members sorted ascending."""
    doc = {"qubits": state.n, "mode": mode.value, **_state_fields(state)}
    if trace is not None:
        doc["trace"] = [{"gate": step.gate.value, "index": step.index, **_state_fields(step.state)}
                        for step in trace]
    return doc


def document_to_state(doc: dict) -> AbstractState:
    """Rebuild the AbstractState a document was serialized from."""
    n = doc["qubits"]
    return AbstractState(
        [BasisLabel(value) for value in doc["labels"]],
        Partition.from_blocks(doc["separability"], n),
        Partition.from_blocks(doc["levels"], n),
    )


def _print_text(state: AbstractState, mode: AnalysisMode,
                trace: list[TraceStep] | None) -> None:
    """Write the result, then the trace line by line, so that the output is
    never held whole; each distinct snapshot is rendered once."""
    print(f"qubits: {state.n}", f"mode: {mode.value}", *_state_text(state), sep="\n")
    write = sys.stdout.write
    snap = text = None
    for k, step in enumerate(trace or (), 1):
        if step.state is not snap:  # steps that change nothing share a snapshot
            snap, text = step.state, " | ".join(_state_text(step.state))
        write(f"step {k}: {step.gate.value}@{step.index} -> {text}\n")


def _print_spliced(text: str, trace: list[TraceStep]) -> None:
    """Print the indent=2 JSON text of a document whose trace is empty with
    the trace entries put in, as json.dumps of the whole document writes them.

    Each distinct snapshot's fields are encoded once and re-indented from
    the top level (2 spaces) to the depth of a trace entry (6 spaces). The
    entries are written one at a time, so the output is never held twice."""
    head, _, tail = text.partition('\n  "trace": []')
    write = sys.stdout.write
    write(head + '\n  "trace": [')
    snap = body = None
    sep = "\n"
    for step in trace:
        if step.state is not snap:
            snap = step.state
            body = json.dumps(_state_fields(snap), indent=2)[1:-2].replace("\n", "\n    ")
        write(f'{sep}    {{\n      "gate": "{step.gate.value}",\n'
              f'      "index": {step.index},{body}\n    }}')
        sep = ",\n"
    write("\n  ]" + tail + "\n")


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


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return None, EXIT_PARSE
    # strip the byte-order mark here, not with the utf-8-sig codec, whose
    # err.start would count from after it and index the wrong byte below
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        text = _decode(data)
    except UnicodeDecodeError as err:
        head = _decode(data[:err.start])  # the valid prefix
        line, column = head.count("\n") + 1, len(head) - head.rfind("\n")
        print(f"error: {path}:{line}:{column}: not UTF-8: {err.reason} "
              f"(byte 0x{data[err.start]:02x})", file=sys.stderr)
        return None, EXIT_PARSE
    try:
        circuit = parse_circuit(text)
    except (CircuitSyntaxError, ValidationError) as err:
        print(f"error: {path}:{err.line}:{err.column}: {err.message}", file=sys.stderr)
        return None, EXIT_PARSE if isinstance(err, CircuitSyntaxError) else EXIT_VALIDATION
    return circuit, EXIT_OK


def _cmd_analyze(args) -> int:
    circuit, status = _load(args.file)
    if circuit is None:
        return status
    mode = AnalysisMode(args.mode)

    if args.trace:
        state, trace = analyze_traced(circuit, mode)
    else:
        state, trace = analyze(circuit, mode), None

    report = None
    if args.check_oracle:
        try:
            report = check_soundness(state, simulate(circuit, max_qubits=args.max_oracle_qubits))
        except QubitLimitError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_VALIDATION
        except MemoryError:
            print(f"error: {state.n} qubits: not enough memory for the exact oracle",
                  file=sys.stderr)
            return EXIT_VALIDATION

    if args.format == "json":
        # the trace entries are spliced into the text, one encoding per snapshot
        doc = state_to_document(state, mode, None if trace is None else [])
        if report is not None:
            doc["soundness"] = _soundness_doc(report)
        text = json.dumps(doc, indent=2)
        if trace:
            _print_spliced(text, trace)
        else:
            print(text)
    else:
        _print_text(state, mode, trace)
        if report is not None:
            verdict = "ok" if report.ok else "VIOLATED"
            print(f"soundness: {verdict} (entanglement={report.entanglement_ok} "
                  f"level={report.level_ok} label={report.label_ok})")
            for kind, subject, explanation in report.violations:
                print(f"  violation[{kind}] {subject}: {explanation}")

    if report is not None and not report.ok:
        print("error: analysis is unsound for this circuit", file=sys.stderr)
        return EXIT_UNSOUND
    return EXIT_OK


def _cmd_compare(args) -> int:
    circuit, status = _load(args.file)
    if circuit is None:
        return status
    with_levels = analyze(circuit, AnalysisMode.LEVELS)
    without = analyze(circuit, AnalysisMode.NO_LEVELS)
    # blocks() come in order of their least member, so pairs need sorting
    delta = sorted(
        (i, j)
        for block in without.sep.blocks()
        for i, j in combinations(block, 2)
        if not with_levels.sep.same_block(i, j)
    )
    print(f"qubits: {with_levels.n}")
    print("levels:    " + " | ".join(_state_text(with_levels)))
    print("no-levels: " + " | ".join(_state_text(without)))
    if delta:
        print("more precise on: " + " ".join(f"({i},{j})" for i, j in delta))
    else:
        print("more precise on: (none)")
    return EXIT_OK


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
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed reader raises here, not at exit
    except BrokenPipeError:
        # the signal module docs' recipe: what is left goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
