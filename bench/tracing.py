"""Per-layer spans and counts for `qent`, recorded from outside the program.

The public functions and methods of the five modules (circuit, analyzer,
domain, cli, oracle) are wrapped where their callers look them up. Each
wrapper records its duration, adds it to the enclosing span's child time
(self time = duration - child time) and counts calls. Coarse spans (one per
call of a CLI command, parse, validate, analysis or oracle stage) are also
kept in memory with their parent span and written out at the end; the
per-gate ones (CX, swaps, partition updates) are only aggregated.
"""

from __future__ import annotations

import json
import types
from collections import Counter, defaultdict
from itertools import count
from time import perf_counter


def count_nodes(tree) -> int:
    """AST nodes of a parsed circuit, walked iteratively."""
    from qent.circuit import Gate

    nodes, stack = 0, [tree]
    while stack:
        node = stack.pop()
        nodes += 1
        if type(node) is not Gate:
            stack.append(node.left)
            stack.append(node.right)
    return nodes


class Tracer:
    def __init__(self):
        self.scope = ""  # kind of the operation running, set by the caller
        self.stack: list[list] = []  # open spans: [child seconds, span id]
        # keyed by (scope, span name)
        self.total: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._ids = count(1)
        self._restore: list[tuple] = []

    def patch(self, owner, attr: str, name, record: bool = True, noop: bool = False, after=None):
        """Replace owner.attr by a timing wrapper named name (or name(args)).

        noop counts calls that return their receiver unchanged; after(result,
        args) runs outside the span and outside the parent's self time."""
        fn = getattr(owner, attr)
        tracer = self
        stack, total, self_s, counts, spans, ids = (
            self.stack, self.total, self.self_s, self.counts, self.spans, self._ids)
        fixed_name = None if callable(name) else name

        def wrapper(*args, **kwargs):
            span = fixed_name or name(args)
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                key = (tracer.scope, span)
                total[key] += d
                self_s[key] += d - frame[0]
                counts[span + ".calls"] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += d
                if record:
                    spans.append((frame[1], parent and parent[1], span, t0, t1))
            if noop and result is args[0]:
                counts[span + ".noop"] += 1
            if after is not None:
                t2 = perf_counter()
                after(result, args)
                if parent is not None:
                    parent[0] += perf_counter() - t2
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def install(self) -> None:
        import qent.analyzer as analyzer
        import qent.cli as cli
        import qent.oracle as oracle
        from qent.domain import AbstractState, Partition

        def parsed(tree, args):
            self.counts["circuit.chars"] += len(args[0])
            self.counts["circuit.nodes"] += count_nodes(tree)

        def traced(result, args):
            self.counts["analyzer.trace_steps"] += len(result[1])

        self.patch(cli, "main", lambda args: "cli.compare" if args[0][0] == "compare" else "cli.analyze")
        self.patch(cli, "state_to_document", "cli.document")
        shim = types.SimpleNamespace(**vars(cli.json))
        self.patch(shim, "dumps", "cli.json")
        self._restore.append((cli, "json", cli.json))
        cli.json = shim

        self.patch(cli, "parse_circuit", "circuit.parse", after=parsed)
        for module in (cli, analyzer, oracle):
            self.patch(module, "validate", "circuit.validate")

        self.patch(cli, "analyze", "analyzer.analyze")
        self.patch(cli, "analyze_traced", "analyzer.traced", after=traced)
        self.patch(analyzer, "apply_cx_at", "analyzer.cx", record=False)
        self.patch(AbstractState, "swap_adjacent", "analyzer.swap", record=False)

        for method in ("join", "split", "swapped"):
            self.patch(Partition, method, "domain." + method, record=False, noop=True)
        self.patch(Partition, "blocks", "domain.blocks", record=False)
        self.patch(AbstractState, "copy", "domain.state_copy", record=False)

        self.patch(cli, "simulate", "oracle.simulate")
        self.patch(cli, "check_soundness", "oracle.check")
        self.patch(oracle, "finest_separable_partition", "oracle.finest")
        self.patch(oracle, "levels_oracle", "oracle.levels")
        self.patch(oracle, "basis_oracle", "oracle.basis", record=False)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def seconds(self, span: str, scopes=None, self_time: bool = False) -> float:
        """Total (or self) seconds of a span, within the given scopes or all."""
        table = self.self_s if self_time else self.total
        return sum(v for (scope, name), v in table.items()
                   if name == span and (scopes is None or scope in scopes))

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per round of the workload's operations."""
        c = self.counts
        t: defaultdict[str, float] = defaultdict(float)
        s: defaultdict[str, float] = defaultdict(float)
        for (_, name), v in self.total.items():
            t[name] += v
        for (_, name), v in self.self_s.items():
            s[name] += v

        def per(v):
            return v / rounds

        partition = t["domain.join"] + t["domain.split"] + t["domain.swapped"]
        return {
            "circuit.parse_s": (per(t["circuit.parse"]), "s"),
            "circuit.parse_calls": (per(c["circuit.parse.calls"]), "count"),
            "circuit.parse_chars_per_s": (c["circuit.chars"] / t["circuit.parse"], "chars/s"),
            "circuit.nodes": (per(c["circuit.nodes"]), "count"),
            "circuit.validate_s": (per(t["circuit.validate"]), "s"),
            "circuit.validate_calls": (per(c["circuit.validate.calls"]), "count"),
            "analyzer.analyze_calls": (per(c["analyzer.analyze.calls"]), "count"),
            "analyzer.analyze_self_s": (per(s["analyzer.analyze"]), "s"),
            "analyzer.cx_calls": (per(c["analyzer.cx.calls"]), "count"),
            "analyzer.cx_s": (per(t["analyzer.cx"]), "s"),
            "analyzer.swap_calls": (per(c["analyzer.swap.calls"]), "count"),
            "analyzer.traced_s": (per(t["analyzer.traced"]), "s"),
            "analyzer.trace_steps": (per(c["analyzer.trace_steps"]), "count"),
            "domain.join_calls": (per(c["domain.join.calls"]), "count"),
            "domain.join_noop": (per(c["domain.join.noop"]), "count"),
            "domain.split_calls": (per(c["domain.split.calls"]), "count"),
            "domain.split_noop": (per(c["domain.split.noop"]), "count"),
            "domain.swapped_calls": (per(c["domain.swapped.calls"]), "count"),
            "domain.swapped_noop": (per(c["domain.swapped.noop"]), "count"),
            "domain.partition_s": (per(partition), "s"),
            "domain.blocks_calls": (per(c["domain.blocks.calls"]), "count"),
            "domain.blocks_s": (per(t["domain.blocks"]), "s"),
            "domain.state_copy_calls": (per(c["domain.state_copy.calls"]), "count"),
            "domain.state_copy_s": (per(t["domain.state_copy"]), "s"),
            "cli.self_s": (per(s["cli.analyze"] + s["cli.compare"]), "s"),
            "cli.compare_self_s": (per(s["cli.compare"]), "s"),
            "cli.document_s": (per(t["cli.document"]), "s"),
            "cli.json_s": (per(t["cli.json"]), "s"),
            "cli.output_bytes": (per(c["cli.output_bytes"]), "bytes"),
            "oracle.simulate_calls": (per(c["oracle.simulate.calls"]), "count"),
            "oracle.simulate_s": (per(t["oracle.simulate"]), "s"),
            "oracle.finest_calls": (per(c["oracle.finest.calls"]), "count"),
            "oracle.finest_s": (per(t["oracle.finest"]), "s"),
            "oracle.levels_s": (per(t["oracle.levels"]), "s"),
            "oracle.basis_calls": (per(c["oracle.basis.calls"]), "count"),
            "oracle.basis_s": (per(t["oracle.basis"]), "s"),
            "oracle.check_self_s": (per(s["oracle.check"]), "s"),
        }

    def write_spans(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
