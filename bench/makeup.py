"""Print the make-up of each workload's inputs, as recorded in README.md.

    python3 bench/makeup.py --seeds 1-10

For every input file of a round: gate tokens, share of I/X/Y/Z, share of
groups whose final separability (levels mode) is finer than the group,
non-trivial level blocks, s/d labels, and for exact-check circuits the
share whose exact state is one register-wide block. Values are means over
the seeds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
from qent import analyze, parse_circuit  # noqa: E402


def case_makeup(case) -> dict:
    with open(case.path, encoding="utf-8") as fh:
        state = analyze(parse_circuit(fh.read()))
    rep = {q: b[0] for b in state.sep.blocks() for q in b}
    finer = [len({rep[q] for q in range(t.base, t.base + t.width)}) > 1 for t in case.truths]
    return {
        "gates": len(case.gates),
        "ixyz": sum(g in "IXYZ" for g, _ in case.gates) / len(case.gates),
        "finer": sum(finer) / len(finer),
        "level_blocks": sum(len(b) > 1 for b in state.lvl.blocks()),
        "sd_labels": sum(label.value in ("s", "d") for label in state.labels),
        "wires": case.wires,
        "one_block": len(case.truths) == 1 and len(case.truths[0].blocks) == 1,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    work = run.BENCH_DIR / "work"
    work.mkdir(exist_ok=True)
    print("| workload | input | files | wires | gates | I/X/Y/Z | groups finer | level blocks | s/d labels | one block |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload in run.WORKLOADS:
        rows: dict[str, list[dict]] = {}
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory(dir=work) as workdir:
                seen = set()
                for op in run.build_ops(workload, seed, workdir):
                    if op.case.path in seen:
                        continue
                    seen.add(op.case.path)
                    name = Path(op.case.path).stem.rstrip("0123456789")
                    rows.setdefault(f"{op.kind}:{name}", []).append(case_makeup(op.case))
        for key, cases in rows.items():
            def mean(field):
                return statistics.mean(float(c[field]) for c in cases)
            files = len(cases) // (last - first + 1)
            print(f"| {workload} | {key} | {files} | {mean('wires'):.0f} | {mean('gates'):.0f} "
                  f"| {mean('ixyz'):.1%} | {mean('finer'):.0%} | {mean('level_blocks'):.1f} "
                  f"| {mean('sd_labels'):.1f} | {mean('one_block'):.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
