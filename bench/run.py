"""Benchmark of the `qent` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `src/qent` is imported from there.
The run generates its inputs from the seed, computes their ground truth
apart from qent, then drives `qent.cli.main` in-process on the generated
files in whole rounds of the workload's operations until S seconds have
passed. Every output is checked. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the public functions of
qent's modules are wrapped (tracing.py) and the per-layer metrics are
reported instead. See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, before numpy is imported here or in a child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

import checks  # noqa: E402  (bench/ is on sys.path as the script's directory)
import gen  # noqa: E402
import truth  # noqa: E402

SETUP_REPEATS = 5
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qent.cli
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        fh.read()
print(time.perf_counter() - t0)
"""

# End-to-end times are in reference seconds: wall-clock seconds scaled by
# REFERENCE_S / (median time of reference_work() in the same run), that is,
# seconds on a machine where reference_work() takes 12.5 ms, about its median
# on the 2-vCPU VM of the reference figures when the host is quiet.
REFERENCE_S = 0.0125


def reference_work() -> int:
    """A fixed pure-Python load timed before every operation to read how
    fast the machine runs at that moment. Like the parser and the analyzer
    it allocates many small tuples and strings (a few MB) and walks them."""
    items = [(i, str(i & 1023), i & 7) for i in range(20000)]
    index: dict[str, list[int]] = {}
    for _, key, k in items:
        index.setdefault(key, []).append(k)
    return sum(len(v) for v in index.values())


RATES = {  # operation kind -> end-to-end metric
    "analyze": ("analyze_gates_per_s", "gates/s"),
    "compare": ("compare_gates_per_s", "gates/s"),
    "trace": ("trace_gates_per_s", "gates/s"),
    "oracle": ("oracle_checks_per_s", "checks/s"),
}


@dataclass
class Op:
    kind: str  # a key of RATES
    argv: list[str]
    units: int  # gate tokens, or 1 per oracle check
    case: checks.Case
    check: Callable[[int, str], str | None]


def write_case(workdir: str, name: str, grid: gen.Grid, truths=None, pitfall=False) -> checks.Case:
    path = os.path.join(workdir, name + ".qc")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grid.text())
    return checks.Case(path, grid.gate_list(), truths or truth.grid_truth(grid), pitfall)


def analyze_ops(case: checks.Case) -> list[Op]:
    n = len(case.gates)
    return [
        Op("analyze", ["analyze", case.path, "--format", "json"], n, case,
           lambda rc, out: checks.check_analyze(case, "levels", rc, out)),
        Op("compare", ["compare", case.path], n, case,
           lambda rc, out: checks.check_compare(case, rc, out)),
    ]


def trace_ops(case: checks.Case) -> list[Op]:
    n = len(case.gates)
    return [
        Op("trace", ["analyze", case.path, "--trace", "--format", "json"], n, case,
           lambda rc, out: checks.check_trace_json(case, rc, out)),
        Op("trace", ["analyze", case.path, "--trace"], n, case,
           lambda rc, out: checks.check_trace_text(case, rc, out)),
    ]


def oracle_ops(case: checks.Case) -> list[Op]:
    modes = ["levels", "no-levels"] + (["unsafe-leveling"] if case.pitfall else [])
    return [Op("oracle", ["analyze", case.path, "--check-oracle", "--format", "json", "--mode", m], 1, case,
               lambda rc, out, m=m: checks.check_oracle(case, m, rc, out))
            for m in modes]


# Tiled shapes: wires x columns, motif rate per free wire-column, H/SW noise
# rate, and how many final columns carry motifs.
NARROW_LONG = (40, 1500, 0.05, 0.01, 100)
TRACE = (32, 200, 0.05, 0.01, 100)
WIDE_TILED = (2048, 40, 0.05, 0.02, 40)
WIDE_TRACE = (48, 40, 0.05, 0.02, 40)
WIDE_ORACLE = (8, 40, 0.08, 0.02, 40)
WIDE_ORACLE_COUNT = 8
# exact-check circuits of narrow-long: (kind, wires), 30 columns each
# Cost grows with the s/d labels of the 11-12-wire factor states (one SVD
# each), so those stay out: they made the rate depend on the seed.
ORACLE_SET = [("factors", 8), ("factors", 9), ("factors", 9), ("factors", 10), ("factors", 10),
              ("factors", 10), ("ghz", 10), ("ghz", 11), ("ghz", 12), ("pitfall", 9), ("pitfall", 10)]
WORKLOADS = ("narrow-long", "wide-tiled")


def build_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """The operations of one round, in order, on files written to workdir.
    An operation listed twice is timed twice per round."""
    if workload == "narrow-long":
        main = write_case(workdir, "main", gen.tiled_grid(seed, *NARROW_LONG))
        trace = write_case(workdir, "trace", gen.tiled_grid(seed * 100 + 99, *TRACE))
        # analyze and compare twice per round: more samples of the short calls
        ops = analyze_ops(main) * 2 + trace_ops(trace)
        for k, (kind, wires) in enumerate(ORACLE_SET):
            grid = gen.oracle_circuit(seed * 100 + k, kind, wires, 30)
            truths = [truth.ghz_truth(wires)] if kind == "ghz" else None
            ops += oracle_ops(write_case(workdir, f"{kind}{k}", grid, truths, kind == "pitfall"))
        return ops
    main = write_case(workdir, "main", gen.tiled_grid(seed, *WIDE_TILED))
    trace = write_case(workdir, "trace", gen.tiled_grid(seed * 100 + 99, *WIDE_TRACE))
    ops = analyze_ops(main) + trace_ops(trace)
    for k in range(WIDE_ORACLE_COUNT):
        ops += oracle_ops(write_case(workdir, f"oracle{k}", gen.tiled_grid(seed * 100 + k, *WIDE_ORACLE)))
    return ops


def run_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a failed run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
        elapsed = perf_counter() - t0
    return rc, out.getvalue(), elapsed


def reference_docs(cli, ops: list[Op]) -> None:
    """Verified no-levels documents, which the compare check reads."""
    for op in ops:
        if op.kind == "compare":
            case = op.case
            rc, out, _ = run_cli(cli, ["analyze", case.path, "--no-levels", "--format", "json"])
            problem = checks.check_analyze(case, "no-levels", rc, out)
            if problem:
                print(f"reference no-levels document of {case.path}: {problem}", file=sys.stderr)


def measure_setup(paths: list[str]) -> float:
    """Median seconds, over fresh interpreters, to import qent (numpy
    included) and read the workload's input files."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *paths],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "qent" / "__init__.py").is_file():
        print(f"error: no qent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qent.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "qent":
        print(f"error: imported qent from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work_root = BENCH_DIR / "work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        ops = build_ops(args.workload, args.seed, workdir)
        reference_docs(cli, ops)
        paths = sorted({op.case.path for op in ops})
        setup_s = measure_setup(paths)

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()

        # The benchmark's own objects are moved out of the collector's view,
        # and each operation starts from empty young generations, so garbage
        # collection inside an operation depends on that operation alone.
        gc.collect()
        gc.freeze()
        distinct = list({id(op): op for op in ops}.values())
        slot = {id(op): k for k, op in enumerate(distinct)}
        passed: set[tuple] = set()
        attempted = failed = rounds = 0
        times: list[list[float]] = [[] for _ in distinct]
        reference: list[float] = []
        start = perf_counter()
        while not rounds or perf_counter() - start < args.seconds:
            rounds += 1
            for op in ops:
                k = slot[id(op)]
                if tracer is not None:
                    tracer.scope = op.kind
                gc.collect()
                t0 = perf_counter()
                reference_work()
                reference.append(perf_counter() - t0)
                rc, out, elapsed = run_cli(cli, op.argv)
                times[k].append(elapsed)
                attempted += 1
                if tracer is not None:
                    tracer.counts["cli.output_bytes"] += len(out.encode())
                key = (k, rc, hashlib.blake2b(out.encode()).digest())
                if key in passed:
                    continue
                problem = op.check(rc, out)
                if problem is None:
                    passed.add(key)
                else:
                    failed += 1
                    print(f"FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # each operation's median over the rounds, summed per kind; times in
        # reference seconds, so that the host's changing speed cancels out
        slowdown = statistics.median(reference) / REFERENCE_S
        raw = {}
        for kind, (name, unit) in RATES.items():
            mine = [k for k, op in enumerate(distinct) if op.kind == kind]
            raw[name] = sum(distinct[k].units for k in mine) / sum(statistics.median(times[k]) for k in mine)
        rates = {name: (raw[name] * slowdown, unit) for name, unit in RATES.values()}
        print(f"wall-clock: {json.dumps({**{k: round(v, 2) for k, v in raw.items()}, 'setup_s': round(setup_s, 4)})}"
              f", machine slowdown {slowdown:.3f}")
        if tracer is not None:
            tracer.uninstall()
            metrics = tracer.metrics(rounds)
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(str(out_dir / f"spans-{args.workload}-{args.seed}.json"),
                               {"workload": args.workload, "seed": args.seed, "rounds": rounds})
            print("traced end-to-end: " + json.dumps({k: round(v, 2) for k, (v, _) in rates.items()}))
            kinds = ("analyze", "compare")
            spent = sum(sum(times[k]) for k, op in enumerate(distinct) if op.kind in kinds)
            partition = sum(tracer.seconds("domain." + m, kinds) for m in ("join", "split", "swapped"))
            compare_self = tracer.seconds("cli.compare", kinds, self_time=True)
            print(f"share of traced analyze+compare time: domain.partition_s {partition / spent:.3f},"
                  f" cli.compare_self_s {compare_self / spent:.3f}")
        else:
            metrics = {**rates, "setup_s": (setup_s / slowdown, "s"), "peak_mb": (peak_mb, "MB")}

    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
