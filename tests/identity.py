"""One digest of everything the command line prints, to show that a change
keeps each output byte-identical.

    PYTHONPATH=src python tests/identity.py

Runs `qent.cli.main` in-process on a fixed corpus and prints the command
lines run per exit code and one SHA-256 over (argv, exit code, stdout,
stderr) of every line, in order; an argparse exit is caught and its code
hashed. Run it on two checkouts: equal digests mean equal outputs. The
corpus is written to a temporary directory, which is the working directory
of the run, so paths in the output do not depend on it:

* the files bench/run.py's build_ops writes for seeds 1-10 of both
  workloads (bench/ is only read);
* 1,000 random circuits (helpers.random_circuit) of 1-12 wires and 1-14
  columns;
* an error corpus: a missing file, non-UTF-8 bytes, a byte-order mark, an
  unknown token, a single `*`, an unbalanced `(`, a height mismatch, an
  empty file, 13 wires (over the oracle's default limit) and a Bell pair.

Each file runs through `compare` and through `analyze` in 3 modes x text and
JSON x with and without --trace x with and without --check-oracle; the error
corpus also with `--check-oracle --max-oracle-qubits 1`. The build_ops
`main` inputs run without --trace, whose output would run to gigabytes.
Last come the command lines that end in argparse's own exits: no command,
an unknown option, `--mode bogus`, `--max-oracle-qubits 0`, a missing FILE
and `analyze --help`. COLUMNS is fixed, so the help text does not depend on
the terminal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench_run  # noqa: E402  (bench/run.py)

from qent.analyzer import AnalysisMode  # noqa: E402
from qent.circuit import CX, H, Seq, unparse  # noqa: E402
from qent.cli import main as cli_main  # noqa: E402

from helpers import pad_at, random_circuit  # noqa: E402

ERRORS = {
    "missing.qc": None,
    "not-utf8.qc": b"H ** I\noo CX \xff\n",
    "bom.qc": b"\xef\xbb\xbfH ** I oo CX\n",
    "unknown.qc": b"H ** Q oo CX\n",
    "star.qc": b"H * I\n",
    "paren.qc": b"(H ** I oo CX\n",
    "height.qc": b"H oo CX\n",
    "empty.qc": b"",
    "wide13.qc": unparse(Seq(pad_at(H, 0, 13), pad_at(CX, 0, 13))).encode(),
    "bell.qc": b"H ** I oo CX\n",
}

ARGPARSE_EXITS = [
    [],
    ["analyze", "bell.qc", "--bogus"],
    ["analyze", "bell.qc", "--mode", "bogus"],
    ["analyze", "bell.qc", "--max-oracle-qubits", "0"],
    ["analyze"],
    ["compare"],
    ["analyze", "--help"],
]


def command_lines(path: str, trace: bool = True, low_limit: bool = False) -> list[list[str]]:
    oracles = [[], ["--check-oracle"]] + ([["--check-oracle", "--max-oracle-qubits", "1"]]
                                          if low_limit else [])
    traces = [[], ["--trace"]] if trace else [[]]
    return [["compare", path]] + [
        ["analyze", path, "--mode", mode.value, "--format", fmt, *t, *o]
        for mode in AnalysisMode for fmt in ("text", "json") for t in traces for o in oracles]


def corpus() -> list[list[str]]:
    """Writes the corpus into the working directory; its command lines."""
    lines = []
    for workload in bench_run.WORKLOADS:
        for seed in range(1, 11):
            workdir = f"{workload}-{seed}"
            os.mkdir(workdir)
            ops = bench_run.build_ops(workload, seed, workdir)
            for path in sorted({op.case.path for op in ops}):
                lines += command_lines(path, trace=os.path.basename(path) != "main.qc")
    rng = random.Random(2024)
    for k in range(1000):
        path = f"random{k:03}.qc"
        Path(path).write_text(unparse(random_circuit(rng, rng.randint(1, 12), rng.randint(1, 14))),
                              encoding="utf-8")
        lines += command_lines(path)
    for path, data in ERRORS.items():
        if data is not None:
            Path(path).write_bytes(data)
        lines += command_lines(path, low_limit=True)
    return lines + ARGPARSE_EXITS


def main() -> int:
    os.environ["COLUMNS"] = "80"
    digest, codes = hashlib.sha256(), Counter()
    with tempfile.TemporaryDirectory() as workdir, contextlib.chdir(workdir):
        for line in corpus():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(line)
                except SystemExit as exc:  # argparse's exits, as bench/run.py's run_cli
                    code = exc.code if isinstance(exc.code, int) else 2
            codes[code] += 1
            digest.update(json.dumps([line, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    print(f"{sum(codes.values())} command lines; exit codes "
          + ", ".join(f"{code}: {count}" for code, count in sorted(codes.items())))
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
