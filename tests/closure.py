"""Soundness by state-space closure, at sizes too slow for the test suite.

    PYTHONPATH=src python tests/closure.py WIDTH MODE [--depth D] [--t]

Runs the breadth-first search of `helpers.reachable_pairs` from |0...0> on
WIDTH wires in MODE (levels, no-levels or unsafe-leveling) and checks every
reachable (analysis, exact) pair against the oracle. Without --t the gates
are the T-free ones, which generate a finite group: the search closes, so
it covers every T-free circuit of any length at that width, and exact
states are keyed exactly (`exact_key`). With --t the gates include T, the
states are dense, --depth is required, and exact states are keyed rounded
to 9 decimals (`rounded_key`). --depth bounds either search.

Prints the pairs reached, the distinct exact states, the unsound pairs and
the time taken. Exits 1 when levels or no-levels reaches an unsound pair;
unsafe-leveling is expected to, so its count is only reported.
"""

from __future__ import annotations

import argparse
import sys
import time

from qent.analyzer import AnalysisMode
from qent.oracle import check_soundness

from helpers import ALL_KINDS, T_FREE, exact_key, reachable_pairs, rounded_key


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("width", type=int)
    parser.add_argument("mode", choices=[m.value for m in AnalysisMode])
    parser.add_argument("--depth", type=int, help="deepest circuit searched (default: none)")
    parser.add_argument("--t", action="store_true", help="include T gates; needs --depth")
    args = parser.parse_args(argv)
    if args.t and args.depth is None:
        parser.error("--t needs --depth: with T the search does not close")
    mode = AnalysisMode(args.mode)
    kinds, key = (ALL_KINDS, rounded_key) if args.t else (T_FREE, exact_key)

    start = time.perf_counter()
    pairs = unsound = 0
    concrete = set()
    for st, state in reachable_pairs(args.width, mode, key, kinds, args.depth):
        pairs += 1
        concrete.add(key(state))
        unsound += not check_soundness(st, state).ok
    elapsed = time.perf_counter() - start
    print(f"width {args.width}, mode {mode.value}, "
          f"{'all gates' if args.t else 'T-free'}, depth {args.depth or 'unbounded'}: "
          f"{pairs} pairs, {len(concrete)} concrete states, {unsound} unsound, {elapsed:.1f} s")
    return 1 if unsound and mode is not AnalysisMode.UNSAFE_LEVELING else 0


if __name__ == "__main__":
    sys.exit(main())
