"""Fresh-process A/B of one `qent` command line between two source trees.

    python tests/process_ab.py [--rounds N] BEFORE AFTER -- ARGV...

BEFORE and AFTER are checkouts (or their `src` directories). Each round
starts one fresh interpreter per tree, in alternating order. The child puts
its tree first on sys.path and times the import of `qent.cli` plus one
`qent.cli.main(ARGV)`, with stdout sent to the null device; the
interpreter's own start is not timed. Both trees must exit with the same
code.

Both sides read compiled bytecode, each from its own cache. Every child runs
with PYTHONDONTWRITEBYTECODE unset and PYTHONPYCACHEPREFIX set to a private
temporary directory per tree, so that the one untimed run per tree that
comes first compiles `qent` (and the standard library modules it imports)
into that cache, every timed run reads it, and a `__pycache__` directory
left in either tree is never read.

Prints each side's median and quartiles in milliseconds, how many rounds
each side was faster, and the ratio of the medians (BEFORE / AFTER, above
1 when AFTER is faster). An in-process benchmark calls `main` many times in
one interpreter; this is what a real `qent` invocation sees.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qent.cli
code = qent.cli.main(sys.argv[2:])
sys.stdout.flush()
sys.stderr.write(f"\\n{time.perf_counter() - t0!r} {code}\\n")
"""


def source_dir(tree: str) -> str:
    path = Path(tree).resolve()
    for src in (path / "src", path):
        if (src / "qent" / "__init__.py").is_file():
            return str(src)
    raise SystemExit(f"error: no qent sources under {tree}")


def child_env(cache: str) -> dict[str, str]:
    """The environment of a child that writes and reads bytecode in cache."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = cache
    return env


def run_once(src: str, argv: list[str], env: dict[str, str]) -> tuple[float, int]:
    """(seconds, exit code) of one fresh child."""
    done = subprocess.run([sys.executable, "-c", CHILD, src, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=600, env=env)
    seconds, code = done.stderr.splitlines()[-1].split()
    return float(seconds), int(code)


def quartiles(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"median {q2 * 1e3:.1f} ms (quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=16)
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then a qent command line")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv or args.rounds < 2:
        parser.error("give a qent command line after -- and at least 2 rounds")
    sides = {"before": source_dir(args.before), "after": source_dir(args.after)}
    with tempfile.TemporaryDirectory() as caches:
        envs = {name: child_env(os.path.join(caches, name)) for name in sides}
        codes = {name: run_once(src, argv, envs[name])[1] for name, src in sides.items()}
        if codes["before"] != codes["after"]:
            raise SystemExit(f"error: the trees exit differently: {codes}")

        times: dict[str, list[float]] = {name: [] for name in sides}
        for k in range(args.rounds):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            for name in order:
                times[name].append(run_once(sides[name], argv, envs[name])[0])
    wins = sum(b > a for b, a in zip(times["before"], times["after"]))
    print(f"qent {' '.join(argv)}: {args.rounds} rounds, exit code {codes['after']}")
    for name, src in sides.items():
        print(f"{name:<6} {quartiles(times[name])}  {src}")
    ratio = statistics.median(times["before"]) / statistics.median(times["after"])
    print(f"after faster in {wins} of {args.rounds} rounds; median ratio before/after {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
