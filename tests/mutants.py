"""Mutation audit of the transfer rules, too slow for the test suite.

    python tests/mutants.py [NUMBER ...]

MUTANTS lists single edits (file, old, new, expected) of the rules and the
analysis loop (with its loop over modes) in `analyzer`, the partition
operations in `domain` they call, and the checks in `circuit` that make a
Program valid by construction. For each
mutant (or only those NUMBERs, counted from 1), the checkout is copied to
a temporary directory, `old` is replaced by `new` there (the checkout
itself is never edited), and the tier-1 suite runs in the copy with -x.

Prints one row per mutant: its number and edit, the verdict, the first
failing test and the seconds taken. The verdict is `killed` (some test
failed), `survived` (all passed), or `not applicable` (`old` is not in the
file: the code it mutates is gone). `expected` is `killed`, or
`equivalent: <reason>` for a mutant that no test can kill because it
changes no behaviour; its reason is printed under the table. Exits 1 when a
mutant expected to be killed is not.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANALYZER = "src/qent/analyzer.py"
CIRCUIT = "src/qent/circuit.py"
DOMAIN = "src/qent/domain.py"

MUTANTS = [
    # _cx_at, case 1
    (ANALYZER, "if bc is _S or bt is _D:", "if bc is _S:", "killed"),
    (ANALYZER, "if bc is _S or bt is _D:", "if bt is _D:", "killed"),
    # _cx_at, entangling branch: leave a fresh pair unleveled; level any s
    # target in LEVELS; give NO_LEVELS the LEVELS update
    (ANALYZER, "(_join(lvl, control, target) if", "(False if", "killed"),
    (ANALYZER, "bc is _D and bt is _S", "bt is _S", "killed"),
    (ANALYZER, "if mode is AnalysisMode.LEVELS:", "if mode is not AnalysisMode.UNSAFE_LEVELING:",
     "killed"),
    # _cx_at, case 3
    (ANALYZER, "if target in lvl[control]:",
     "if mode is not AnalysisMode.NO_LEVELS and target in lvl[control]:",
     "equivalent: by I1 no level block holds both wires in NO_LEVELS"),
    (ANALYZER, "        _split(sep, target)\n        _split(lvl, target)\n",
     "        _split(lvl, target)\n", "killed"),
    (ANALYZER, "        _split(sep, target)\n        _split(lvl, target)\n",
     "        _split(sep, target)\n", "killed"),
    (ANALYZER, "b[target] = _S", "b[target] = _TOP", "killed"),
    # _cx_at, entangling branch
    (ANALYZER, "    changed = _join(sep, control, target)\n",
     "    changed = _join(sep, control, target) or bc is not _TOP or bt is not _TOP\n",
     "equivalent: by I2 a label case 4 turns top was a singleton's, so the join changes"),
    (ANALYZER, "    changed = _join(sep, control, target)", "    changed = False", "killed"),
    # ... in LEVELS: drop the target's de-level; de-level the control instead
    (ANALYZER, "else _split(lvl, target))", "else False)", "killed"),
    (ANALYZER, "else _split(lvl, target))", "else _split(lvl, control))", "killed"),
    # ... in UNSAFE_LEVELING: level a top target too
    (ANALYZER, "elif mode is AnalysisMode.UNSAFE_LEVELING and bt is _S:",
     "elif mode is AnalysisMode.UNSAFE_LEVELING:", "killed"),
    # _h: keep the level on H of top; leave d alone
    (ANALYZER, "        return _split(lvl, q)", "        return False", "killed"),
    (ANALYZER, "        labels[q] = _S\n", "        pass\n", "killed"),
    # _t: leave d alone; make s top too
    (ANALYZER, "    if labels[q] is _D:\n        labels[q] = _TOP",
     "    if False:\n        labels[q] = _TOP", "killed"),
    (ANALYZER, "    if labels[q] is _D:\n        labels[q] = _TOP",
     "    if labels[q] is not _TOP:\n        labels[q] = _TOP", "killed"),
    # domain._split
    (DOMAIN, "    if len(bi) == 1:\n", "    if len(bi) <= 2:\n", "killed"),
    # domain._swap: report a swap within a block or of two singletons
    (DOMAIN, "if j in bi or len(bi) == len(bj) == 1:", "if len(bi) == len(bj) == 1:", "killed"),
    (DOMAIN, "if j in bi or len(bi) == len(bj) == 1:", "if j in bi:", "killed"),
    # domain._swap_adjacent
    (DOMAIN, "(_swap(sep, i, j) | _swap(lvl, i, j))", "(_swap(sep, i, j) or _swap(lvl, i, j))",
     "killed"),
    (DOMAIN, "return (_swap(sep, i, j) | _swap(lvl, i, j)) or a is not b",
     "return _swap(sep, i, j) | _swap(lvl, i, j)", "killed"),
    (DOMAIN, "labels[i], labels[j] = b, a", "labels[i], labels[j] = a, b", "killed"),
    # _walk: snapshot after every traced gate, not only after a change
    (ANALYZER, "            if changed:\n", "            if True:\n", "killed"),
    # domain._join: report a join within one block as a change
    (DOMAIN, "        return False\n    block = bi | members[j]",
     "        return True\n    block = bi | members[j]", "killed"),
    # _walk: apply each rule to the first mode's working state only
    (ANALYZER, "for labels, sep, lvl, mode in work:", "for labels, sep, lvl, mode in work[:1]:",
     "killed"),
    # _cx_at: test the paper's case 2 before case 3, as the paper orders them
    (ANALYZER, "if target in lvl[control]:",
     "if target in lvl[control] and not (bc is _D and bt is _S):",
     "equivalent: by I2 a fresh pair shares no level block"),
    # _walk: take a kind the table lacks as a silent no-op again
    (ANALYZER, "rule = rules[kind]", "rule = rules.get(kind)",
     "equivalent: Program's constructor refuses a foreign kind, so none reaches the loop"),
    # Program: accept a kind that is not a GateKind
    (CIRCUIT, "            if type(kind) is not GateKind:\n"
              "                raise ValueError(f\"{kind!r} is not a valid GateKind\")\n", "",
     "killed"),
    # Program: check only a gate's base wire, not its last
    (CIRCUIT, "_check_wires(n, wire, wire + kind.height - 1)", "_check_wires(n, wire, wire)",
     "killed"),
    # _check_wires: accept a negative wire
    (CIRCUIT, "if not 0 <= index(wire) < n:", "if not index(wire) < n:", "killed"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def describe(old: str, new: str) -> str:
    """The lines the edit changes, without the context they share."""
    o, n = ([line.strip() for line in text.splitlines() if line.strip()] for text in (old, new))
    while o and n and o[0] == n[0]:
        o, n = o[1:], n[1:]
    while o and n and o[-1] == n[-1]:
        o, n = o[:-1], n[:-1]
    return f"{' / '.join(o)} -> {' / '.join(n) or '(deleted)'}"


def run(file: str, old: str, new: str) -> tuple[str, str]:
    """(verdict, first failing test) of one mutant, tested in a copy."""
    text = (ROOT / file).read_text(encoding="utf-8")
    if old not in text:
        return "not applicable", ""
    if text.count(old) > 1:
        raise ValueError(f"{file}: {old!r} occurs more than once")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        (copy / file).write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived", ""
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else f"exit {done.returncode}"


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    faults, reasons = 0, []
    for k in chosen:
        file, old, new, expected = MUTANTS[k - 1]
        start = time.perf_counter()
        verdict, test = run(file, old, new)
        elapsed = time.perf_counter() - start
        if expected == "killed":
            faults += verdict != "killed"
        else:
            reasons.append(f"{k}: {expected}")
        print(f"{k:>2} {Path(file).stem}: {describe(old, new):<72.72} {verdict:<14} "
              f"{test or '-':<72} {elapsed:5.1f}", flush=True)
    for reason in reasons:
        print(reason)
    print(f"{faults} mutant(s) expected killed and not killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
