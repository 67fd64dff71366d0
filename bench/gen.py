"""Seeded circuit generator for the benchmark.

A circuit is a grid: the wires are tiled into independent groups of at most
8 adjacent wires, and every column gives each wire of each group exactly
one gate. No gate crosses a group boundary, so each group's final state is
a factor of the whole state and can be simulated on its own.

The generator writes the circuit text itself, one parenthesised column per
line joined by `oo`, so parentheses are nested one deep and no subtree is
shared. It also keeps the gate list in analysis order (column by column,
wires ascending); its length, the gate-token count, is the unit of every
gates-per-second rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PAULIS = ("I", "X", "Y", "Z")
TWO_QUBIT = ("CX", "SW")

# Motifs on adjacent wires of one group: list of columns, each a list of
# (gate, offset from the motif's first wire). Between their steps the motif's
# wires carry only I/X/Y/Z, which keep its effect.
MOTIFS = {
    # compute-uncompute: entangles, then the second CX undoes it (net H)
    "cu": (3, [[("H", 0)], [("CX", 0)], [("CX", 0)]]),
    # open a Bell pair
    "bell": (2, [[("H", 0)], [("CX", 0)]]),
    # close a Bell pair opened on the same wires
    "unbell": (2, [[("CX", 0)], [("H", 0)]]),
    # three-wire GHZ ladder
    "ghz3": (1, [[("H", 0)], [("CX", 0)], [("CX", 1)]]),
    "swap": (2, [[("SW", 0)]]),
    # diagonal state pushed off the basis: label top without entanglement
    "phase": (1, [[("H", 0)], [("T", 0)]]),
}
_MOTIF_NAMES = sorted(MOTIFS)
_MOTIF_WEIGHTS = [MOTIFS[m][0] for m in _MOTIF_NAMES]


def _motif_span(steps) -> int:
    return 1 + max(off + (2 if gate in TWO_QUBIT else 1) - 1
                   for step in steps for gate, off in step)


@dataclass
class Group:
    """One group of adjacent wires; columns[c] lists (gate, offset) pairs
    covering offsets 0..width-1 exactly once, offsets ascending."""

    width: int
    columns: list[list[tuple[str, int]]]

    def gates(self) -> list[tuple[str, int]]:
        """The group's own gate list in analysis order, offsets local."""
        return [g for col in self.columns for g in col]


@dataclass
class Grid:
    """Groups stacked top to bottom; every group has the same column count."""

    groups: list[Group]

    @property
    def wires(self) -> int:
        return sum(g.width for g in self.groups)

    @property
    def ncols(self) -> int:
        return len(self.groups[0].columns)

    def bases(self) -> list[int]:
        out, base = [], 0
        for g in self.groups:
            out.append(base)
            base += g.width
        return out

    def gate_list(self) -> list[tuple[str, int]]:
        """(gate, wire) in analysis order: column by column, wires ascending."""
        out = []
        bases = self.bases()
        for c in range(self.ncols):
            for base, g in zip(bases, self.groups):
                out.extend((gate, base + off) for gate, off in g.columns[c])
        return out

    def text(self) -> str:
        lines = []
        for c in range(self.ncols):
            tokens = [gate for g in self.groups for gate, _ in g.columns[c]]
            lines.append("(" + " ** ".join(tokens) + ")")
        return "\n oo ".join(lines) + "\n"


def random_group(rng: random.Random, width: int, ncols: int, motif_rate: float,
                 noise_rate: float, motif_cols: int, tail_bell: bool) -> Group:
    """I/X/Y/Z filler with H/SW noise at noise_rate per free wire-column,
    motifs started at motif_rate in the last motif_cols columns, and
    optionally a Bell pair opened in the last two columns.

    Every entangle-disentangle pair leaves its control labeled top, and a
    top control makes the next CX join for good, so motifs over thousands
    of columns would collapse each group to one block. Keeping them to a
    final stretch keeps the results worth checking."""
    first_motif_col = ncols - motif_cols
    sched: dict[tuple[int, int], str] = {}
    reserved_until = [0] * width
    tail_off = rng.randrange(width - 1) if tail_bell and width >= 2 else -1
    columns = []
    for c in range(ncols):
        col: list[tuple[str, int]] = []
        off = 0
        while off < width:
            gate = sched.pop((c, off), None)
            if gate is not None:
                col.append((gate, off))
                off += 2 if gate in TWO_QUBIT else 1
                continue
            if reserved_until[off] > c:
                col.append((rng.choice(PAULIS), off))
                off += 1
                continue
            if off == tail_off and c == ncols - 2:
                steps = MOTIFS["bell"][1]
            elif c >= first_motif_col and rng.random() < motif_rate:
                steps = MOTIFS[rng.choices(_MOTIF_NAMES, _MOTIF_WEIGHTS)[0]][1]
            else:
                steps = None
            if steps is not None:
                span = _motif_span(steps)
                if off + span <= width and all(reserved_until[off + k] <= c for k in range(span)):
                    for k, step in enumerate(steps):
                        for g, o in step:
                            sched[(c + k, off + o)] = g
                    for k in range(span):
                        reserved_until[off + k] = c + len(steps)
                    continue
            if rng.random() < noise_rate:
                if off + 1 < width and reserved_until[off + 1] <= c and (c, off + 1) not in sched:
                    noise = rng.choice(("H", "SW"))
                else:
                    noise = "H"
                col.append((noise, off))
                off += 2 if noise == "SW" else 1
                continue
            col.append((rng.choice(PAULIS), off))
            off += 1
        columns.append(col)
    return Group(width, columns)


def group_widths(rng: random.Random, wires: int, lo: int, hi: int) -> list[int]:
    """Seeded widths in [lo, hi] summing to wires (the last may be smaller)."""
    widths = []
    left = wires
    while left > hi:
        w = rng.randint(lo, hi)
        widths.append(w)
        left -= w
    widths.append(left)
    return widths


def tiled_grid(seed: int, wires: int, ncols: int, motif_rate: float,
               noise_rate: float, motif_cols: int) -> Grid:
    """Groups of 4..8 wires (the last may be narrower); about a third of
    them end on an open Bell pair."""
    rng = random.Random(seed)
    groups = [random_group(rng, w, ncols, motif_rate, noise_rate, motif_cols, rng.random() < 1 / 3)
              for w in group_widths(rng, wires, 4, 8)]
    return Grid(groups)


# README's stale-level example (tests/helpers.py PITFALL_OPS) on 3 wires.
# CX with the control below its target is written SW; CX; SW.
PITFALL_COLUMNS = [
    [("H", 0)], [("CX", 0)],
    [("SW", 0)], [("CX", 0)], [("SW", 0)],
    [("H", 1)], [("CX", 1)], [("H", 0)], [("CX", 0)],
    [("SW", 1)], [("CX", 1)], [("SW", 1)],
]


def _fill(width: int, placed: list[tuple[str, int]], filler) -> list[tuple[str, int]]:
    """Complete one column: placed gates plus filler() on every other wire."""
    taken = {off: gate for gate, off in placed}
    col, off = [], 0
    while off < width:
        if off in taken:
            gate = taken[off]
            col.append((gate, off))
            off += 2 if gate in TWO_QUBIT else 1
        else:
            col.append((filler(), off))
            off += 1
    return col


def pitfall_group(rng: random.Random, ncols: int) -> Group:
    """The stale-level sequence at a seeded start column, I elsewhere."""
    start = rng.randrange(ncols - len(PITFALL_COLUMNS) + 1)
    columns = [_fill(3, [], lambda: "I") for _ in range(ncols)]
    for k, placed in enumerate(PITFALL_COLUMNS):
        columns[start + k] = _fill(3, placed, lambda: "I")
    return Group(3, columns)


def ghz_group(rng: random.Random, width: int, ncols: int) -> Group:
    """H and a CX ladder over all wires, then only X/Y/Z/T/I.

    By construction the final state is GHZ-like: one entangled block of
    all wires, every pair on the same level, no wire in a basis state."""
    columns = [_fill(width, [("H", 0)], lambda: "I")]
    columns += [_fill(width, [("CX", j)], lambda: "I") for j in range(width - 1)]
    tail = ("I", "X", "Y", "Z", "T")
    columns += [_fill(width, [], lambda: rng.choice(tail)) for _ in range(ncols - len(columns))]
    return Group(width, columns)


def oracle_circuit(seed: int, kind: str, wires: int, ncols: int) -> Grid:
    """An 8..12-wire circuit for exact checking.

    factors: groups of 2..4 wires with motifs and noise;
    ghz: one register-wide GHZ-like block;
    pitfall: the stale-level group among groups of 2..4 wires."""
    rng = random.Random(seed)
    if kind == "ghz":
        return Grid([ghz_group(rng, wires, ncols)])
    reserved = 3 if kind == "pitfall" else 0
    widths = group_widths(rng, wires - reserved, 2, 4)
    groups = [random_group(rng, w, ncols, 0.08, 0.04, ncols, rng.random() < 1 / 3) for w in widths]
    if kind == "pitfall":
        groups.insert(rng.randrange(len(groups) + 1), pitfall_group(rng, ncols))
    return Grid(groups)
