"""Ground truth computed apart from qent: a small statevector simulator,
the exact finest separable partition, genuine level pairs and basis
classes, and the checks of an analysis result against them.

States are numpy arrays of shape (2,) * width with axis k for wire k.
Everything here runs on one group of at most 12 wires.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

EPS = 1e-9
_R = 1 / np.sqrt(2.0)
_PHASE_T = np.exp(1j * np.pi / 4)


def simulate(width: int, gates) -> np.ndarray:
    """Run (gate, wire) pairs on |0...0>, updating amplitude slices in place."""
    psi = np.zeros((2,) * width, dtype=complex)
    psi[(0,) * width] = 1.0
    pre = [(slice(None),) * q for q in range(width)]
    for gate, q in gates:
        if gate == "I":
            continue
        if gate == "SW":
            psi = np.ascontiguousarray(psi.swapaxes(q, q + 1))
            continue
        if gate == "CX":
            i10, i11 = pre[q] + (1, 0), pre[q] + (1, 1)
            a = psi[i10].copy()
            psi[i10] = psi[i11]
            psi[i11] = a
            continue
        i0, i1 = pre[q] + (0,), pre[q] + (1,)
        if gate == "X":
            a = psi[i0].copy()
            psi[i0] = psi[i1]
            psi[i1] = a
        elif gate == "Z":
            psi[i1] *= -1
        elif gate == "Y":
            a = psi[i0].copy()
            psi[i0] = -1j * psi[i1]
            psi[i1] = 1j * a
        elif gate == "T":
            psi[i1] *= _PHASE_T
        elif gate == "H":
            a, b = psi[i0].copy(), psi[i1].copy()
            psi[i0] = (a + b) * _R
            psi[i1] = (a - b) * _R
        else:
            raise ValueError(f"unknown gate {gate}")
    return psi


def _rank_one(psi: np.ndarray, subset: tuple[int, ...]) -> bool:
    rest = tuple(q for q in range(psi.ndim) if q not in subset)
    m = np.transpose(psi, subset + rest).reshape(2 ** len(subset), -1)
    return np.linalg.svd(m, compute_uv=False)[1] < EPS


def finest_blocks(psi: np.ndarray) -> list[list[int]]:
    """Atoms of the subsets the state factorizes across: every proper
    bipartition (wire 0 kept on one side) is tested for Schmidt rank 1."""
    n = psi.ndim
    if n == 1:
        return [[0]]
    sides = [[] for _ in range(n)]
    for mask in range(1, 2 ** (n - 1)):
        subset = (0,) + tuple(q for q in range(1, n) if not (mask >> (q - 1)) & 1)
        if _rank_one(psi, subset):
            for q in range(n):
                sides[q].append(q in subset)
    atoms: dict[tuple, list[int]] = {}
    for q in range(n):
        atoms.setdefault(tuple(sides[q]), []).append(q)
    return sorted(atoms.values())


def level_pairs(psi: np.ndarray) -> set[tuple[int, int]]:
    """Pairs of superposed wires whose bits agree, or differ, on every
    basis state in the support."""
    n = psi.ndim
    support = np.argwhere(np.abs(psi) > EPS)  # rows of bits
    superposed = [len(set(support[:, q])) == 2 for q in range(n)]
    pairs = set()
    for i, j in combinations(range(n), 2):
        if superposed[i] and superposed[j] and len(set(support[:, i] == support[:, j])) == 1:
            pairs.add((i, j))
    return pairs


def basis_class(psi: np.ndarray, q: int) -> str:
    """'s' if wire q is an isolated |0>/|1>, 'd' if |+>/|->, else 'top'.

    Reads the wire's reduced density matrix: a pure factor has purity 1;
    then off-diagonal 0 means standard, off-diagonal +-1/2 means diagonal."""
    m = np.moveaxis(psi, q, 0).reshape(2, -1)
    rho = m @ m.conj().T
    if abs(1 - np.trace(rho @ rho).real) > 1e-7:
        return "top"
    if abs(rho[0, 1]) < 1e-7:
        return "s"
    if abs(rho[0, 1].imag) < 1e-7 and abs(abs(rho[0, 1].real) - 0.5) < 1e-7:
        return "d"
    return "top"


@dataclass
class GroupTruth:
    """Exact facts about one group's final state, wires numbered globally."""

    base: int
    width: int
    blocks: list[list[int]]
    levels: set[tuple[int, int]]
    basis: list[str]


def group_truth(base: int, width: int, gates) -> GroupTruth:
    psi = simulate(width, gates)
    return GroupTruth(
        base, width,
        [[base + q for q in b] for b in finest_blocks(psi)],
        {(base + i, base + j) for i, j in level_pairs(psi)},
        [basis_class(psi, q) for q in range(width)],
    )


def ghz_truth(width: int) -> GroupTruth:
    """Facts known from the GHZ construction (see gen.ghz_group)."""
    return GroupTruth(0, width, [list(range(width))],
                      set(combinations(range(width), 2)), ["top"] * width)


def grid_truth(grid) -> list[GroupTruth]:
    """Simulate each group of a gen.Grid on its own."""
    return [group_truth(base, g.width, g.gates())
            for base, g in zip(grid.bases(), grid.groups)]


def violations(labels: list[str], sep: list[list[int]], lvl: list[list[int]],
               truths: list[GroupTruth]) -> set[tuple]:
    """Breaches of the three README guarantees, as (kind, subject) pairs.

    entanglement: an exactly entangled pair the result separates;
    level: a pair in one level block that is not a genuine level pair;
    label: an s/d wire that is not in that basis."""
    rep = {q: b[0] for b in sep for q in b}
    true_levels = set().union(*(t.levels for t in truths))
    basis = [c for t in truths for c in t.basis]
    out = set()
    for t in truths:
        for block in t.blocks:
            for i, j in combinations(block, 2):
                if rep[i] != rep[j]:
                    out.add(("entanglement", (i, j)))
    for block in lvl:
        for i, j in combinations(block, 2):
            if (i, j) not in true_levels:
                out.add(("level", (i, j)))
    for q, label in enumerate(labels):
        if label in ("s", "d") and basis[q] != label:
            out.add(("label", q))
    return out


def crosses_groups(blocks: list[list[int]], truths: list[GroupTruth]) -> bool:
    """True if any block holds wires of two different groups."""
    group_of = {}
    for k, t in enumerate(truths):
        for q in range(t.base, t.base + t.width):
            group_of[q] = k
    return any(len({group_of[q] for q in b}) > 1 for b in blocks)
