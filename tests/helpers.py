"""Shared test utilities: naive oracles, random circuit generation, and the
breadth-first search over reachable (analysis, exact) state pairs."""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque

import numpy as np

from qent.analyzer import AnalysisMode, apply_cx_at, apply_gate
from qent.circuit import I, Gate, GateKind, Seq, Tensor, iter_gates
from qent.domain import BasisLabel, Partition, init_state
from qent.oracle import _UNITARY, EPS, DenseState, _apply, _bipartition_matrix

SINGLE_QUBIT = [GateKind.I, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.T]
TWO_QUBIT = [GateKind.SW, GateKind.CX]
ALL_KINDS = SINGLE_QUBIT + TWO_QUBIT
T_FREE = (GateKind.I, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.CX, GateKind.SW)

RT2 = 1 / np.sqrt(2)

# Reference matrices, written out here apart from the oracle's own table.
# Wire 0 is the leftmost Kronecker factor, the most significant bit.
REF_1Q = {
    GateKind.I: np.array([[1, 0], [0, 1]]),
    GateKind.X: np.array([[0, 1], [1, 0]]),
    GateKind.Y: np.array([[0, -1j], [1j, 0]]),
    GateKind.Z: np.array([[1, 0], [0, -1]]),
    GateKind.H: np.array([[1, 1], [1, -1]]) * RT2,
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]]),
}
KET_BRA = {(a, b): np.outer(np.eye(2)[a], np.eye(2)[b]) for a in (0, 1) for b in (0, 1)}


def ref_op(n, factors):
    """The 2^n x 2^n Kronecker product of factors[q] over wires q, with the
    identity on the wires not named."""
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def ref_cx(n, control, target):
    """CX on any two distinct wires, control and target in either order."""
    return ref_op(n, {control: KET_BRA[0, 0]}) + ref_op(n, {control: KET_BRA[1, 1],
                                                            target: REF_1Q[GateKind.X]})


def ref_swap(n, i, j):
    # |x y> -> |y x>, as the sum of |a><b| (x) |b><a|
    return sum(ref_op(n, {i: KET_BRA[a, b], j: KET_BRA[b, a]}) for a, b in KET_BRA)


def ref_gate(n, kind, q):
    """The reference matrix of a gate of kind at base wire q, on wires q and
    q + 1 for CX and SW, as a circuit places it."""
    if kind is GateKind.CX:
        return ref_cx(n, q, q + 1)
    if kind is GateKind.SW:
        return ref_swap(n, q, q + 1)
    return ref_op(n, {q: REF_1Q[kind]})


def ref_apply(state, matrix):
    """The state with a reference matrix applied."""
    return DenseState(state.n, matrix @ state.amps)


class NaivePartition:
    """Set-of-frozensets partition, the independent oracle for Partition.

    Implemented directly from the set definitions of join (unite the two
    containing blocks) and split (move one element to a singleton), with
    no arrays or representatives involved.
    """

    def __init__(self, blocks):
        self.blocks = {frozenset(b) for b in blocks}

    @classmethod
    def singletons(cls, n):
        return cls({frozenset([i]) for i in range(n)})

    def _block_of(self, i):
        for block in self.blocks:
            if i in block:
                return block
        raise KeyError(i)

    def join(self, i, j):
        bi, bj = self._block_of(i), self._block_of(j)
        blocks = (self.blocks - {bi, bj}) | {bi | bj}
        return NaivePartition(blocks)

    def split(self, i):
        bi = self._block_of(i)
        blocks = self.blocks - {bi}
        rest = bi - {i}
        if rest:
            blocks.add(frozenset(rest))
        blocks.add(frozenset([i]))
        return NaivePartition(blocks)

    def swapped(self, i, j):
        sigma = {i: j, j: i}
        return NaivePartition({frozenset(sigma.get(q, q) for q in b) for b in self.blocks})

    def same_block(self, i, j):
        return j in self._block_of(i)

    def as_sorted_blocks(self):
        return sorted((sorted(b) for b in self.blocks), key=lambda b: b[0])

    def to_partition(self, n):
        return Partition.from_blocks(self.blocks, n)


def validate_partition(p):
    """Raise unless p's members form a partition: rebuilding it from its
    blocks must give the same members. Compares members, not partitions,
    so that no Partition.__eq__ runs."""
    assert Partition.from_blocks(p.blocks(), len(p.members)).members == p.members


def reference_cx(labels, sep, lvl, control, target, mode):
    """CX on any two distinct wires by apply_cx_at's four cases, tried in the
    paper's order, over label strings ("s", "d", "top") and NaivePartition:
    relabels labels in place and returns the new (sep, lvl). A reference that
    shares no code with the analyzer's CX rule."""
    bc, bt = labels[control], labels[target]
    if bc == "s" or bt == "d":
        return sep, lvl
    levels = mode is not AnalysisMode.NO_LEVELS
    if bc == "d" and bt == "s":
        labels[control] = labels[target] = "top"
        return sep.join(control, target), lvl.join(control, target) if levels else lvl
    if levels and lvl.same_block(control, target):
        labels[target] = "s"
        return sep.split(target), lvl.split(target)
    labels[control] = labels[target] = "top"
    if mode is AnalysisMode.LEVELS:
        lvl = lvl.split(target)
    elif mode is AnalysisMode.UNSAFE_LEVELING and bt == "s":
        lvl = lvl.join(control, target)
    return sep.join(control, target), lvl


def reference_rows(circuit, mode):
    """The row (labels, separability blocks, level blocks) after each gate of
    circuit, by the transfer rules the analyzer's module docstring and
    apply_cx_at state, applied to label strings and NaivePartition; a
    reference for analyze and analyze_traced that shares none of their
    update code. A gate that leaves the state's value unchanged gets the
    previous row object itself, so a step that changed nothing can be told
    apart by identity."""
    n = circuit.height
    levels = mode is not AnalysisMode.NO_LEVELS
    labels = ["s"] * n
    sep = lvl = NaivePartition.singletons(n)
    row = (list(labels), sep.as_sorted_blocks(), lvl.as_sorted_blocks())
    rows = []
    for gate, q in iter_gates(circuit):
        old = (list(labels), sep.blocks, lvl.blocks)
        kind = gate.kind
        if kind is GateKind.H:
            if labels[q] != "top":
                labels[q] = "d" if labels[q] == "s" else "s"
            elif levels:
                lvl = lvl.split(q)
        elif kind is GateKind.T:
            if labels[q] == "d":
                labels[q] = "top"
        elif kind is GateKind.SW:
            labels[q], labels[q + 1] = labels[q + 1], labels[q]
            sep, lvl = sep.swapped(q, q + 1), lvl.swapped(q, q + 1)
        elif kind is GateKind.CX:
            sep, lvl = reference_cx(labels, sep, lvl, q, q + 1, mode)
        if (labels, sep.blocks, lvl.blocks) != old:
            row = (list(labels), sep.as_sorted_blocks(), lvl.as_sorted_blocks())
        rows.append(row)
    return rows


def forbid(monkeypatch, owner, *names):
    """Make each named attribute of owner raise when called."""
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for name in names:
        monkeypatch.setattr(owner, name, refuse)


def scan_finest_partition(state):
    """Reference for finest_separable_partition: rank-1 test every one of
    the 2^(n-1) - 1 bipartitions (sv[1] < EPS) and return the common
    refinement of the factorizable ones, blocks by least member."""
    n = state.n
    if n <= 1:
        return [[q] for q in range(n)]
    signatures = [[] for _ in range(n)]
    for mask in range(2 ** (n - 1) - 1):
        # enumerate each unordered proper bipartition once: qubit 0 stays
        # on one side, and the all-ones mask (subset = everything) is skipped
        subset = tuple(q for q in range(n) if q == 0 or (mask >> (q - 1)) & 1)
        sv = np.linalg.svd(_bipartition_matrix(state, subset), compute_uv=False)
        if sv[1] < EPS:
            for q in range(n):
                signatures[q].append(q in subset)
    by_sig: dict[tuple, list[int]] = {}
    for q in range(n):
        by_sig.setdefault(tuple(signatures[q]), []).append(q)
    return sorted(by_sig.values(), key=lambda block: block[0])


def random_column(rng: random.Random, n: int, kinds=ALL_KINDS):
    """One circuit column spanning exactly n wires."""
    node = None
    width = 0
    while width < n:
        pool = kinds if n - width >= 2 else [k for k in kinds if k.height == 1]
        kind = rng.choice(pool)
        gate = Gate(kind)
        node = gate if node is None else Tensor(node, gate)
        width += kind.height
    return node


def random_circuit(rng: random.Random, n: int, columns: int, kinds=ALL_KINDS):
    """Random well-formed circuit: `columns` columns over n wires."""
    node = random_column(rng, n, kinds)
    for _ in range(columns - 1):
        node = Seq(node, random_column(rng, n, kinds))
    return node


def pad_at(gate: Gate, offset: int, n: int):
    """gate embedded at `offset` in an n-wire identity column."""
    parts = [I] * offset + [gate] + [I] * (n - offset - gate.height)
    return functools.reduce(Tensor, parts)


def pad_pair(a: Gate, a_off: int, b: Gate, b_off: int, n: int):
    """Two gates embedded side by side in one n-wire column."""
    parts = ([I] * a_off + [a] + [I] * (b_off - a_off - a.height)
             + [b] + [I] * (n - b_off - b.height))
    return functools.reduce(Tensor, parts)


# Worked example showing how the flawed leveling rule goes wrong: three
# qubits p, q, z at indices 0, 1, 2, with CX steps given as (control,
# target) wire pairs in either orientation. Step 5 (cx on q, z with a top
# control) is where the flawed rule wrongly marks q and z as leveled; the
# final cx then "cashes in" the bogus level and splits an entangled qubit.
PITFALL_OPS = [
    ("H", 0),
    ("CX", (0, 1)),
    ("CX", (1, 0)),
    ("H", 1),
    ("CX", (1, 2)),
    ("H", 0),
    ("CX", (0, 1)),
    ("CX", (2, 1)),
]

# After each step: (labels, separability blocks, level blocks), for the
# flawed leveling rule. Row 0 is the initial state.
PITFALL_UNSAFE_ROWS = [
    (["s", "s", "s"], [[0], [1], [2]], [[0], [1], [2]]),
    (["d", "s", "s"], [[0], [1], [2]], [[0], [1], [2]]),
    (["top", "top", "s"], [[0, 1], [2]], [[0, 1], [2]]),
    (["s", "top", "s"], [[0], [1], [2]], [[0], [1], [2]]),
    (["s", "top", "s"], [[0], [1], [2]], [[0], [1], [2]]),
    (["s", "top", "top"], [[0], [1, 2]], [[0], [1, 2]]),
    (["d", "top", "top"], [[0], [1, 2]], [[0], [1, 2]]),
    (["top", "top", "top"], [[0, 1, 2]], [[0], [1, 2]]),
    (["top", "s", "top"], [[0, 2], [1]], [[0], [1], [2]]),
]

# Same sequence under the corrected rules: identical through step 4, no
# level join at step 5, fully joined separability at the end.
PITFALL_LEVELS_ROWS = [
    (["s", "s", "s"], [[0], [1], [2]], [[0], [1], [2]]),
    (["d", "s", "s"], [[0], [1], [2]], [[0], [1], [2]]),
    (["top", "top", "s"], [[0, 1], [2]], [[0, 1], [2]]),
    (["s", "top", "s"], [[0], [1], [2]], [[0], [1], [2]]),
    (["s", "top", "s"], [[0], [1], [2]], [[0], [1], [2]]),
    (["s", "top", "top"], [[0], [1, 2]], [[0], [1], [2]]),
    (["d", "top", "top"], [[0], [1, 2]], [[0], [1], [2]]),
    (["top", "top", "top"], [[0, 1, 2]], [[0], [1], [2]]),
    (["top", "top", "top"], [[0, 1, 2]], [[0], [1], [2]]),
]


def state_row(st):
    return ([label.value for label in st.labels], st.sep.blocks(), st.lvl.blocks())


def run_pitfall_trace(mode, collect=True):
    """Apply the 8-step pitfall sequence via apply_gate/apply_cx_at; return rows."""
    st = init_state(3)
    rows = [state_row(st)]
    for op, arg in PITFALL_OPS:
        if op == "H":
            apply_gate(st, GateKind.H, arg, mode)
        else:
            apply_cx_at(st, arg[0], arg[1], mode)
        if collect:
            rows.append(state_row(st))
    return st, rows


def _phase_fixed(state):
    """The amplitudes with the first nonzero one turned onto the positive
    real axis, and which of them are nonzero."""
    live = np.abs(state.amps) > EPS
    first = state.amps[np.flatnonzero(live)[0]]
    return state.amps * (abs(first) / first), live


def exact_key(state):
    """The state up to global phase, exactly, for T-free states only. Once
    the first nonzero amplitude is on the positive real axis, each amplitude
    is 0 or i^p * 2^(-k/2); the key holds (k, p) for each, and -1 for a 0.
    Asserts that every amplitude lies within 1e-12 of the value it is keyed
    by, so a state of another form fails rather than merging."""
    amps, live = _phase_fixed(state)
    ks = np.rint(-2 * np.log2(np.maximum(np.abs(amps), EPS))).astype(int)
    ps = np.rint(np.angle(amps) / (np.pi / 2)).astype(int) % 4
    exact = np.where(live, np.array([1, 1j, -1, -1j])[ps] * 2.0 ** (-ks / 2), 0)
    assert np.abs(amps - exact).max() < 1e-12, f"amplitudes not of the T-free form: {amps}"
    return tuple((k, p) if on else -1 for k, p, on in zip(ks.tolist(), ps.tolist(), live.tolist()))


def rounded_key(state):
    """The state up to global phase, with its amplitudes rounded to 9
    decimals; adding 0.0 makes -0.0 equal 0.0. For states with T, whose
    amplitudes are not of exact_key's form."""
    amps, _ = _phase_fixed(state)
    return (np.round(amps, 9) + 0.0).tobytes()


def concrete_step(state, kind, q):
    """The exact state after one gate of kind at base wire q (wires q, q + 1
    for CX and SW), through the oracle's gate table and its one kernel."""
    return DenseState(state.n, _apply(state.amps, _UNITARY[kind], q))


def reachable_pairs(n, mode, key, kinds=T_FREE, depth=None):
    """Breadth-first search from |0...0> over pairs of analysis state and exact
    state, moved by every gate of kinds at every wire, at most depth gates
    deep; yields each pair once, as it is first reached. Exact states are
    told apart by key (exact_key or rounded_key). The T-free gates generate
    a finite group, so over them the search ends unbounded."""
    seen = set()
    queue = deque([(init_state(n), DenseState.zero(n), 0)])
    while queue:
        st, state, steps = queue.popleft()
        seen_key = (tuple(st.labels), st.sep, st.lvl, key(state))
        if seen_key in seen:
            continue
        seen.add(seen_key)
        yield st, state
        if steps == depth:
            continue
        for kind in kinds:
            for q in range(n - kind.height + 1):
                queue.append((apply_gate(st.copy(), kind, q, mode),
                              concrete_step(state, kind, q), steps + 1))


def set_partitions(items):
    """Every set partition of the sequence items, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield [[first], *blocks]
        for k in range(len(blocks)):
            yield [*blocks[:k], [first, *blocks[k]], *blocks[k + 1:]]


def holds_invariants(labels, sep, lvl, mode):
    """The analyzer docstring's invariants for mode, over member sequences:
    I2 (an s or d qubit is alone in both partitions) in every mode; I1
    (levels all singletons) in NO_LEVELS; in LEVELS, each level block is one
    qubit or a pair inside one separability block."""
    if not all(label is BasisLabel.TOP or len(sep[q]) == len(lvl[q]) == 1
               for q, label in enumerate(labels)):
        return False
    if mode is AnalysisMode.NO_LEVELS:
        return all(len(block) == 1 for block in lvl)
    if mode is AnalysisMode.LEVELS:
        return all(len(block) == 1 or (len(block) == 2 and block <= sep[q])
                   for q, block in enumerate(lvl))
    return True


def invariant_states(n, mode):
    """Every state (labels, sep members, lvl members) on n wires that
    satisfies holds_invariants for mode, each once. By I2 only the `top`
    qubits share blocks, so both partitions range over those of the tops."""
    for labels in itertools.product(list(BasisLabel), repeat=n):
        tops = [q for q, label in enumerate(labels) if label is BasisLabel.TOP]
        rest = [[q] for q, label in enumerate(labels) if label is not BasisLabel.TOP]
        partitions = [Partition.from_blocks(blocks + rest, n).members
                      for blocks in set_partitions(tops)]
        for sep in partitions:
            for lvl in partitions:
                if holds_invariants(labels, sep, lvl, mode):
                    yield list(labels), sep, lvl
