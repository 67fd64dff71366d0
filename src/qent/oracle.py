"""Exact statevector simulator and concrete-semantics checkers.

Ground truth for differential testing of the static analysis. States are
dense complex vectors of length 2^n with qubit 0 as the most significant
bit of the basis index, matching left-to-right ket notation. Everything
here is exponential in n and guarded by a qubit limit (default 12, which
keeps the all-bipartitions separability scan around a second).

Checks provided:

* finest_separable_partition: the unique most-refined grouping of qubits
  across which the state factorizes, found by rank-1 testing every
  bipartition and intersecting the factorizable ones.
* levels_oracle: pairs of superposed qubits whose bit values agree (or
  disagree) across every nonzero amplitude; measuring one collapses the
  other.
* basis_oracle: whether a single qubit factors out as |0>/|1>, as
  |+>/|->, or neither.
* check_soundness: compares an analysis result against all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from .circuit import CircuitAst, GateKind, iter_gates, validate
from .domain import AbstractState, BasisLabel

DEFAULT_EPS = 1e-9
DEFAULT_QUBIT_LIMIT = 12

_SQRT2 = np.sqrt(2.0)
_GATE_1Q = {
    GateKind.I: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}


class QubitLimitError(ValueError):
    """Raised when an exact check is asked for more qubits than the limit."""


@dataclass
class DenseState:
    """Normalized amplitude vector over n qubits."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.amps.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} amplitudes, got {self.amps.shape}")
        norm = np.linalg.norm(self.amps)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state is not normalized (norm {norm})")

    @classmethod
    def zero(cls, n: int) -> DenseState:
        amps = np.zeros(2 ** n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps)

    @classmethod
    def from_amplitudes(cls, amps, normalize: bool = False) -> DenseState:
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        n = int(round(np.log2(len(amps))))
        if 2 ** n != len(amps):
            raise ValueError(f"amplitude count {len(amps)} is not a power of two")
        if normalize:
            amps = amps / np.linalg.norm(amps)
        return cls(n, amps)

    def bit(self, qubit: int, basis_index: int) -> int:
        return (basis_index >> (self.n - 1 - qubit)) & 1

    def tensor(self, other: DenseState) -> DenseState:
        return DenseState(self.n + other.n, np.kron(self.amps, other.amps))


def apply_single(state: DenseState, kind: GateKind, q: int) -> DenseState:
    """Apply a single-qubit unitary at wire q."""
    u = _GATE_1Q[kind]
    psi = state.amps.reshape([2] * state.n)
    psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [q])), 0, q)
    return DenseState(state.n, psi.reshape(-1))


def apply_cx(state: DenseState, control: int, target: int) -> DenseState:
    """Apply CX with arbitrary control/target wires."""
    if control == target:
        raise ValueError("cx control and target must differ")
    psi = state.amps.reshape([2] * state.n)
    out = psi.copy()

    def sl(cv, tv):
        ix = [slice(None)] * state.n
        ix[control], ix[target] = cv, tv
        return tuple(ix)

    out[sl(1, 0)] = psi[sl(1, 1)]
    out[sl(1, 1)] = psi[sl(1, 0)]
    return DenseState(state.n, out.reshape(-1))


def apply_swap(state: DenseState, i: int, j: int) -> DenseState:
    psi = state.amps.reshape([2] * state.n)
    return DenseState(state.n, np.swapaxes(psi, i, j).reshape(-1))


def simulate(circuit: CircuitAst, max_qubits: int = DEFAULT_QUBIT_LIMIT) -> DenseState:
    """Run the circuit on |00...0>, applying gates in analysis order."""
    n = validate(circuit)
    if n > max_qubits:
        raise QubitLimitError(f"{n} qubits exceeds the simulation limit of {max_qubits}")
    state = DenseState.zero(n)
    for gate, q in iter_gates(circuit):
        kind = gate.kind
        if kind is GateKind.CX:
            state = apply_cx(state, q, q + 1)
        elif kind is GateKind.SW:
            state = apply_swap(state, q, q + 1)
        else:
            state = apply_single(state, kind, q)
    return state


def _bipartition_matrix(state: DenseState, subset: tuple[int, ...]) -> np.ndarray:
    rest = tuple(q for q in range(state.n) if q not in subset)
    psi = state.amps.reshape([2] * state.n)
    psi = np.transpose(psi, subset + rest)
    return psi.reshape(2 ** len(subset), 2 ** len(rest))


def _factorizes(state: DenseState, subset: tuple[int, ...], eps: float) -> bool:
    # rank-1 test: second-largest singular value below eps
    sv = np.linalg.svd(_bipartition_matrix(state, subset), compute_uv=False)
    return sv[1] < eps


def finest_separable_partition(state: DenseState, eps: float = DEFAULT_EPS,
                               max_qubits: int = DEFAULT_QUBIT_LIMIT) -> list[list[int]]:
    """Most-refined partition of qubits across which the state factorizes.

    Tests all 2^(n-1) - 1 bipartitions and returns the common refinement
    of the factorizable ones; invariant under global phase.
    """
    n = state.n
    if n > max_qubits:
        raise QubitLimitError(f"{n} qubits exceeds the oracle limit of {max_qubits}")
    if n <= 1:
        return [[q] for q in range(n)]
    signatures = [[] for _ in range(n)]
    for mask in range(2 ** (n - 1) - 1):
        # enumerate each unordered proper bipartition once: qubit 0 stays
        # on one side, and the all-ones mask (subset = everything) is skipped
        subset = tuple(q for q in range(n) if q == 0 or (mask >> (q - 1)) & 1)
        if _factorizes(state, subset, eps):
            for q in range(n):
                signatures[q].append(q in subset)
    by_sig: dict[tuple, list[int]] = {}
    for q in range(n):
        by_sig.setdefault(tuple(signatures[q]), []).append(q)
    return sorted(by_sig.values(), key=lambda block: block[0])


def substate_table(state: DenseState, eps: float = DEFAULT_EPS) -> list[tuple[str, complex]]:
    """Nonzero computational-basis terms as (bitstring, amplitude) rows."""
    return [(format(k, f"0{state.n}b"), amp)
            for k, amp in enumerate(state.amps) if abs(amp) > eps]


def levels_oracle(state: DenseState, eps: float = DEFAULT_EPS,
                  max_qubits: int = DEFAULT_QUBIT_LIMIT) -> set[tuple[int, int]]:
    """Pairs (i, j), i < j, of qubits that are genuinely on the same level.

    Both qubits must be in superposition and their bit values must agree
    in every substate or differ in every substate. The relation is
    transitive, as agreement composes; the tests check that it is.
    """
    n = state.n
    if n > max_qubits:
        raise QubitLimitError(f"{n} qubits exceeds the oracle limit of {max_qubits}")
    rows = [bits for bits, _ in substate_table(state, eps)]
    superposed = [len({row[q] for row in rows}) == 2 for q in range(n)]
    pairs = set()
    for i, j in combinations(range(n), 2):
        if not (superposed[i] and superposed[j]):
            continue
        agreement = {row[i] == row[j] for row in rows}
        if len(agreement) == 1:
            pairs.add((i, j))
    return pairs


class ConcreteBasis(Enum):
    STANDARD = "standard"
    DIAGONAL = "diagonal"
    NEITHER = "neither"


def basis_oracle(state: DenseState, qubit: int, eps: float = DEFAULT_EPS,
                 max_qubits: int = DEFAULT_QUBIT_LIMIT) -> ConcreteBasis:
    """Classify a qubit's basis; entangled qubits are NEITHER."""
    n = state.n
    if n > max_qubits:
        raise QubitLimitError(f"{n} qubits exceeds the oracle limit of {max_qubits}")
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} out of range for n={n}")
    if n == 1:
        vec = state.amps
    else:
        m = _bipartition_matrix(state, (qubit,))
        # reduced SVD: the 2^(n-1) x 2^(n-1) right factor is never read
        u, sv, _ = np.linalg.svd(m, full_matrices=False)
        if sv[1] >= eps:
            return ConcreteBasis.NEITHER
        vec = u[:, 0]
    if max(abs(vec[0]), abs(vec[1])) > 1 - eps:
        return ConcreteBasis.STANDARD
    if max(abs(vec[0] + vec[1]), abs(vec[0] - vec[1])) / _SQRT2 > 1 - eps:
        return ConcreteBasis.DIAGONAL
    return ConcreteBasis.NEITHER


@dataclass
class SoundnessReport:
    """Outcome of checking an analysis result against the exact state."""

    entanglement_ok: bool
    level_ok: bool
    label_ok: bool
    violations: list[tuple[str, object, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.entanglement_ok and self.level_ok and self.label_ok


def check_soundness(st: AbstractState, state: DenseState, eps: float = DEFAULT_EPS,
                    max_qubits: int = DEFAULT_QUBIT_LIMIT) -> SoundnessReport:
    """Compare an AbstractState against the exact state.

    entanglement_ok: every genuinely non-separable pair shares a block in
    the analysis's entanglement partition (over-approximation holds).
    level_ok: every pair the analysis marks as leveled is genuinely
    leveled (under-approximation holds).
    label_ok: every s-labeled qubit is a standard-basis factor and every
    d-labeled qubit a diagonal-basis factor; top is unconstrained.
    """
    if st.n != state.n:
        raise ValueError(f"analysis has {st.n} qubits, state has {state.n}")
    violations: list[tuple[str, object, str]] = []

    exact = finest_separable_partition(state, eps, max_qubits)
    for block in exact:
        for i, j in combinations(block, 2):
            if not st.sep.same_block(i, j):
                violations.append((
                    "entanglement", (i, j),
                    f"qubits {i} and {j} are not separable but the analysis splits them",
                ))

    true_levels = levels_oracle(state, eps, max_qubits)
    for block in st.lvl.blocks():
        for i, j in combinations(block, 2):
            if (i, j) not in true_levels:
                violations.append((
                    "level", (i, j),
                    f"analysis marks qubits {i} and {j} as leveled but they are not",
                ))

    expected = {BasisLabel.S: ConcreteBasis.STANDARD, BasisLabel.D: ConcreteBasis.DIAGONAL}
    for q, label in enumerate(st.labels):
        want = expected.get(label)
        if want is not None and basis_oracle(state, q, eps, max_qubits) is not want:
            violations.append((
                "label", q,
                f"qubit {q} is labeled {label.value} but is not in the {want.value} basis",
            ))

    kinds = {kind for kind, _, _ in violations}
    return SoundnessReport(
        entanglement_ok="entanglement" not in kinds,
        level_ok="level" not in kinds,
        label_ok="label" not in kinds,
        violations=violations,
    )
