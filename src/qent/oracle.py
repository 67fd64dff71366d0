"""Exact statevector simulator and concrete-semantics checkers.

Ground truth for differential testing of the static analysis. States are
dense complex vectors of length 2^n with qubit 0 as the most significant
bit of the basis index, matching left-to-right ket notation. Every gate
comes from one unitary table and every check uses one tolerance, EPS.
Everything here is exponential in n and guarded by a qubit limit (default
12, which keeps the all-bipartitions separability scan around a second).

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

EPS = 1e-9
DEFAULT_QUBIT_LIMIT = 12

_SQRT2 = np.sqrt(2.0)
# Two-wire gates act on wires (q, q + 1), the upper wire the more
# significant bit of the matrix index.
_UNITARY = {
    GateKind.I: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    GateKind.CX: np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    GateKind.SW: np.eye(4, dtype=complex)[[0, 2, 1, 3]],
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

    def tensor(self, other: DenseState) -> DenseState:
        return DenseState(self.n + other.n, np.kron(self.amps, other.amps))


def _apply(psi: np.ndarray, n: int, kind: GateKind, wires: tuple[int, ...]) -> np.ndarray:
    """The 2^n amplitudes psi, in shape (2,) * n, with kind's unitary applied
    at wires; the first wire is the most significant bit of the matrix index."""
    k = len(wires)
    u = _UNITARY[kind].reshape((2,) * (2 * k))
    out = np.tensordot(u, psi.reshape((2,) * n), axes=(range(k, 2 * k), wires))
    return np.moveaxis(out, range(k), wires)


def apply_single(state: DenseState, kind: GateKind, q: int) -> DenseState:
    """Apply a single-qubit unitary at wire q."""
    return DenseState(state.n, _apply(state.amps, state.n, kind, (q,)))


def apply_cx(state: DenseState, control: int, target: int) -> DenseState:
    """Apply CX with arbitrary control/target wires."""
    if control == target:
        raise ValueError("cx control and target must differ")
    return DenseState(state.n, _apply(state.amps, state.n, GateKind.CX, (control, target)))


def apply_swap(state: DenseState, i: int, j: int) -> DenseState:
    return DenseState(state.n, _apply(state.amps, state.n, GateKind.SW, (i, j)))


def simulate(circuit: CircuitAst, max_qubits: int = DEFAULT_QUBIT_LIMIT) -> DenseState:
    """Run the circuit on |00...0>, applying gates in analysis order."""
    n = validate(circuit)
    if n > max_qubits:
        raise QubitLimitError(f"{n} qubits exceeds the simulation limit of {max_qubits}")
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    for gate, q in iter_gates(circuit):
        psi = _apply(psi, n, gate.kind, tuple(range(q, q + gate.height)))
    return DenseState(n, psi)


def _bipartition_matrix(state: DenseState, subset: tuple[int, ...]) -> np.ndarray:
    rest = tuple(q for q in range(state.n) if q not in subset)
    psi = state.amps.reshape([2] * state.n)
    psi = np.transpose(psi, subset + rest)
    return psi.reshape(2 ** len(subset), 2 ** len(rest))


def _factorizes(state: DenseState, subset: tuple[int, ...]) -> bool:
    # rank-1 test: second-largest singular value below EPS
    sv = np.linalg.svd(_bipartition_matrix(state, subset), compute_uv=False)
    return sv[1] < EPS


def finest_separable_partition(state: DenseState,
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
        if _factorizes(state, subset):
            for q in range(n):
                signatures[q].append(q in subset)
    by_sig: dict[tuple, list[int]] = {}
    for q in range(n):
        by_sig.setdefault(tuple(signatures[q]), []).append(q)
    return sorted(by_sig.values(), key=lambda block: block[0])


def levels_oracle(state: DenseState,
                  max_qubits: int = DEFAULT_QUBIT_LIMIT) -> set[tuple[int, int]]:
    """Pairs (i, j), i < j, of qubits that are genuinely on the same level.

    Both qubits must be in superposition and their bit values must agree
    in every substate or differ in every substate. The relation is
    transitive, as agreement composes; the tests check that it is.
    """
    n = state.n
    if n > max_qubits:
        raise QubitLimitError(f"{n} qubits exceeds the oracle limit of {max_qubits}")
    # one row of bits per substate, qubit 0 first; flips marks where a bit
    # differs from the first row's, and two columns agree or differ in every
    # row exactly when their flips are equal
    support = np.flatnonzero(np.abs(state.amps) > EPS)
    bits = (support[:, None] >> np.arange(n - 1, -1, -1)) & 1
    flips = bits ^ bits[0]
    by_flips: dict[bytes, list[int]] = {}
    for q in np.flatnonzero(flips.any(axis=0)):
        by_flips.setdefault(flips[:, q].tobytes(), []).append(int(q))
    return {pair for block in by_flips.values() for pair in combinations(block, 2)}


class ConcreteBasis(Enum):
    STANDARD = "standard"
    DIAGONAL = "diagonal"
    NEITHER = "neither"


def basis_oracle(state: DenseState, qubit: int,
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
        if sv[1] >= EPS:
            return ConcreteBasis.NEITHER
        vec = u[:, 0]
    if max(abs(vec[0]), abs(vec[1])) > 1 - EPS:
        return ConcreteBasis.STANDARD
    if max(abs(vec[0] + vec[1]), abs(vec[0] - vec[1])) / _SQRT2 > 1 - EPS:
        return ConcreteBasis.DIAGONAL
    return ConcreteBasis.NEITHER


@dataclass
class SoundnessReport:
    """Outcome of checking an analysis result; each flag is read from the violations."""

    violations: list[tuple[str, object, str]] = field(default_factory=list)

    @property
    def entanglement_ok(self) -> bool:
        return all(kind != "entanglement" for kind, _, _ in self.violations)

    @property
    def level_ok(self) -> bool:
        return all(kind != "level" for kind, _, _ in self.violations)

    @property
    def label_ok(self) -> bool:
        return all(kind != "label" for kind, _, _ in self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_soundness(st: AbstractState, state: DenseState,
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

    for block in finest_separable_partition(state, max_qubits):
        for i, j in combinations(block, 2):
            if not st.sep.same_block(i, j):
                violations.append((
                    "entanglement", (i, j),
                    f"qubits {i} and {j} are not separable but the analysis splits them",
                ))

    true_levels = levels_oracle(state, max_qubits)
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
        if want is not None and basis_oracle(state, q, max_qubits) is not want:
            violations.append((
                "label", q,
                f"qubit {q} is labeled {label.value} but is not in the {want.value} basis",
            ))

    return SoundnessReport(violations)
