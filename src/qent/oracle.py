"""Exact statevector simulator and concrete-semantics checkers.

Ground truth for differential testing of the static analysis. States are
dense complex vectors of length 2^n with qubit 0 as the most significant
bit of the basis index, matching left-to-right ket notation. Every gate
comes from one unitary table and every check uses one tolerance, EPS.
There is one gate kernel, _apply, on contiguous wires, as every gate of a
circuit acts; simulate is its one caller. simulate fuses each wire's run
of single-qubit gates into the next two-qubit gate on that wire, so its
passes over the state grow with the CX/SW gates plus n, not with all gates.
Everything here is exponential in n. Only simulate turns a circuit into 2^n
amplitudes, so it alone refuses circuits over its qubit limit (default
DEFAULT_QUBIT_LIMIT, from qent.circuit).

Checks provided:

* finest_separable_partition: the unique most-refined grouping of qubits
  across which the state factorizes. Correlated qubit pairs are joined in
  place (domain._join), and the blocks seed components; only qubits whose
  one-qubit marginal is mixed are paired: a qubit with a pure marginal
  factors out. Blocks are peeled off by least qubit, each the first union
  of components whose cut passes a rank-1 test on the given state. States
  that are entangled while every pair marginal is a product (2-uniform
  states) still cost up to 2^(k-1) - 1 tests over k components.
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

from .circuit import DEFAULT_QUBIT_LIMIT, CircuitAst, GateKind, _check_wires, iter_gates, validate
from .domain import AbstractState, BasisLabel, Partition, _join

EPS = 1e-9
# Pair-correlation threshold that seeds finest_separable_partition. Qubits
# in factors that the rank-1 test separates (sv[1] < EPS) have
# max|rho_ij - rho_i (x) rho_j| of order EPS, far below PAIR_EPS, so uniting
# a pair above it never makes the result coarser than testing every cut; a
# correlation below it that is missed costs only extra SVDs. Only qubits
# whose one-qubit marginal has |det| > PAIR_EPS**2 are paired: a pure
# marginal (det 0) factors out and correlates with nothing. The bound is
# squared because the det is about the marginal's smaller eigenvalue l,
# while the qubit's pair deviations are about sqrt(l). A skipped qubit that
# is in fact weakly mixed stays a component of its own, so it costs only
# SVDs, never a different result: components stay inside blocks, and the
# block the peel finds is unique.
PAIR_EPS = 1e-6

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
_EYE2 = _UNITARY[GateKind.I]


class QubitLimitError(ValueError):
    """Raised when simulate is asked for more qubits than its limit."""


@dataclass(eq=False)
class DenseState:
    """Normalized amplitude vector over n qubits. `==` is identity, and so
    is the hash: equal amplitudes need a tolerance (np.allclose)."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.amps.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} amplitudes, got {self.amps.shape}")
        norm = np.linalg.norm(self.amps)
        if not abs(norm - 1.0) <= 1e-6:  # NaN fails it too
            raise ValueError(f"state is not normalized (norm {norm})")

    @classmethod
    def zero(cls, n: int) -> DenseState:
        if n < 0:
            raise ValueError("qubit count must be non-negative")
        return cls(n, np.eye(1, 2 ** n, dtype=complex)[0])

    @classmethod
    def from_amplitudes(cls, amps, normalize: bool = False) -> DenseState:
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        count = len(amps)
        if count < 1 or count & (count - 1):
            raise ValueError(f"amplitude count {count} is not a power of two")
        if normalize:  # a zero, infinite or NaN norm is left for __post_init__
            norm = np.linalg.norm(amps)
            amps = amps / norm if 0 < norm < np.inf else amps
        return cls(count.bit_length() - 1, amps)

    def tensor(self, other: DenseState) -> DenseState:
        return DenseState(self.n + other.n, np.kron(self.amps, other.amps))


def _apply(psi: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    """The flat amplitudes psi with the 2^k x 2^k matrix u applied at wires
    q, ..., q + k - 1; wire q is the most significant bit of u's index.

    One matmul over psi as (wires above, wires acted on, wires below),
    batched over the shorter outer index: numpy makes one small product
    per batch item, and 2^q of them near the last wire cost more than the
    arithmetic.
    """
    above = 1 << q
    psi = psi.reshape(above, len(u), -1)
    if above <= psi.shape[2]:
        return (u @ psi).reshape(-1)
    return (psi.transpose(2, 0, 1) @ u.T).transpose(1, 2, 0).reshape(-1)


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a, b) of 2x2 matrices by broadcasting; np.kron costs more than a pass."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def simulate(circuit: CircuitAst, max_qubits: int = DEFAULT_QUBIT_LIMIT) -> DenseState:
    """Run the circuit on |00...0>, applying gates in analysis order.

    Each wire keeps the product of the single-qubit gates it has met since
    its last two-qubit gate. A CX/SW at (q, q + 1) takes both wires'
    products into its 4x4 matrix and makes one pass over the state; the
    products left at the end make one pass each. I is skipped. Raises
    MemoryError, before allocating, when 2^n amplitudes cannot be indexed.
    """
    n = validate(circuit)
    if n > max_qubits:
        raise QubitLimitError(f"{n} qubits exceeds the simulation limit of {max_qubits}")
    if 2 ** n * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"{n} qubits: 2^{n} amplitudes cannot be indexed")
    psi = DenseState.zero(n).amps
    pending: dict[int, np.ndarray] = {}
    for gate, q in iter_gates(circuit):
        kind = gate.kind
        if kind is GateKind.I:
            continue
        u = _UNITARY[kind]
        if len(u) == 2:
            if q in pending:
                u = u @ pending[q]
            pending[q] = u
            continue
        upper, lower = pending.pop(q, _EYE2), pending.pop(q + 1, _EYE2)
        if upper is not _EYE2 or lower is not _EYE2:
            u = u @ _kron2(upper, lower)
        psi = _apply(psi, u, q)
    for q, u in pending.items():
        psi = _apply(psi, u, q)
    return DenseState(n, psi)


def _bipartition_matrix(state: DenseState, subset: tuple[int, ...]) -> np.ndarray:
    rest = tuple(q for q in range(state.n) if q not in subset)
    psi = np.transpose(state.amps.reshape((2,) * state.n), subset + rest)
    return psi.reshape(2 ** len(subset), -1)


def finest_separable_partition(state: DenseState) -> list[list[int]]:
    """Most-refined partition of qubits across which the state factorizes.

    Qubits whose two-qubit marginal is not the product of their one-qubit
    marginals lie in one factor, so these pairs are joined in a member list,
    the seeds, whose blocks are the components. A qubit whose one-qubit
    marginal is pure factors out and is never paired; one skipped while
    weakly mixed costs only cut tests (see PAIR_EPS). Blocks are peeled off
    by least remaining qubit: its component, united with other components
    (fewest first), is its block once the cut around that union passes a
    rank-1 test, and with no such cut the remaining qubits are one block.
    Every cut is tested on the given state; no factor state is built.
    Blocks come by least member. Invariant under global phase.
    """
    n = state.n
    one = np.array([m @ m.conj().T for m in (_bipartition_matrix(state, (q,)) for q in range(n))])
    # one batched det; the reshape gives n = 0 its (0, 2, 2) shape
    mixed = np.flatnonzero(np.abs(np.linalg.det(one.reshape(n, 2, 2))) > PAIR_EPS ** 2).tolist()
    seeds = list(Partition.singletons(n).members)
    for i, j in combinations(mixed, 2):
        if j in seeds[i]:
            continue
        m = _bipartition_matrix(state, (i, j))
        if np.abs(m @ m.conj().T - _kron2(one[i], one[j])).max() > PAIR_EPS:
            _join(seeds, i, j)
    comps = Partition(tuple(seeds)).blocks()

    # Components come by least member and each lies inside one block, and a
    # cut factorizes exactly when both sides are unions of blocks: the first
    # such cut made of comps[0] and other components is comps[0]'s block.
    # Blocks already peeled are tensor factors, so no test needs them apart.
    blocks = []
    while comps:
        block = sorted(q for comp in comps for q in comp)
        for cut in (cut for r in range(len(comps) - 1) for cut in combinations(comps[1:], r)):
            side = tuple(sorted(q for comp in (comps[0], *cut) for q in comp))
            if np.linalg.svd(_bipartition_matrix(state, side), compute_uv=False)[1] < EPS:
                block = list(side)
                break
        blocks.append(block)
        comps = [comp for comp in comps if comp[0] not in block]
    return blocks


def levels_oracle(state: DenseState) -> set[tuple[int, int]]:
    """Pairs (i, j), i < j, of qubits that are genuinely on the same level.

    Both qubits must be in superposition and their bit values must agree
    in every substate or differ in every substate. The relation is
    transitive, as agreement composes; the tests check that it is.
    """
    # one row of bits per substate, qubit 0 first; flips marks where a bit
    # differs from the first row's, and two columns agree or differ in every
    # row exactly when their flips are equal
    support = np.flatnonzero(np.abs(state.amps) > EPS)
    bits = (support[:, None] >> np.arange(state.n - 1, -1, -1)) & 1
    flips = bits ^ bits[0]
    by_flips: dict[bytes, list[int]] = {}
    for q in np.flatnonzero(flips.any(axis=0)):
        by_flips.setdefault(flips[:, q].tobytes(), []).append(int(q))
    return {pair for block in by_flips.values() for pair in combinations(block, 2)}


class ConcreteBasis(Enum):
    STANDARD = "standard"
    DIAGONAL = "diagonal"
    NEITHER = "neither"


def basis_oracle(state: DenseState, qubit: int) -> ConcreteBasis:
    """Classify a qubit's basis; entangled qubits are NEITHER."""
    _check_wires(state.n, qubit)
    m = _bipartition_matrix(state, (qubit,))
    # reduced SVD: the 2^(n-1) x 2^(n-1) right factor is never read. At n = 1
    # m is one column, so sv[1:] is empty and u[:, 0] is the state up to phase.
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    if sv[1:].sum() >= EPS:
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

    def _none_of(self, kind: str) -> bool:
        return all(k != kind for k, _, _ in self.violations)

    entanglement_ok = property(lambda self: self._none_of("entanglement"))
    level_ok = property(lambda self: self._none_of("level"))
    label_ok = property(lambda self: self._none_of("label"))

    @property
    def ok(self) -> bool:
        return not self.violations


def check_soundness(st: AbstractState, state: DenseState) -> SoundnessReport:
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

    for block in finest_separable_partition(state):
        for i, j in combinations(block, 2):
            if not st.sep.same_block(i, j):
                violations.append((
                    "entanglement", (i, j),
                    f"qubits {i} and {j} are not separable but the analysis splits them",
                ))

    true_levels = levels_oracle(state)
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
        if want is not None and basis_oracle(state, q) is not want:
            violations.append((
                "label", q,
                f"qubit {q} is labeled {label.value} but is not in the {want.value} basis",
            ))

    return SoundnessReport(violations)
