"""Exact simulator and concrete-semantics checker tests."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from qent.analyzer import analyze
from qent.circuit import parse_circuit
from qent.domain import AbstractState, BasisLabel, Partition, init_state
from qent.oracle import (
    ConcreteBasis,
    DenseState,
    QubitLimitError,
    apply_cx,
    apply_single,
    apply_swap,
    basis_oracle,
    check_soundness,
    finest_separable_partition,
    levels_oracle,
    simulate,
    substate_table,
)
from qent.circuit import GateKind
from helpers import random_circuit

RT2 = 1 / np.sqrt(2)


def dense(*pairs, n=None):
    """Build a DenseState from (basis index, amplitude) pairs."""
    size = 2 ** n
    amps = np.zeros(size, dtype=complex)
    for idx, amp in pairs:
        amps[idx] = amp
    return DenseState(n, amps)


BELL = dense((0b00, RT2), (0b11, RT2), n=2)
BELL_ANTI = dense((0b01, RT2), (0b10, RT2), n=2)


class TestDenseState:
    def test_zero(self):
        s = DenseState.zero(3)
        assert s.amps[0] == 1.0
        assert np.count_nonzero(s.amps) == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DenseState(1, np.array([1.0, 1.0]))

    def test_from_amplitudes_normalize(self):
        s = DenseState.from_amplitudes([1, 1, 0, 1], normalize=True)
        assert s.n == 2
        assert abs(np.linalg.norm(s.amps) - 1) < 1e-12

    def test_bit_convention_msb_first(self):
        # qubit 0 is the most significant bit of the basis index
        s = DenseState.zero(2)
        assert s.bit(0, 0b10) == 1
        assert s.bit(1, 0b10) == 0

    def test_substate_table(self):
        rows = substate_table(BELL)
        assert [bits for bits, _ in rows] == ["00", "11"]
        assert all(abs(amp - RT2) < 1e-12 for _, amp in rows)


class TestSimulate:
    def test_bell(self):
        s = simulate(parse_circuit("H ** I oo CX"))
        assert np.allclose(s.amps, BELL.amps, atol=1e-12)

    def test_trivial_gates(self):
        assert np.allclose(simulate(parse_circuit("I")).amps, [1, 0])
        assert np.allclose(simulate(parse_circuit("X")).amps, [0, 1])
        assert np.allclose(simulate(parse_circuit("H")).amps, [RT2, RT2])

    def test_t_phase(self):
        s = simulate(parse_circuit("X oo T"))
        assert np.allclose(s.amps, [0, np.exp(1j * np.pi / 4)], atol=1e-12)

    def test_swap(self):
        s = simulate(parse_circuit("X ** I oo SW"))
        assert np.allclose(s.amps, [0, 1, 0, 0])  # |01>

    def test_y_and_z(self):
        assert np.allclose(simulate(parse_circuit("Y")).amps, [0, 1j])
        assert np.allclose(simulate(parse_circuit("H oo Z")).amps, [RT2, -RT2])

    def test_qubit_limit(self):
        wide = parse_circuit(" ** ".join(["I"] * 13))
        with pytest.raises(QubitLimitError):
            simulate(wide)
        assert simulate(wide, max_qubits=13).n == 13

    def test_normalization_random_circuits(self):
        rng = random.Random(51)
        for _ in range(100):
            c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 12))
            s = simulate(c)
            assert abs(np.linalg.norm(s.amps) - 1) < 1e-9

    def test_index_level_gate_application(self):
        # CX with reversed orientation via the index-level API
        s = DenseState.zero(2)
        s = apply_single(s, GateKind.H, 1)
        s = apply_cx(s, 1, 0)
        assert np.allclose(s.amps, BELL.amps, atol=1e-12)
        s2 = apply_swap(simulate(parse_circuit("X ** I")), 0, 1)
        assert np.allclose(s2.amps, [0, 1, 0, 0])


class TestFinestSeparablePartition:
    def test_bell_is_one_block(self):
        assert finest_separable_partition(BELL) == [[0, 1]]

    def test_product_of_basis_states(self):
        assert finest_separable_partition(DenseState.zero(2)) == [[0], [1]]

    def test_bell_tensor_zeros(self):
        s = BELL.tensor(DenseState.zero(2))
        assert finest_separable_partition(s) == [[0, 1], [2], [3]]

    def test_nonadjacent_pair(self):
        s = dense((0b000, RT2), (0b101, RT2), n=3)
        assert finest_separable_partition(s) == [[0, 2], [1]]

    def test_ghz_single_block(self):
        s = dense((0b000, RT2), (0b111, RT2), n=3)
        assert finest_separable_partition(s) == [[0, 1, 2]]

    def test_w_state_single_block(self):
        amps = np.zeros(8)
        amps[[0b001, 0b010, 0b100]] = 1
        s = DenseState.from_amplitudes(amps, normalize=True)
        assert finest_separable_partition(s) == [[0, 1, 2]]

    def test_global_phase_invariance(self):
        rng = random.Random(53)
        for _ in range(50):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 8))
            s = simulate(c)
            rotated = DenseState(s.n, s.amps * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            assert finest_separable_partition(s) == finest_separable_partition(rotated)

    def test_entangled_but_levelless_pair(self):
        s = DenseState.from_amplitudes([1, 1, 0, 1], normalize=True)
        assert finest_separable_partition(s) == [[0, 1]]


class TestLevelsOracle:
    def test_bell_states_leveled(self):
        assert levels_oracle(BELL) == {(0, 1)}
        assert levels_oracle(BELL_ANTI) == {(0, 1)}

    def test_basis_state_has_no_levels(self):
        assert levels_oracle(DenseState.zero(2)) == set()

    def test_entangled_without_levels(self):
        s = DenseState.from_amplitudes([1, 1, 0, 1], normalize=True)
        assert levels_oracle(s) == set()

    def test_levels_imply_entanglement(self):
        rng = random.Random(59)
        for _ in range(150):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 10))
            s = simulate(c)
            blocks = finest_separable_partition(s)
            block_of = {q: i for i, b in enumerate(blocks) for q in b}
            for i, j in levels_oracle(s):
                assert block_of[i] == block_of[j]

    def test_ghz_transitive_via_all_pairs(self):
        s = dense((0b000, RT2), (0b111, RT2), n=3)
        assert levels_oracle(s) == {(0, 1), (0, 2), (1, 2)}

    def test_hadamard_breaks_level(self):
        s = apply_single(BELL, GateKind.H, 0)
        assert levels_oracle(s) == set()

    def test_transitive(self):
        """(i, j) and (j, k) leveled imply (i, k) leveled, on GHZ states of
        2-12 wires (plain and with random bits flipped, so that some pairs
        disagree in every substate) and on seeded random circuits of up to
        8 wires."""
        rng = random.Random(61)
        ghz = [dense((b, RT2), (b ^ (2 ** n - 1), RT2), n=n)
               for n in range(2, 13) for b in (0, rng.randrange(2 ** n))]
        circuits = [simulate(random_circuit(rng, rng.randint(1, 8), rng.randint(1, 12)))
                    for _ in range(300)]
        chained = 0
        for k, s in enumerate(ghz + circuits):
            pairs = levels_oracle(s)
            for (a, b), (c, d) in combinations(pairs, 2):
                shared = {a, b} & {c, d}
                if len(shared) == 1:
                    assert tuple(sorted({a, b, c, d} - shared)) in pairs
                    chained += k >= len(ghz)
        for s in ghz:
            assert levels_oracle(s) == set(combinations(range(s.n), 2))
        assert chained >= 20  # the random circuits reach chains of levels too


class TestBasisOracle:
    @pytest.mark.parametrize("text,expect", [
        ("I", ConcreteBasis.STANDARD),
        ("X", ConcreteBasis.STANDARD),
        ("H", ConcreteBasis.DIAGONAL),
        ("X oo H", ConcreteBasis.DIAGONAL),
        ("H oo T", ConcreteBasis.NEITHER),
    ])
    def test_single_qubit(self, text, expect):
        assert basis_oracle(simulate(parse_circuit(text)), 0) is expect

    def test_bell_member_is_neither(self):
        assert basis_oracle(BELL, 0) is ConcreteBasis.NEITHER
        assert basis_oracle(BELL, 1) is ConcreteBasis.NEITHER

    def test_mixed_product(self):
        s = simulate(parse_circuit("X ** H"))
        assert basis_oracle(s, 0) is ConcreteBasis.STANDARD
        assert basis_oracle(s, 1) is ConcreteBasis.DIAGONAL

    def test_phase_does_not_matter(self):
        s = DenseState.from_amplitudes([0, np.exp(1j * 0.3)])
        assert basis_oracle(s, 0) is ConcreteBasis.STANDARD

    def test_pauli_preserve_h_switches(self):
        """Basis behavior per gate: I/X/Y/Z preserve, H switches."""
        for prep, basis in [("I", ConcreteBasis.STANDARD), ("X", ConcreteBasis.STANDARD),
                            ("H", ConcreteBasis.DIAGONAL), ("X oo H", ConcreteBasis.DIAGONAL)]:
            for pauli in ["I", "X", "Y", "Z"]:
                s = simulate(parse_circuit(f"{prep} oo {pauli}"))
                assert basis_oracle(s, 0) is basis
            flipped = (ConcreteBasis.DIAGONAL if basis is ConcreteBasis.STANDARD
                       else ConcreteBasis.STANDARD)
            s = simulate(parse_circuit(f"{prep} oo H"))
            assert basis_oracle(s, 0) is flipped


class TestLeveledCxDisentangles:
    def test_randomized(self):
        """CX across a genuinely leveled pair frees the target into a basis state."""
        rng = random.Random(61)
        for _ in range(120):
            n = rng.randint(2, 5)
            c, t = rng.sample(range(n), 2)
            qubits = [c, t] + [q for q in range(n) if q not in (c, t)]
            state = rng.choice([BELL, BELL_ANTI])
            for _ in range(n - 2):
                extra = rng.choice(
                    [DenseState.from_amplitudes([1, 0]),
                     DenseState.from_amplitudes([0, 1]),
                     DenseState.from_amplitudes([RT2, RT2]),
                     DenseState.from_amplitudes([RT2, rng.choice([1, -1, 1j]) * RT2])])
                state = state.tensor(extra)
            # permute tensor order (pair currently at positions 0,1) to wires
            perm = [0] * n
            for pos, wire in enumerate(qubits):
                perm[wire] = pos
            psi = state.amps.reshape([2] * n).transpose(perm).reshape(-1)
            state = DenseState(n, psi)
            if rng.random() < 0.5:  # local flips keep the pair leveled
                state = apply_single(state, GateKind.X, rng.choice([c, t]))
            assert (min(c, t), max(c, t)) in levels_oracle(state)
            after = apply_cx(state, c, t)
            parts = finest_separable_partition(after)
            assert [t] in parts
            assert basis_oracle(after, t) is ConcreteBasis.STANDARD


class TestCheckSoundness:
    def test_trivial(self):
        rep = check_soundness(analyze(parse_circuit("I ** I")), DenseState.zero(2))
        assert rep.ok
        assert rep.violations == []

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_soundness(init_state(3), DenseState.zero(2))

    def test_flags_unsound_separability(self):
        claim = AbstractState([BasisLabel.TOP, BasisLabel.TOP],
                              Partition.singletons(2), Partition.singletons(2))
        rep = check_soundness(claim, BELL)
        assert not rep.entanglement_ok
        assert rep.level_ok and rep.label_ok
        assert rep.violations[0][0] == "entanglement"
        assert rep.violations[0][1] == (0, 1)
        assert not rep.ok

    def test_flags_false_level_claim(self):
        pair = Partition.from_blocks([[0, 1]], 2)
        claim = AbstractState([BasisLabel.TOP, BasisLabel.TOP], pair, pair)
        s = DenseState.from_amplitudes([1, 1, 0, 1], normalize=True)
        rep = check_soundness(claim, s)
        assert rep.entanglement_ok
        assert not rep.level_ok

    def test_flags_wrong_label(self):
        claim = AbstractState([BasisLabel.D], Partition.singletons(1), Partition.singletons(1))
        rep = check_soundness(claim, DenseState.zero(1))
        assert not rep.label_ok
        assert rep.violations[0][0] == "label"

    def test_top_is_unconstrained(self):
        claim = AbstractState([BasisLabel.TOP, BasisLabel.TOP],
                              Partition.from_blocks([[0, 1]], 2), Partition.singletons(2))
        assert check_soundness(claim, BELL).ok
        assert check_soundness(claim, DenseState.zero(2)).ok

    def test_overapproximation_is_fine(self):
        # claiming entanglement for a product state is sound
        claim = AbstractState([BasisLabel.TOP, BasisLabel.TOP],
                              Partition.from_blocks([[0, 1]], 2), Partition.singletons(2))
        assert check_soundness(claim, DenseState.zero(2)).ok
