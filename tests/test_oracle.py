"""Exact simulator and concrete-semantics checker tests."""

from __future__ import annotations

import functools
import random
from itertools import combinations

import numpy as np
import pytest

import qent.oracle
from qent.analyzer import AnalysisMode, analyze
from qent.circuit import Gate, Seq, Tensor, parse_circuit
from qent.domain import AbstractState, BasisLabel, Partition, init_state
from qent.oracle import (
    _UNITARY,
    ConcreteBasis,
    DenseState,
    QubitLimitError,
    _apply,
    basis_oracle,
    check_soundness,
    finest_separable_partition,
    levels_oracle,
    simulate,
)
from qent.circuit import GateKind, iter_gates
from helpers import (ALL_KINDS, REF_1Q, RT2, SINGLE_QUBIT, concrete_step, exact_key, pad_at,
                     random_circuit, random_column, reachable_pairs, ref_apply, ref_cx, ref_gate,
                     ref_op, ref_swap, rounded_key, scan_finest_partition)


def random_states(seed):
    """Random normalized states of 1-5 qubits, three per width."""
    rng = np.random.default_rng(seed)
    for n in range(1, 6):
        for _ in range(3):
            amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            yield DenseState.from_amplitudes(amps, normalize=True)


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
        assert DenseState.zero(0).amps.tolist() == [1]
        with pytest.raises(ValueError, match="qubit count must be non-negative"):
            DenseState.zero(-1)

    def test_rejects_unnormalized(self):
        for amps in ([1.0, 1.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                DenseState(1, np.array(amps))
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            DenseState(2, [1, 0])

    def test_equality_is_identity(self):
        a, b = DenseState.zero(1), DenseState.zero(1)
        assert a == a
        assert a != b
        assert len({a, a, b}) == 2

    def test_from_amplitudes_normalize(self):
        s = DenseState.from_amplitudes([1, 1, 0, 1], normalize=True)
        assert s.n == 2
        assert abs(np.linalg.norm(s.amps) - 1) < 1e-12
        for amps in ([], [1, 1, 1]):
            with pytest.raises(ValueError, match="not a power of two"):
                DenseState.from_amplitudes(amps)
        with pytest.raises(ValueError, match="not normalized"):
            DenseState.from_amplitudes([0, 0], normalize=True)


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
        # the Kronecker references that tests apply at arbitrary wires, here
        # CX with reversed orientation
        s = ref_apply(DenseState.zero(2), ref_cx(2, 1, 0) @ ref_op(2, {1: REF_1Q[GateKind.H]}))
        assert np.allclose(s.amps, BELL.amps, atol=1e-12)
        s2 = ref_apply(simulate(parse_circuit("X ** I")), ref_swap(2, 0, 1))
        assert np.allclose(s2.amps, [0, 1, 0, 0])


class TestGateKernel:
    """The one kernel, _apply, with every gate of the oracle's table at every
    wire equals its Kronecker-product reference. Both of its batching
    branches run: over the wires above (near wire 0) and over the wires below
    (near the last wire)."""

    def check_kinds(self, seed, kinds):
        branches = set()
        for s in random_states(seed):
            for kind in kinds:
                for q in range(s.n - kind.height + 1):
                    got = _apply(s.amps, _UNITARY[kind], q)
                    assert np.allclose(got, ref_gate(s.n, kind, q) @ s.amps, atol=1e-12)
                    branches.add(q <= s.n - q - kind.height)  # 2^q above <= 2^(n-q-k) below
        assert branches == {True, False}

    def test_single_qubit_gates(self):
        self.check_kinds(71, SINGLE_QUBIT)

    def test_cx_every_wire(self):
        self.check_kinds(73, [GateKind.CX])

    def test_swap_every_wire(self):
        self.check_kinds(79, [GateKind.SW])

    def test_simulate_random_circuits(self):
        rng = random.Random(83)
        for _ in range(200):
            c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 10))
            n = c.height
            want = np.eye(2 ** n)[0].astype(complex)
            for gate, q in iter_gates(c):
                want = ref_gate(n, gate.kind, q) @ want
            assert np.allclose(simulate(c).amps, want, atol=1e-12)


def finest(state):
    """finest_separable_partition(state), checked against the reference
    scan of every bipartition."""
    got = finest_separable_partition(state)
    assert got == scan_finest_partition(state)
    return got


def perfect_code_state():
    """|0_L> of the 5-qubit perfect code: |00000> projected onto the +1
    eigenspace of XZZXI and its cyclic shifts. Its every two-qubit marginal
    is I/4 (it is 2-uniform), so no pair of qubits shows a correlation."""
    pauli = {"I": REF_1Q[GateKind.I], "X": REF_1Q[GateKind.X], "Z": REF_1Q[GateKind.Z]}
    amps = np.eye(32, dtype=complex)[0]
    for k in range(4):
        word = ("XZZXI" * 2)[5 - k:10 - k]
        amps = (amps + functools.reduce(np.kron, [pauli[p] for p in word]) @ amps) / 2
    return DenseState.from_amplitudes(amps, normalize=True)


def weak_pair(theta):
    """cos(theta)|00> + sin(theta)|11>, whose cut has sv[1] = sin(theta)."""
    return dense((0b00, np.cos(theta)), (0b11, np.sin(theta)), n=2)


def ghz(n):
    return dense((0, RT2), (2 ** n - 1, RT2), n=n)


def permuted(state, order):
    """state with its tensor factor k moved to wire order[k]."""
    psi = state.amps.reshape([2] * state.n).transpose(np.argsort(order))
    return DenseState(state.n, psi.reshape(-1))


def count_svds(monkeypatch):
    """A list that grows by one on every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(qent.oracle.np.linalg, "svd", counted)
    return calls


def count_pairs(monkeypatch):
    """A list that grows by the subset of every two-qubit marginal the oracle
    builds, that is, every two-qubit _bipartition_matrix call."""
    calls = []
    matrix = qent.oracle._bipartition_matrix

    def counted(state, subset):
        if len(subset) == 2:
            calls.append(subset)
        return matrix(state, subset)

    monkeypatch.setattr(qent.oracle, "_bipartition_matrix", counted)
    return calls


# Circuit layouts of the benchmark's exact checks: groups of 2-4 wires side
# by side, one GHZ ladder with a local tail, and the stale-level sequence
# (its reversed CX built from swaps) among groups.
PITFALL_TEXT = " oo ".join([
    "H ** I ** I", "CX ** I", "SW ** I", "CX ** I", "SW ** I", "I ** H ** I", "I ** CX",
    "H ** I ** I", "CX ** I", "I ** SW", "I ** CX", "I ** SW"])


def ghz_circuit(rng, wires, tail=(GateKind.I, GateKind.X, GateKind.Y, GateKind.Z, GateKind.T)):
    """H and a CX ladder over all wires, then 0-6 random columns of tail."""
    c = pad_at(Gate(GateKind.H), 0, wires)
    for q in range(wires - 1):
        c = Seq(c, pad_at(Gate(GateKind.CX), q, wires))
    for _ in range(rng.randint(0, 6)):
        c = Seq(c, random_column(rng, wires, tail))
    return c


def factor_groups(rng, wires):
    """Groups of 2-4 wires, each a GHZ ladder then random gates of every kind,
    and one single wire if one is left over."""
    groups = []
    while wires > 1:
        w = min(rng.randint(2, 4), wires)
        groups.append(ghz_circuit(rng, w, ALL_KINDS))
        wires -= w
    if wires:
        groups.append(random_circuit(rng, 1, 3))
    return groups


def oracle_layouts(seed):
    rng = random.Random(seed)
    for wires in range(2, 11):
        for _ in range(4):
            yield functools.reduce(Tensor, factor_groups(rng, wires))
            yield ghz_circuit(rng, wires)
            if wires >= 5:
                groups = factor_groups(rng, wires - 3)
                groups.insert(rng.randrange(len(groups) + 1), parse_circuit(PITFALL_TEXT))
                yield functools.reduce(Tensor, groups)


class TestFinestSeparablePartition:
    def test_bell_is_one_block(self):
        assert finest(BELL) == [[0, 1]]

    def test_product_of_basis_states(self):
        assert finest(DenseState.zero(2)) == [[0], [1]]

    def test_bell_tensor_zeros(self):
        s = BELL.tensor(DenseState.zero(2))
        assert finest(s) == [[0, 1], [2], [3]]

    def test_nonadjacent_pair(self):
        s = dense((0b000, RT2), (0b101, RT2), n=3)
        assert finest(s) == [[0, 2], [1]]

    def test_ghz_single_block(self):
        assert finest(ghz(3)) == [[0, 1, 2]]

    def test_w_state_single_block(self):
        amps = np.zeros(8)
        amps[[0b001, 0b010, 0b100]] = 1
        s = DenseState.from_amplitudes(amps, normalize=True)
        assert finest(s) == [[0, 1, 2]]

    def test_global_phase_invariance(self):
        rng = random.Random(53)
        for _ in range(50):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 8))
            s = simulate(c)
            rotated = DenseState(s.n, s.amps * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            assert finest(s) == finest(rotated)

    def test_entangled_but_levelless_pair(self):
        s = DenseState.from_amplitudes([1, 1, 0, 1], normalize=True)
        assert finest(s) == [[0, 1]]

    def test_zero_and_one_qubit(self):
        assert finest_separable_partition(DenseState(0, [1])) == []
        assert finest(DenseState.from_amplitudes([RT2, 1j * RT2])) == [[0]]

    def test_qubit_limit(self):
        # only simulate has a qubit limit; a wider state is checked as given
        assert finest_separable_partition(DenseState.zero(13)) == [[q] for q in range(13)]

    def test_matches_scan_on_random_circuits(self):
        rng = random.Random(89)
        for _ in range(400):
            finest(simulate(random_circuit(rng, rng.randint(1, 10), rng.randint(1, 12))))

    def test_matches_scan_on_oracle_layouts(self):
        blocks = [finest(simulate(c)) for c in oracle_layouts(97)]
        assert len(blocks) == 96
        # the layouts reach products of several blocks
        assert max(sum(len(b) > 1 for b in bs) for bs in blocks) >= 3


class TestFinestWorstCases:
    def test_perfect_code_is_one_block_without_pair_correlations(self):
        code = perfect_code_state()
        for i, j in combinations(range(5), 2):
            m = np.moveaxis(code.amps.reshape([2] * 5), (i, j), (0, 1)).reshape(4, -1)
            assert np.allclose(m @ m.conj().T, np.eye(4) / 4, atol=1e-12)
        assert finest(code) == [list(range(5))]

    def test_perfect_code_products(self):
        code = perfect_code_state()
        assert finest(code.tensor(code)) == [list(range(5)), list(range(5, 10))]
        s = BELL.tensor(code).tensor(code)  # 12 qubits, beyond the scan's test range
        assert finest_separable_partition(s) == [[0, 1], list(range(2, 7)), list(range(7, 12))]

    def test_weak_entanglement_is_one_block(self, monkeypatch):
        # sv[1] = sin(theta) >= EPS keeps the pair one block, whether its
        # pair deviation (about sin(theta)) is above PAIR_EPS, so that
        # seeding unites it, or below, so that only the cut test sees it
        assert finest(weak_pair(1e-4)) == [[0, 1]]
        calls = count_svds(monkeypatch)
        assert finest_separable_partition(weak_pair(1e-4)) == [[0, 1]]
        assert calls == []
        assert finest_separable_partition(weak_pair(1e-7)) == [[0, 1]]
        assert len(calls) == 1
        assert finest_separable_partition(weak_pair(1e-11)) == [[0], [1]]


class TestFinestCost:
    """SVD calls counted, not timed: the scan needs 2^(n-1) - 1 of them."""

    def test_ghz_needs_no_svd(self, monkeypatch):
        calls = count_svds(monkeypatch)
        assert finest_separable_partition(ghz(12)) == [list(range(12))]
        assert calls == []

    def test_product_of_k_factors_needs_at_most_k_minus_1(self, monkeypatch):
        rng = np.random.default_rng(101)
        w = DenseState.from_amplitudes([0, 1, 1, 0, 1, 0, 0, 0], normalize=True)
        pool = [BELL, BELL_ANTI, ghz(3), w, ghz(4),
                DenseState.from_amplitudes([1, 1, 0, 1], normalize=True),
                DenseState.zero(1), DenseState.from_amplitudes([RT2, RT2]),
                DenseState.from_amplitudes([RT2, np.exp(1j * np.pi / 4) * RT2])]
        calls = count_svds(monkeypatch)
        for _ in range(60):
            factors, n = [], 0
            while True:
                f = pool[rng.integers(len(pool))]
                if rng.random() < 0.3:  # a random 2-4 qubit factor
                    m = int(rng.integers(2, 5))
                    f = DenseState.from_amplitudes(rng.normal(size=2 ** m)
                                                   + 1j * rng.normal(size=2 ** m), normalize=True)
                if n + f.n > 12:
                    break
                factors.append(f)
                n += f.n
            order = rng.permutation(n)
            state = permuted(functools.reduce(DenseState.tensor, factors), order)
            starts = np.cumsum([0] + [f.n for f in factors])
            want = sorted(sorted(int(order[k]) for k in range(a, b))
                          for a, b in zip(starts, starts[1:]))
            calls.clear()
            assert finest_separable_partition(state) == want
            assert len(calls) <= len(factors) - 1

    @pytest.mark.parametrize("second, most", [("bell", 27), ("code", 146)])
    def test_perfect_code_products_peel_each_block_once(self, monkeypatch, second, most):
        # a block found is never searched again: once the code's block is
        # peeled off, the rest is one block and needs no test of its own
        code = perfect_code_state()
        state = code.tensor({"bell": BELL, "code": code}[second])
        calls = count_svds(monkeypatch)
        assert finest_separable_partition(state) == [list(range(5)), list(range(5, state.n))]
        assert len(calls) <= most

    def test_pure_qubits_are_never_paired(self, monkeypatch):
        # the ten |0> qubits have pure marginals and are never paired (the
        # peel tests only their one-qubit cuts); pairing all 12 would take 66
        pairs = count_pairs(monkeypatch)
        state = DenseState.zero(10).tensor(BELL)
        assert finest_separable_partition(state) == [[q] for q in range(10)] + [[10, 11]]
        assert pairs == [(10, 11)]

    @pytest.mark.parametrize("theta, paired", [(1e-3, True), (1e-4, True), (1e-5, True),
                                               (1e-6, None), (1e-7, False), (1e-8, False)])
    def test_weak_pair_across_the_skip_boundary(self, monkeypatch, theta, paired):
        # |det rho_0| = (sin(theta) cos(theta))^2 crosses PAIR_EPS**2 at about
        # theta = 1e-6 (None: either side); paired or not, sv[1] >= EPS keeps
        # the pair one block
        pairs = count_pairs(monkeypatch)
        assert finest(weak_pair(theta)) == [[0, 1]]
        if paired is not None:
            assert pairs == ([(0, 1)] if paired else [])

    def test_builds_no_state(self, monkeypatch):
        code = perfect_code_state()
        states = [code.tensor(BELL), BELL.tensor(code), ghz(3).tensor(BELL_ANTI),
                  permuted(BELL.tensor(ghz(3)).tensor(DenseState.zero(1)), [4, 0, 2, 5, 1, 3])]
        built = []
        post_init = DenseState.__post_init__

        def counted(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(DenseState, "__post_init__", counted)
        for state in states:
            finest_separable_partition(state)
        assert built == []


def fold(circuit):
    """The circuit's state, one gate at a time through the kernel."""
    state = DenseState.zero(circuit.height)
    for gate, q in iter_gates(circuit):
        state = concrete_step(state, gate.kind, q)
    return state


def count_passes(monkeypatch):
    """A list that grows by one on every pass of the gate kernel over a state."""
    calls = []
    kernel = qent.oracle._apply

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(qent.oracle, "_apply", counted)
    return calls


def two_qubit_gates(circuit):
    return sum(gate.kind in (GateKind.CX, GateKind.SW) for gate, _ in iter_gates(circuit))


PAULI_T = (GateKind.X, GateKind.Y, GateKind.Z, GateKind.T)
T_HEAVY = PAULI_T + (GateKind.T,) * 4
SINGLE_NON_I = (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.T)


def fused_cases(seed):
    """Circuits at the benchmark's widths for the fused simulator."""
    rng = random.Random(seed)
    for wires in range(8, 13):
        yield random_circuit(rng, wires, rng.randint(8, 16))
        yield Seq(ghz_circuit(rng, wires, T_HEAVY), random_circuit(rng, wires, 4, T_HEAVY))
        # ends on a run of single-qubit gates: the final per-wire flush
        tail = random_circuit(rng, wires, rng.randint(1, 4), SINGLE_NON_I)
        yield Seq(random_circuit(rng, wires, 6), tail)
    yield random_circuit(rng, 10, 4, [GateKind.I])
    yield random_circuit(rng, 1, 12)


class TestFusedSimulate:
    """simulate fuses single-qubit runs; its state is the gate-by-gate one."""

    def test_equals_gate_by_gate(self):
        cases = list(fused_cases(103))
        assert len(cases) == 17
        for c in cases:
            got, want = simulate(c), fold(c)
            assert np.abs(got.amps - want.amps).max() <= 1e-12
            assert finest_separable_partition(got) == finest_separable_partition(want)
            assert levels_oracle(got) == levels_oracle(want)
            assert [basis_oracle(got, q) for q in range(c.height)] == [
                basis_oracle(want, q) for q in range(c.height)]
            for mode in AnalysisMode:
                st = analyze(c, mode)
                assert (check_soundness(st, got).violations
                        == check_soundness(st, want).violations)

    def test_ghz_ladder_with_long_tail_cost(self, monkeypatch):
        rng = random.Random(107)
        c = ghz_circuit(rng, 12, PAULI_T)
        for _ in range(30):
            c = Seq(c, random_column(rng, 12, PAULI_T))
        assert two_qubit_gates(c) == 11
        calls = count_passes(monkeypatch)
        simulate(c)
        assert 0 < len(calls) <= 11 + 12
        assert set(calls) == {2 ** 12}

    def test_oracle_layouts_cost(self, monkeypatch):
        calls = count_passes(monkeypatch)
        for c in oracle_layouts(109):
            calls.clear()
            simulate(c)
            assert len(calls) <= two_qubit_gates(c) + c.height


class TestCompositionLaw:
    """The exact finest partition of A ** B is A's beside B's, B's blocks
    shifted by A's height, as the analysis's (test_analyzer.py)."""

    def test_finest_partition_is_side_by_side(self):
        rng = random.Random(98)
        for _ in range(300):
            a = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 8))
            b = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 8))
            beside = (finest_separable_partition(simulate(a))
                      + [[q + a.height for q in block]
                         for block in finest_separable_partition(simulate(b))])
            assert finest_separable_partition(simulate(Tensor(a, b))) == beside


def levels_by_definition(state):
    """Pairs (i, j), i < j, of superposed qubits whose bits agree in every
    nonzero basis state or differ in every one, read pair by pair off the
    bit strings of those basis states."""
    rows = [format(k, f"0{state.n}b") for k, amp in enumerate(state.amps) if abs(amp) > 1e-9]
    superposed = [len({row[q] for row in rows}) == 2 for q in range(state.n)]
    return {(i, j) for i, j in combinations(range(state.n), 2)
            if superposed[i] and superposed[j] and len({row[i] == row[j] for row in rows}) == 1}


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
        s = concrete_step(BELL, GateKind.H, 0)
        assert levels_oracle(s) == set()

    def test_transitive(self):
        """(i, j) and (j, k) leveled imply (i, k) leveled, on GHZ states of
        2-12 wires (plain and with random bits flipped, so that some pairs
        disagree in every substate) and on seeded random circuits of up to
        8 wires; on all of them the pairs equal levels_by_definition's."""
        rng = random.Random(61)
        ghz = [dense((b, RT2), (b ^ (2 ** n - 1), RT2), n=n)
               for n in range(2, 13) for b in (0, rng.randrange(2 ** n))]
        circuits = [simulate(random_circuit(rng, rng.randint(1, 8), rng.randint(1, 12)))
                    for _ in range(300)]
        chained = 0
        for k, s in enumerate(ghz + circuits):
            pairs = levels_oracle(s)
            assert pairs == levels_by_definition(s)
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
        for qubit in (2, -1):
            with pytest.raises(IndexError, match=f"qubit {qubit} out of range for n=2"):
                basis_oracle(BELL, qubit)

    def test_mixed_product(self):
        s = simulate(parse_circuit("X ** H"))
        assert basis_oracle(s, 0) is ConcreteBasis.STANDARD
        assert basis_oracle(s, 1) is ConcreteBasis.DIAGONAL

    def test_phase_does_not_matter(self):
        s = DenseState.from_amplitudes([0, np.exp(1j * 0.3)])
        assert basis_oracle(s, 0) is ConcreteBasis.STANDARD

    def test_one_qubit_state_takes_the_general_path(self):
        """A one-qubit state classifies as it does beside a |0> wire."""
        rng = np.random.default_rng(3)
        angles = [0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi, 1e-6, np.pi / 4 + 1e-6]
        amps = [[np.cos(a / 2), np.exp(1j * p) * np.sin(a / 2)]
                for a in angles for p in (0, np.pi, 0.3)]
        amps += list(rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2)))
        for a in amps:
            s = DenseState.from_amplitudes(a, normalize=True)
            wide = s.tensor(DenseState.zero(1))
            assert basis_oracle(s, 0) is basis_oracle(wide, 0), a

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
                state = ref_apply(state, ref_op(n, {rng.choice([c, t]): REF_1Q[GateKind.X]}))
            assert (min(c, t), max(c, t)) in levels_oracle(state)
            after = ref_apply(state, ref_cx(n, c, t))
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

    def test_catches_unsafe_leveling_witness(self):
        c = parse_circuit("H ** H ** I oo I ** CX oo CX ** I")
        rep = check_soundness(analyze(c, AnalysisMode.UNSAFE_LEVELING), simulate(c))
        assert [v[:2] for v in rep.violations] == [("level", (1, 2))]
        for mode in (AnalysisMode.LEVELS, AnalysisMode.NO_LEVELS):
            assert check_soundness(analyze(c, mode), simulate(c)).ok

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


class TestTFreeClosure:
    """Every T-free circuit on 3 wires, of any length, checked exhaustively:
    each reachable (analysis, exact) pair is checked once. Exact states are
    told apart by exact_key, that is, up to global phase and exactly: each
    amplitude is keyed by its exact value 0 or i^p * 2^(-k/2), which it
    lies within 1e-12 of."""

    @pytest.mark.parametrize("mode, pairs", [(AnalysisMode.LEVELS, 1456),
                                             (AnalysisMode.NO_LEVELS, 592)])
    def test_every_reachable_pair_is_sound(self, mode, pairs):
        reached = list(reachable_pairs(3, mode, exact_key))
        assert len(reached) == pairs
        for st, state in reached:
            assert check_soundness(st, state).ok
        concrete = {exact_key(state): state for _, state in reached}
        assert len(concrete) == 240
        for state in concrete.values():
            finest(state)

    def test_unsafe_leveling_is_caught(self):
        reached = reachable_pairs(3, AnalysisMode.UNSAFE_LEVELING, exact_key)
        assert any(not check_soundness(st, state).ok for st, state in reached)


class TestDepthBoundedWithT:
    """Every circuit of gates of all kinds, T included, on 3 wires up to a
    depth bound. With T the reachable states are dense, so only the bound
    ends the search. T amplitudes are not of exact_key's form, so exact
    states are told apart by rounded_key: up to global phase and to 9
    decimals."""

    @pytest.mark.parametrize("mode, pairs", [(AnalysisMode.LEVELS, 996),
                                             (AnalysisMode.NO_LEVELS, 936)])
    def test_every_pair_within_depth_5_is_sound(self, mode, pairs):
        reached = list(reachable_pairs(3, mode, rounded_key, ALL_KINDS, depth=5))
        assert len(reached) == pairs
        for st, state in reached:
            assert check_soundness(st, state).ok
        concrete = {rounded_key(state): state for _, state in reached}
        assert len(concrete) == 761
        for state in concrete.values():
            finest(state)

    def test_unsafe_leveling_is_caught_within_depth_4(self):
        reached = list(reachable_pairs(3, AnalysisMode.UNSAFE_LEVELING, rounded_key, ALL_KINDS,
                                       depth=4))
        assert len(reached) == 294
        assert sum(not check_soundness(st, state).ok for st, state in reached) == 1
