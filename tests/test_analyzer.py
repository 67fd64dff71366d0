"""Transfer-function and whole-analysis tests for the abstract interpreter."""

from __future__ import annotations

import functools
import random

import pytest

from qent.analyzer import AnalysisMode, analyze, analyze_traced, apply_cx_at, apply_gate
from qent.circuit import I, Gate, GateKind, Seq, Tensor, parse_circuit
from qent.domain import AbstractState, BasisLabel, Partition, init_state
from helpers import (
    ALL_KINDS,
    PITFALL_LEVELS_ROWS,
    PITFALL_UNSAFE_ROWS,
    pad_at,
    pad_pair,
    random_circuit,
    run_pitfall_trace,
    state_row,
)

S, D, TOP = BasisLabel.S, BasisLabel.D, BasisLabel.TOP
LEVELS = AnalysisMode.LEVELS
NO_LEVELS = AnalysisMode.NO_LEVELS
UNSAFE = AnalysisMode.UNSAFE_LEVELING


def state(labels, sep_blocks=None, lvl_blocks=None):
    n = len(labels)
    sep = Partition.from_blocks(sep_blocks, n) if sep_blocks else Partition.singletons(n)
    lvl = Partition.from_blocks(lvl_blocks, n) if lvl_blocks else Partition.singletons(n)
    return AbstractState(list(labels), sep, lvl)


class TestSingleQubitRules:
    @pytest.mark.parametrize("kind", [GateKind.I, GateKind.X, GateKind.Y, GateKind.Z])
    @pytest.mark.parametrize("label", [S, D, TOP])
    def test_identity_and_pauli_do_nothing(self, kind, label):
        st = state([label, TOP], sep_blocks=[[0, 1]], lvl_blocks=[[0, 1]])
        before = state_row(st)
        apply_gate(st, kind, 0)
        assert state_row(st) == before

    def test_hadamard_flips_s_and_d(self):
        st = state([S])
        apply_gate(st, GateKind.H, 0)
        assert st.labels == [D]
        apply_gate(st, GateKind.H, 0)
        assert st.labels == [S]

    def test_hadamard_on_top_delevels(self):
        st = state([TOP, TOP], sep_blocks=[[0, 1]], lvl_blocks=[[0, 1]])
        apply_gate(st, GateKind.H, 0)
        assert st.labels == [TOP, TOP]
        assert st.lvl.blocks() == [[0], [1]]
        assert st.sep.blocks() == [[0, 1]]  # separability is untouched

    def test_t_gate(self):
        st = state([D])
        apply_gate(st, GateKind.T, 0)
        assert st.labels == [TOP]
        st = state([S])
        apply_gate(st, GateKind.T, 0)
        assert st.labels == [S]
        st = state([TOP])
        apply_gate(st, GateKind.T, 0)
        assert st.labels == [TOP]

    def test_swap(self):
        st = state([S, D])
        apply_gate(st, GateKind.SW, 0)
        assert st.labels == [D, S]

    def test_index_out_of_range(self):
        st = init_state(2)
        with pytest.raises(IndexError):
            apply_gate(st, GateKind.H, 2)
        with pytest.raises(IndexError):
            apply_gate(st, GateKind.CX, 1)


class TestCxCases:
    def test_case1_control_s(self):
        st = state([S, TOP])
        before = state_row(st)
        apply_cx_at(st, 0, 1)
        assert state_row(st) == before

    def test_case1_target_d(self):
        st = state([TOP, D])
        before = state_row(st)
        apply_cx_at(st, 0, 1)
        assert state_row(st) == before

    def test_case2_bell_creation(self):
        st = state([D, S, S])
        apply_gate(st, GateKind.CX, 0)
        assert st.labels == [TOP, TOP, S]
        assert st.sep.blocks() == [[0, 1], [2]]
        assert st.lvl.blocks() == [[0, 1], [2]]

    def test_case2_no_levels_mode_skips_level_join(self):
        st = state([D, S])
        apply_cx_at(st, 0, 1, NO_LEVELS)
        assert st.labels == [TOP, TOP]
        assert st.sep.blocks() == [[0, 1]]
        assert st.lvl.blocks() == [[0], [1]]

    def test_case3_leveled_split(self):
        st = state([TOP, TOP], sep_blocks=[[0, 1]], lvl_blocks=[[0, 1]])
        apply_cx_at(st, 1, 0)  # reversed orientation, index form
        assert st.labels == [S, TOP]
        assert st.sep.blocks() == [[0], [1]]
        assert st.lvl.blocks() == [[0], [1]]

    def test_case4_joins_sep_only(self):
        st = state([TOP, S, S])
        apply_cx_at(st, 0, 1, LEVELS)
        assert st.labels == [TOP, TOP, S]
        assert st.sep.blocks() == [[0, 1], [2]]
        assert st.lvl.blocks() == [[0], [1], [2]]

    def test_case4_unsafe_joins_levels_when_target_s(self):
        st = state([TOP, S, S])
        apply_cx_at(st, 0, 1, UNSAFE)
        assert st.lvl.blocks() == [[0, 1], [2]]

    def test_case4_unsafe_keeps_stale_level(self):
        # flawed mode leaves the target's old level claim in place
        st = state([D, TOP, TOP], lvl_blocks=[[0], [1, 2]], sep_blocks=[[0], [1, 2]])
        apply_cx_at(st, 0, 1, UNSAFE)
        assert st.lvl.blocks() == [[0], [1, 2]]

    def test_case4_delevels_target(self):
        # corrected mode: a superposed control breaks the target's old level
        st = state([D, TOP, TOP], lvl_blocks=[[0], [1, 2]], sep_blocks=[[0], [1, 2]])
        apply_cx_at(st, 0, 1, LEVELS)
        assert st.labels == [TOP, TOP, TOP]
        assert st.sep.blocks() == [[0, 1, 2]]
        assert st.lvl.blocks() == [[0], [1], [2]]

    def test_rejects_equal_or_bad_indices(self):
        st = init_state(3)
        with pytest.raises(ValueError):
            apply_cx_at(st, 1, 1)
        with pytest.raises(IndexError):
            apply_cx_at(st, 0, 3)


class TestAnalyzeExamples:
    def test_bell(self):
        st = analyze(parse_circuit("H ** I oo CX"))
        assert state_row(st) == (["top", "top"], [[0, 1]], [[0, 1]])

    def test_identity_circuit(self):
        st = analyze(parse_circuit("I ** I ** I"))
        assert state_row(st) == state_row(init_state(3))

    def test_double_cx_disentangles(self):
        st = analyze(parse_circuit("H ** I oo CX oo CX"))
        assert state_row(st) == (["top", "s"], [[0], [1]], [[0], [1]])

    def test_double_cx_no_levels(self):
        st = analyze(parse_circuit("H ** I oo CX oo CX"), NO_LEVELS)
        assert state_row(st) == (["top", "top"], [[0, 1]], [[0], [1]])


class TestLevelingPitfallTrace:
    def test_unsafe_rows(self):
        _, rows = run_pitfall_trace(UNSAFE)
        assert rows == PITFALL_UNSAFE_ROWS

    def test_levels_rows(self):
        _, rows = run_pitfall_trace(LEVELS)
        assert rows == PITFALL_LEVELS_ROWS

    def test_swap_encoding_matches_index_form(self):
        # cx(q,p) and cx(z,q) rewritten as SW-conjugated adjacent CX columns
        text = """
        H ** I ** I          # h(p)
        oo CX ** I           # cx(p,q)
        oo SW ** I oo CX ** I oo SW ** I   # cx(q,p)
        oo I ** H ** I       # h(q)
        oo I ** CX           # cx(q,z)
        oo H ** I ** I       # h(p)
        oo CX ** I           # cx(p,q)
        oo I ** SW oo I ** CX oo I ** SW   # cx(z,q)
        """
        circuit = parse_circuit(text)
        for mode in (LEVELS, UNSAFE, NO_LEVELS):
            direct, _ = run_pitfall_trace(mode, collect=False)
            assert state_row(analyze(circuit, mode)) == state_row(direct)

    def test_swap_conjugation_equals_reversed_cx(self):
        """SW ; CX(i,i+1) ; SW == CX(i+1,i) on arbitrary states, any mode."""
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(2, 6)
            st = random_abstract_state(rng, n)
            i = rng.randrange(n - 1)
            mode = rng.choice([LEVELS, NO_LEVELS, UNSAFE])
            via_swap = st.copy()
            via_swap.swap_adjacent(i)
            apply_cx_at(via_swap, i, i + 1, mode)
            via_swap.swap_adjacent(i)
            direct = st.copy()
            apply_cx_at(direct, i + 1, i, mode)
            assert state_row(via_swap) == state_row(direct)


def random_abstract_state(rng, n):
    """Reachable-shaped random state: labels free, lvl pairs inside sep blocks."""
    labels = [rng.choice([S, D, TOP]) for _ in range(n)]
    sep = Partition.singletons(n)
    for _ in range(rng.randint(0, n)):
        sep = sep.join(rng.randrange(n), rng.randrange(n))
    lvl = Partition.singletons(n)
    for block in sep.blocks():
        tops = [q for q in block if labels[q] is TOP]
        if len(tops) >= 2 and rng.random() < 0.6:
            a, b = rng.sample(tops, 2)
            lvl = lvl.join(a, b)
    return AbstractState(labels, sep, lvl)


class TestParallelOrderIrrelevance:
    @pytest.mark.parametrize("a_kind", ALL_KINDS)
    @pytest.mark.parametrize("b_kind", ALL_KINDS)
    def test_all_gate_pairs(self, a_kind, b_kind):
        a, b = Gate(a_kind), Gate(b_kind)

        def stack_i(k):
            return functools.reduce(Tensor, [I] * k)

        pair = Tensor(a, b)
        left_first = Seq(Tensor(a, stack_i(b.height)), Tensor(stack_i(a.height), b))
        right_first = Seq(Tensor(stack_i(a.height), b), Tensor(a, stack_i(b.height)))
        for mode in (LEVELS, NO_LEVELS, UNSAFE):
            want = state_row(analyze(pair, mode))
            assert state_row(analyze(left_first, mode)) == want
            assert state_row(analyze(right_first, mode)) == want

    def test_with_random_prefix(self):
        """Order also commutes from arbitrary reachable states, not just |0..0>."""
        rng = random.Random(29)
        for a_kind in ALL_KINDS:
            for b_kind in ALL_KINDS:
                a, b = Gate(a_kind), Gate(b_kind)
                for _ in range(3):
                    pad = rng.randint(0, 2)
                    n = a.height + b.height + pad
                    a_off = rng.randint(0, pad)
                    b_off = a_off + a.height
                    prefix = random_circuit(rng, n, rng.randint(1, 5))
                    column = pad_pair(a, a_off, b, b_off, n)
                    for mode in (LEVELS, NO_LEVELS, UNSAFE):
                        forms = [
                            Seq(prefix, column),
                            Seq(Seq(prefix, pad_at(a, a_off, n)), pad_at(b, b_off, n)),
                            Seq(Seq(prefix, pad_at(b, b_off, n)), pad_at(a, a_off, n)),
                        ]
                        results = [state_row(analyze(f, mode)) for f in forms]
                        assert results[0] == results[1] == results[2]


class TestModeInvariants:
    def _random_circuits(self, count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            yield random_circuit(rng, rng.randint(1, 6), rng.randint(1, 15))

    def test_levels_blocks_are_pairs_inside_sep(self):
        for c in self._random_circuits(200, 31):
            _, steps = analyze_traced(c, LEVELS)
            for step in steps:
                for block in step.state.lvl.blocks():
                    if len(block) > 1:
                        assert len(block) == 2
                        assert step.state.sep.same_block(block[0], block[1])

    def test_no_levels_keeps_lvl_singleton(self):
        for c in self._random_circuits(200, 37):
            _, steps = analyze_traced(c, NO_LEVELS)
            for step in steps:
                assert all(len(b) == 1 for b in step.state.lvl.blocks())

    def test_no_levels_sep_is_monotone(self):
        """Modulo SW wire relabeling, entanglement blocks only ever merge."""
        for c in self._random_circuits(200, 41):
            _, steps = analyze_traced(c, NO_LEVELS)
            n = steps[0].state.n
            pos = list(range(n))  # original wire -> current position

            def pulled_back(sep):
                return Partition(
                    tuple(min(w for w in range(n) if sep.same_block(pos[w], pos[v]))
                          for v in range(n)))

            prev = init_state(n).sep
            for step in steps:
                if step.gate is GateKind.SW:
                    i = step.index
                    a = pos.index(i)
                    b = pos.index(i + 1)
                    pos[a], pos[b] = pos[b], pos[a]
                cur = pulled_back(step.state.sep)
                for block in prev.blocks():
                    rep = block[0]
                    assert all(cur.same_block(rep, q) for q in block)
                prev = cur

    def test_levels_sep_refines_no_levels_sep(self):
        for c in self._random_circuits(300, 43):
            fine = analyze(c, LEVELS).sep
            coarse = analyze(c, NO_LEVELS).sep
            for block in fine.blocks():
                rep = block[0]
                assert all(coarse.same_block(rep, q) for q in block)


class TestTrace:
    def test_snapshots_are_deep_copies(self):
        _, steps = analyze_traced(parse_circuit("H ** I oo CX"))
        assert [s.gate for s in steps] == [GateKind.H, GateKind.I, GateKind.CX]
        first = steps[0].state
        assert first.labels == [D, S]
        # mutating a later snapshot must not leak into an earlier one
        steps[2].state.labels[0] = S
        assert steps[0].state.labels == [D, S]

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_final_state_matches_last_snapshot(self, mode):
        rng = random.Random(47)
        for _ in range(50):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 8))
            final, steps = analyze_traced(c, mode)
            assert state_row(final) == state_row(steps[-1].state)
            assert state_row(final) == state_row(analyze(c, mode))
