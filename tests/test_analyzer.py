"""Transfer-function and whole-analysis tests for the abstract interpreter."""

from __future__ import annotations

import copy
import functools
import itertools
import pickle
import random

import pytest

import qent.analyzer
import qent.circuit
from qent.analyzer import AnalysisMode, _walk, analyze, analyze_traced, apply_cx_at, apply_gate
from qent.circuit import I, Gate, GateKind, Seq, Tensor, parse_circuit, parse_program, unparse
from qent.domain import AbstractState, BasisLabel, Partition, init_state
from helpers import (
    ALL_KINDS,
    PITFALL_LEVELS_ROWS,
    PITFALL_UNSAFE_ROWS,
    NaivePartition,
    forbid,
    holds_invariants,
    invariant_states,
    pad_at,
    pad_pair,
    random_circuit,
    reference_cx,
    reference_rows,
    run_pitfall_trace,
    state_row,
    validate_partition,
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

    @pytest.mark.parametrize("n, applications", [(3, 930), (4, 11_748)],
                             ids=["3-wires", "4-wires"])
    def test_equals_the_papers_cases_on_every_invariant_state(self, n, applications):
        """apply_cx_at, which tests case 3 before case 2, gives what
        helpers.reference_cx gives by trying the paper's four cases in order,
        from every state on n wires that satisfies a mode's invariants and
        for every ordered pair of wires, upward and non-adjacent ones too."""
        count = 0
        for mode in AnalysisMode:
            for labels, sep, lvl in invariant_states(n, mode):
                for control, target in itertools.permutations(range(n), 2):
                    st = AbstractState(list(labels), Partition(sep), Partition(lvl))
                    apply_cx_at(st, control, target, mode)
                    names = [label.value for label in labels]
                    ref_sep, ref_lvl = reference_cx(names, NaivePartition(sep),
                                                    NaivePartition(lvl), control, target, mode)
                    assert state_row(st) == (names, ref_sep.as_sorted_blocks(),
                                             ref_lvl.as_sorted_blocks()), \
                        (mode.value, control, target, labels, sep, lvl)
                    count += 1
        assert count == applications

    def test_rejects_equal_or_bad_indices(self):
        st = init_state(3)
        with pytest.raises(ValueError):
            apply_cx_at(st, 1, 1)
        with pytest.raises(IndexError):
            apply_cx_at(st, 0, 3)


class TestArgumentValues:
    """The entry points read the mode they are given, and apply_gate the gate
    kind: a member or its value acts as the member, and anything else raises
    ValueError."""

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_mode_value_acts_as_member(self, mode):
        """On every state on 3 wires that satisfies the mode's invariants, for
        every gate and CX pair, and on random circuits."""
        for labels, sep, lvl in invariant_states(3, mode):
            updates = [(apply_gate, kind, q) for kind in GateKind for q in range(4 - kind.height)]
            updates += [(apply_cx_at, *pair) for pair in itertools.permutations(range(3), 2)]
            for update, *args in updates:
                rows = [state_row(update(AbstractState(list(labels), Partition(sep),
                                                       Partition(lvl)), *args, m))
                        for m in (mode, mode.value)]
                assert rows[0] == rows[1], (update.__name__, args, labels, sep, lvl)
        rng = random.Random(5)
        for _ in range(300):
            c = random_circuit(rng, rng.randint(2, 6), rng.randint(1, 12))
            assert state_row(analyze(c, mode.value)) == state_row(analyze(c, mode))
            traces = [[state_row(final), [(step.gate, step.index, state_row(step.state))
                                          for step in steps]]
                      for final, steps in (analyze_traced(c, m) for m in (mode, mode.value))]
            assert traces[0] == traces[1]

    @pytest.mark.parametrize("foreign", ["bogus", "LEVELS", None, GateKind.H],
                             ids=["bogus", "member-name", "None", "GateKind"])
    def test_foreign_mode_raises(self, foreign):
        circuit = parse_circuit("H ** I oo CX")
        calls = [lambda: analyze(circuit, foreign), lambda: analyze_traced(circuit, foreign),
                 lambda: apply_gate(init_state(2), GateKind.I, 0, foreign),
                 lambda: apply_cx_at(init_state(2), 0, 1, foreign)]
        for call in calls:
            with pytest.raises(ValueError, match="is not a valid AnalysisMode"):
                call()

    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
    def test_kind_value_acts_as_member(self, kind):
        rows = [state_row(apply_gate(state([D, S, TOP]), k, 0)) for k in (kind, kind.value)]
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("foreign", [qent.circuit.H, "h", "CNOT", None],
                             ids=["Gate-node", "lowercase", "unknown", "None"])
    def test_foreign_kind_raises(self, foreign):
        st = state([D, S])
        with pytest.raises(ValueError, match="is not a valid GateKind"):
            apply_gate(st, foreign, 0)
        assert state_row(st) == state_row(state([D, S]))


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


def separability_work(monkeypatch):
    """A function that runs analyze(circuit, mode) and returns how many joins
    and how many splits changed the separability member list, the `sep` that
    the final analyzer._snapshot call receives: analyzer._join and _split
    record each call with its list, and _snapshot the lists it receives."""
    calls, seps = [], []
    snapshot = qent.analyzer._snapshot

    def snapped(labels, sep, lvl):
        seps.append(sep)
        return snapshot(labels, sep, lvl)

    def recording(name):
        op = getattr(qent.analyzer, name)

        def recorded(members, *qubits):
            changed = op(members, *qubits)
            calls.append((name, members, changed))
            return changed
        return recorded

    monkeypatch.setattr(qent.analyzer, "_snapshot", snapped)
    for name in ("_join", "_split"):
        monkeypatch.setattr(qent.analyzer, name, recording(name))

    def work(circuit, mode):
        calls.clear()
        analyze(circuit, mode)
        return tuple(sum(changed and members is seps[-1] for op, members, changed in calls
                         if op == name) for name in ("_join", "_split"))
    return work


class TestModeInvariants:
    def _random_circuits(self, count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            yield random_circuit(rng, rng.randint(1, 6), rng.randint(1, 15))

    def _wide_circuits(self):
        rng = random.Random(21)
        for _ in range(500):
            yield random_circuit(rng, rng.randint(2, 24), rng.randint(1, 30))

    def test_levels_blocks_are_pairs_inside_sep(self):
        """The bound on partition work rests on this: in LEVELS a level block
        is one qubit or a pair of `top` qubits in one separability block, so
        no `s`/`d` qubit is ever leveled. (UNSAFE_LEVELING breaks it.)"""
        pairs = 0
        for c in [*self._random_circuits(200, 31), *self._wide_circuits()]:
            _, steps = analyze_traced(c, LEVELS)
            for step in steps:
                labels = step.state.labels
                for block in step.state.lvl.blocks():
                    if len(block) > 1:
                        assert len(block) == 2
                        assert step.state.sep.same_block(block[0], block[1])
                        assert [labels[m] for m in block] == [BasisLabel.TOP] * 2
                        pairs += 1
        assert pairs > 0

    def test_separability_work_is_bounded(self, monkeypatch):
        """In LEVELS the separability partition splits only in CX case 3,
        which turns a `top` target back into `s` and leaves its control a
        `top` that is never leveled again, so over any number of gates there
        are at most n splits; each join that changes anything removes a
        block, so there are at most n - 1 + splits <= 2n - 1 of them. In
        NO_LEVELS it never splits. The chain (H, CX, CX at each wire) makes
        n - 1 splits."""
        work = separability_work(monkeypatch)
        for c in self._wide_circuits():
            n = c.height
            joins, splits = work(c, LEVELS)
            assert splits <= n and joins <= 2 * n - 1
            assert work(c, NO_LEVELS)[1] == 0
        for n in range(2, 65):
            chain = functools.reduce(Seq, [pad_at(Gate(kind), q, n) for q in range(n - 1)
                                           for kind in (GateKind.H, GateKind.CX, GateKind.CX)])
            assert work(chain, LEVELS) == (n - 1, n - 1)
            assert work(chain, NO_LEVELS) == (n - 1, 0)

    def test_no_levels_keeps_lvl_singleton(self):
        """I1, on every snapshot."""
        for c in [*self._random_circuits(200, 37), *self._wide_circuits()]:
            _, steps = analyze_traced(c, NO_LEVELS)
            for step in steps:
                assert all(len(b) == 1 for b in step.state.lvl.blocks())

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_invariants_hold_on_every_snapshot(self, mode):
        """The mode's invariants (helpers.holds_invariants: I2, and I1 in
        NO_LEVELS), on every snapshot."""
        for c in [*self._random_circuits(200, 47), *self._wide_circuits()]:
            _, steps = analyze_traced(c, mode)
            for step in steps:
                st = step.state
                assert holds_invariants(st.labels, st.sep.members, st.lvl.members, mode), \
                    state_row(st)

    @pytest.mark.parametrize("n, counts", [(3, (49, 37, 69)), (4, (259, 151, 569))],
                             ids=["3-wires", "4-wires"])
    def test_invariants_are_inductive(self, n, counts):
        """From every state on n wires that satisfies a mode's invariants,
        reached or not, every rule at every base wire gives a state that
        satisfies them again, with both partitions well formed, and returns
        True exactly when the state changed: CX case 4 and analyze_traced
        rely on that flag. Counts are per mode, in AnalysisMode order."""
        for mode, count in zip(AnalysisMode, counts):
            states = list(invariant_states(n, mode))
            assert len(states) == count
            for labels, sep, lvl in states:
                for kind, rule in qent.analyzer._RULES.items():
                    for q in range(n - kind.height + 1):
                        b, sp, lv = list(labels), list(sep), list(lvl)
                        changed = rule(b, sp, lv, q, mode)
                        where = (mode.value, kind.value, q, labels, sep, lvl)
                        assert holds_invariants(b, sp, lv, mode), where
                        validate_partition(Partition(tuple(sp)))
                        validate_partition(Partition(tuple(lv)))
                        assert changed is ((b, sp, lv) != (labels, list(sep), list(lvl))), where

    def test_no_levels_sep_is_monotone(self):
        """Modulo SW wire relabeling, entanglement blocks only ever merge."""
        for c in self._random_circuits(200, 41):
            _, steps = analyze_traced(c, NO_LEVELS)
            n = steps[0].state.n
            pos = list(range(n))  # original wire -> current position

            def pulled_back(sep):
                return Partition.from_blocks(
                    {tuple(w for w in range(n) if sep.same_block(pos[w], pos[v]))
                     for v in range(n)}, n)

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
    def test_step_has_slots_and_survives_pickle_and_copy(self):
        _, steps = analyze_traced(parse_circuit("H ** I oo CX"))
        step = steps[-1]
        assert not hasattr(step, "__dict__")
        for clone in (pickle.loads(pickle.dumps(step)), copy.copy(step), copy.deepcopy(step)):
            assert (clone.gate, clone.index) == (GateKind.CX, 0)
            assert state_row(clone.state) == state_row(step.state)

    def test_snapshots_are_deep_copies(self):
        _, steps = analyze_traced(parse_circuit("H ** I oo CX"))
        assert [s.gate for s in steps] == [GateKind.H, GateKind.I, GateKind.CX]
        first = steps[0].state
        assert first.labels == [D, S]
        # mutating a later snapshot must not leak into an earlier one
        steps[2].state.labels[0] = S
        assert steps[0].state.labels == [D, S]

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_unchanged_steps_share_snapshots(self, mode):
        rng = random.Random(53)
        for _ in range(100):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 10))
            _, steps = analyze_traced(c, mode)
            n = steps[0].state.n
            rows = [state_row(step.state) for step in steps]
            prefix = None
            for k, step in enumerate(steps):
                column = pad_at(Gate(step.gate), step.index, n)
                prefix = column if prefix is None else Seq(prefix, column)
                assert rows[k] == state_row(analyze(prefix, mode))
                if k:
                    assert (step.state is steps[k - 1].state) == (rows[k] == rows[k - 1])
            changes = sum(rows[k] != rows[k - 1] for k in range(1, len(rows)))
            assert len({id(step.state) for step in steps}) == 1 + changes

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_final_state_matches_last_snapshot(self, mode):
        rng = random.Random(47)
        for _ in range(50):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 8))
            final, steps = analyze_traced(c, mode)
            assert state_row(final) == state_row(steps[-1].state)
            assert state_row(final) == state_row(analyze(c, mode))


class TestOneWalk:
    """`_walk` over several modes keeps one working state per mode in one
    pass over the gates: each mode ends where its own analysis does."""

    MODES = [*itertools.product(AnalysisMode, repeat=2), tuple(AnalysisMode)]

    def test_equal_to_one_analysis_per_mode(self):
        rng = random.Random(83)
        for _ in range(500):
            circuit = random_circuit(rng, rng.randint(1, 8), rng.randint(1, 10))
            alone = {mode: state_row(analyze(circuit, mode)) for mode in AnalysisMode}
            for modes in self.MODES:
                states = _walk(circuit, modes)
                assert [state_row(st) for st in states] == [alone[mode] for mode in modes]
                assert len({id(st) for st in states}) == len(modes)
                for st in states:
                    assert_blocks_shared(st)


    def test_a_program_walks_as_its_tree(self):
        """A Program and its tree give the same end states in every mode
        list, and the same trace step for step."""
        rng = random.Random(84)
        for _ in range(200):
            circuit = random_circuit(rng, rng.randint(1, 8), rng.randint(1, 10))
            program = parse_program(unparse(circuit))
            for modes in self.MODES:
                assert ([state_row(st) for st in _walk(program, modes)]
                        == [state_row(st) for st in _walk(circuit, modes)])
            tree_end, tree_steps = analyze_traced(circuit)
            end, steps = analyze_traced(program)
            assert state_row(end) == state_row(tree_end)
            assert ([(s.gate, s.index, state_row(s.state)) for s in steps]
                    == [(s.gate, s.index, state_row(s.state)) for s in tree_steps])


def shifted(blocks, offset):
    return [[q + offset for q in block] for block in blocks]


class TestCompositionLaw:
    """Analyzing A ** B gives A's state beside B's: B's labels after A's, and
    B's blocks with their wires shifted by A's height, in every mode, through
    the tree and through parse_program."""

    def test_tensor_is_side_by_side(self):
        rng = random.Random(97)
        for _ in range(1500):
            a = random_circuit(rng, rng.randint(2, 9), rng.randint(1, 14))
            b = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 14))
            both = Tensor(a, b)
            program = parse_program(unparse(both))
            for mode in AnalysisMode:
                sa, sb = analyze(a, mode), analyze(b, mode)
                beside = (sa.labels + sb.labels,
                          sa.sep.blocks() + shifted(sb.sep.blocks(), a.height),
                          sa.lvl.blocks() + shifted(sb.lvl.blocks(), a.height))
                for circuit in (both, program):
                    st = analyze(circuit, mode)
                    assert (st.labels, st.sep.blocks(), st.lvl.blocks()) == beside


# H and CX-heavy, so that wide blocks form, split and move under SW
BLOCK_HEAVY = [GateKind.H, GateKind.H, GateKind.CX, GateKind.CX, GateKind.CX, GateKind.SW,
               GateKind.SW, GateKind.T, GateKind.X]


def check_against_reference(circuit, mode):
    """analyze and every snapshot of analyze_traced equal reference_rows, and
    a step shares the previous snapshot exactly when its row is unchanged."""
    rows = reference_rows(circuit, mode)
    final = analyze(circuit, mode)
    assert state_row(final) == rows[-1]
    assert_blocks_shared(final)
    final, steps = analyze_traced(circuit, mode)
    assert state_row(final) == rows[-1]
    prev_state = prev_row = None
    for step, row in zip(steps, rows, strict=True):
        assert (step.state is prev_state) == (row is prev_row)
        if step.state is not prev_state:
            assert state_row(step.state) == row
            assert_blocks_shared(step.state)
        prev_state, prev_row = step.state, row


def assert_blocks_shared(st):
    """All members of a block hold one frozenset object."""
    for partition in (st.sep, st.lvl):
        validate_partition(partition)
        assert len(set(map(id, partition.members))) == len(partition.blocks())


class TestAgainstReference:
    """The in-place analysis against a reference over NaivePartition."""

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_narrow_circuits(self, mode):
        rng = random.Random(61)
        for k in range(300):
            kinds = BLOCK_HEAVY if k % 2 else ALL_KINDS
            circuit = random_circuit(rng, rng.randint(1, 12), rng.randint(1, 12), kinds)
            check_against_reference(circuit, mode)

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_wide_circuits(self, mode):
        # wide blocks are where re-pointing only a changed block's members
        # could leave a stale reference behind
        rng = random.Random(67)
        for k in range(6):
            kinds = BLOCK_HEAVY if k % 3 else ALL_KINDS
            circuit = random_circuit(rng, rng.randint(64, 512), rng.randint(2, 6), kinds)
            check_against_reference(circuit, mode)


class TestUpdateCost:
    """The analysis runs the in-place rules on member lists: it calls no
    Partition operation, which would copy all n block references, and a
    trace never compares two states."""

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    def test_analysis_calls_no_partition_operation(self, monkeypatch, mode):
        rng = random.Random(71)
        circuits = [random_circuit(rng, rng.randint(1, 100), rng.randint(1, 8), BLOCK_HEAVY)
                    for _ in range(20)]
        forbid(monkeypatch, Partition, "join", "split", "swapped")
        for circuit in circuits:
            check_against_reference(circuit, mode)

    @pytest.mark.parametrize("kinds", [
        [GateKind.I, GateKind.X, GateKind.Y, GateKind.Z],
        # without H no wire leaves s: every T, CX and SW is a no-op
        [GateKind.I, GateKind.X, GateKind.T, GateKind.CX, GateKind.SW],
    ], ids=["paulis", "no-h"])
    def test_trace_of_no_op_gates_compares_no_states(self, monkeypatch, kinds):
        circuit = random_circuit(random.Random(73), 1024, 20, kinds)
        forbid(monkeypatch, AbstractState, "__eq__")
        forbid(monkeypatch, Partition, "__eq__")
        final, steps = analyze_traced(circuit)
        assert len(steps) > 10000
        assert len({id(step.state) for step in steps}) == 1
        assert state_row(final) == state_row(init_state(1024))

    def test_trace_compares_no_states(self, monkeypatch):
        rng = random.Random(79)
        circuits = [random_circuit(rng, rng.randint(1, 64), rng.randint(1, 10), BLOCK_HEAVY)
                    for _ in range(20)]
        forbid(monkeypatch, AbstractState, "__eq__")
        forbid(monkeypatch, Partition, "__eq__")
        for mode in AnalysisMode:
            for circuit in circuits:
                check_against_reference(circuit, mode)
