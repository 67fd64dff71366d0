"""Abstract interpreter: gate rules over the label/partition domain.

One analysis pass visits the gates in `iter_gates` order, a Program's
`(kind, wire)` pairs as they stand or a tree's read one at a time from
`iter_gates`, and applies each gate's transfer function.
The transfer functions live in one table, `_RULES`, mapping a GateKind to a
rule `rule(labels, sep, lvl, wire, mode)` that updates the labels and the
two partitions' member lists (see `domain`) in place at the gate's base
wire, and returns whether the state's value changed:

* H swaps the labels s and d; on a top wire it drops the wire's level
  (the superposition breaks any correlation it had with third qubits).
  Like T, it reads no mode.
* T turns d into top and leaves s and top alone.
* CX acts on (wire, wire + 1) by the four cases documented at
  `apply_cx_at`. Cases 2 and 4 share one entangling branch, and the modes
  differ only in that branch's level update.
* SW exchanges the two wires across labels and both partitions.

I, X, Y and Z preserve every basis: their entry is None, an abstract no-op.
The table has an entry for every GateKind. A Program is valid by
construction and a tree's gates are GateKinds, so `_walk` indexes the table
and checks nothing; `apply_gate` refuses a kind that is not a GateKind with
ValueError, and every wire goes through `circuit._check_wires`. One loop,
`_walk`, serves `analyze`, `analyze_traced` and the CLI's
`compare`: it keeps one working copy of the state per mode it is given and
applies each gate's rule to every copy, so `compare`'s two modes take one
pass over the gates. A trace comes with exactly one mode. `apply_gate`,
`apply_cx_at` and `AbstractState.swap_adjacent` run the same rules on a
given state and rebind its partitions. Three rule modes are selectable; the
four functions that take a mode take an AnalysisMode or its value
("no-levels"), and raise ValueError on anything else:

* LEVELS (default): full rules. CX joins the entanglement partition when
  it can entangle, marks a fresh diagonal-control/standard-target pair as
  leveled, and uses a tracked level to split the target back out when the
  same pair is CX'd again.
* NO_LEVELS: the entangling branch leaves the levels alone, so from
  `init_state` its level blocks stay singletons (I1 below), CX case 3
  never fires and entanglement blocks only ever grow.
* UNSAFE_LEVELING: deliberately flawed variant that marks qubits as
  leveled whenever the CX target is labeled s, regardless of the control
  label. Kept for demonstrating (via the oracle) how that rule lets the
  analysis claim an entangled qubit is separable.

Two invariants hold on every state reachable from `init_state` in a given
mode:

* I1 (NO_LEVELS): every level block is a singleton. Levels are joined only
  by CX's entangling branch (cases 2 and 4), whose level update NO_LEVELS
  leaves out.
* I2 (every mode): a qubit labeled s or d is a singleton in both
  partitions. Only the start, H (no block changes) and CX case 3 (which
  splits its target from both) make s or d; every join labels both qubits
  top; SW moves labels with their blocks.

Four places test nothing because of them, so a rule that breaks one
breaks these too: CX case 3 tests `target in lvl[control]` in every mode
(by I1 false in NO_LEVELS); CX tests case 3 before case 2 (by I2 a fresh
pair's wires are level singletons, so they share no level block); CX's
entangling branch reports a change only through the separability join and
the level update (by I2 a label it turns top belonged to a singleton, so
the join changes); H on a top wire splits its level in every mode (by I1
an O(1) no-op in NO_LEVELS). The rules assume the invariants of their
mode: on a state that breaks them (which only a caller that builds its own
`AbstractState` can pass to `apply_gate` or `apply_cx_at`), NO_LEVELS
splits by CX case 3 and by H on a top wire as LEVELS does, and CX takes
case 3 for a d control and s target that share a level block.

Cost per gate is O(1) for labels. A partition update that changes
nothing (a join within a block, a split of a singleton, a swap of two
singletons or within a block) is O(1); one that changes blocks re-points
only the members of the blocks it changes, O(|Bi| + |Bj|). `analyze`
builds the two `Partition` values once, at the end, so a full analysis is
O(n) plus the sizes of the blocks changed by its m gates, at most
O(n * m), per mode; the pass over the gates is paid once for all modes. A
trace takes a snapshot, O(n), only after a gate whose rule reports a
change; a step that changes nothing costs O(1) and compares no states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuit import CircuitAst, GateKind, Program, _check_wires, iter_gates, validate
from .domain import AbstractState, BasisLabel, Partition, _join, _split, _swap_adjacent, init_state

_S = BasisLabel.S
_D = BasisLabel.D
_TOP = BasisLabel.TOP


class AnalysisMode(Enum):
    LEVELS = "levels"
    NO_LEVELS = "no-levels"
    UNSAFE_LEVELING = "unsafe-leveling"


@dataclass(slots=True)
class TraceStep:
    """The state after one gate application.

    A step whose gate left the state unchanged shares the previous step's
    snapshot object, so snapshots are read-only.
    """

    gate: GateKind
    index: int
    state: AbstractState


def apply_cx_at(st: AbstractState, control: int, target: int,
                mode: AnalysisMode = AnalysisMode.LEVELS) -> AbstractState:
    """CX transfer function at arbitrary wire indices, mutating st.

    The paper's cases, each applying when the ones before it do not:
      1. control s, or target d: the gate preserves every basis, nothing
         changes.
      2. control d and target s: the pair becomes a Bell pair; join both
         partitions (level join skipped in NO_LEVELS) and mark both top.
      3. control and target tracked on the same level: the gate undoes
         the correlation; the target ends in a basis state, split out of
         both partitions and relabeled s.
      4. otherwise the gate may entangle: join the entanglement blocks
         and mark both top. In LEVELS mode the target is also de-leveled,
         because a superposed control breaks any correlation the target
         had with third qubits. In UNSAFE_LEVELING mode the pair is
         instead marked leveled whenever the target was labeled s.

    The code tests case 1, then case 3, then cases 2 and 4 as one
    entangling branch: both wires become top, their entanglement blocks
    join, and only the level update reads the mode. The order gives the
    paper's results because by invariant I2 a d or s wire is alone in the
    level partition, so a case-2 pair never shares a level block. st must
    satisfy the mode's invariants (see the module docstring), as every
    state reached from init_state in that mode does.
    """
    mode = AnalysisMode(mode)
    _check_wires(st.n, control, target)
    if control == target:
        raise ValueError("cx control and target must differ")
    st._apply(_cx_at, control, target, mode)
    return st


def _cx_at(b: list[BasisLabel], sep: list, lvl: list, control: int, target: int,
           mode: AnalysisMode) -> bool:
    """apply_cx_at's cases over member lists; True if the state changed."""
    bc, bt = b[control], b[target]
    if bc is _S or bt is _D:
        return False
    if target in lvl[control]:
        # a shared level block holds both, so the level split always changes
        b[target] = _S
        _split(sep, target)
        _split(lvl, target)
        return True
    b[control] = b[target] = _TOP
    changed = _join(sep, control, target)
    if mode is AnalysisMode.LEVELS:
        changed = (_join(lvl, control, target) if bc is _D and bt is _S
                   else _split(lvl, target)) or changed
    elif mode is AnalysisMode.UNSAFE_LEVELING and bt is _S:
        changed = _join(lvl, control, target) or changed
    return changed


def _h(labels: list[BasisLabel], sep: list, lvl: list, q: int, mode: AnalysisMode) -> bool:
    lbl = labels[q]
    if lbl is _S:
        labels[q] = _D
    elif lbl is _D:
        labels[q] = _S
    else:
        return _split(lvl, q)
    return True


def _t(labels: list[BasisLabel], sep: list, lvl: list, q: int, mode: AnalysisMode) -> bool:
    if labels[q] is _D:
        labels[q] = _TOP
        return True
    return False


def _cx(labels: list[BasisLabel], sep: list, lvl: list, q: int, mode: AnalysisMode) -> bool:
    return _cx_at(labels, sep, lvl, q, q + 1, mode)


# One entry per GateKind; I, X, Y and Z preserve every basis, so theirs is None.
_RULES = {GateKind.H: _h, GateKind.T: _t, GateKind.CX: _cx, GateKind.SW: _swap_adjacent,
          GateKind.I: None, GateKind.X: None, GateKind.Y: None, GateKind.Z: None}


def apply_gate(st: AbstractState, kind: GateKind, index: int,
               mode: AnalysisMode = AnalysisMode.LEVELS) -> AbstractState:
    """Apply one gate's transfer function at the given base wire, mutating st.

    kind is a GateKind or its value ("CX"), not a tree's Gate node. st must
    satisfy the mode's invariants (see the module docstring), as every state
    reached from init_state in that mode does.
    """
    kind = GateKind(kind)
    mode = AnalysisMode(mode)
    _check_wires(st.n, index, index + kind.height - 1)
    rule = _RULES[kind]
    if rule is not None:
        st._apply(rule, index, mode)
    return st


def _snapshot(labels: list[BasisLabel], sep: list, lvl: list) -> AbstractState:
    """A state of its own made from the working labels and member lists."""
    return AbstractState(list(labels), Partition(tuple(sep)), Partition(tuple(lvl)))


def _walk(circuit: CircuitAst | Program, modes: tuple[AnalysisMode, ...],
          steps: list[TraceStep] | None = None) -> list[AbstractState]:
    """The one analysis loop, from the all-|0> state: one working state per
    mode, and each gate's rule applied to every one of them in one pass over
    the gates, a Program's (kind, wire) pairs or a tree's (gate.kind, wire)
    pairs from iter_gates. Returns a snapshot of each end state, in the
    order of modes. Given a steps list, and then exactly one mode, it also
    appends one TraceStep per gate. It checks nothing: a Program is valid by
    construction, and so is a tree."""
    if isinstance(circuit, Program):
        n, gates = circuit.n, zip(circuit.kinds, circuit.wires)
    else:
        n, gates = validate(circuit), ((gate.kind, q) for gate, q in iter_gates(circuit))
    st = init_state(n)
    work = [([*st.labels], [*st.sep.members], [*st.lvl.members], AnalysisMode(m)) for m in modes]
    if steps is not None:
        (labels, sep, lvl, _), = work
        snap = _snapshot(labels, sep, lvl)
    rules = _RULES
    for kind, index in gates:
        rule = rules[kind]
        if rule is None:
            changed = False
        else:
            for labels, sep, lvl, mode in work:
                changed = rule(labels, sep, lvl, index, mode)
        if steps is not None:
            if changed:
                snap = _snapshot(labels, sep, lvl)
            steps.append(TraceStep(kind, index, snap))
    return [_snapshot(labels, sep, lvl) for labels, sep, lvl, _ in work]


def analyze(circuit: CircuitAst | Program,
            mode: AnalysisMode = AnalysisMode.LEVELS) -> AbstractState:
    """Run the analysis over a circuit, a tree or a Program, from the all-|0> state."""
    return _walk(circuit, (mode,))[0]


def analyze_traced(circuit: CircuitAst | Program,
                   mode: AnalysisMode = AnalysisMode.LEVELS,
                   ) -> tuple[AbstractState, list[TraceStep]]:
    """Like analyze(), also returning one TraceStep per gate.

    A snapshot is taken only after a gate whose rule reports a change; a
    step whose state did not change shares the previous step's read-only
    snapshot.
    """
    steps: list[TraceStep] = []
    return _walk(circuit, (mode,), steps)[0], steps
