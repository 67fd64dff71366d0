"""Abstract interpreter: gate rules over the label/partition domain.

One analysis pass visits the gates in `iter_gates` order and applies each
gate's transfer function. The transfer functions live in one table,
`_RULES`, mapping a GateKind to a rule `rule(state, wire, mode)` that
mutates the state at the gate's base wire:

* H swaps the labels s and d; on a top wire it drops the wire's level
  (the superposition breaks any correlation it had with third qubits).
* T turns d into top and leaves s and top alone.
* CX is `apply_cx_at(state, wire, wire + 1, mode)`; its four cases are
  documented there.
* SW exchanges the two wires across labels and both partitions.

I, X, Y and Z preserve every basis, so they have no entry: they are
abstract no-ops. `analyze`, `analyze_traced` and `apply_gate` all
dispatch through the table. Three rule modes are selectable:

* LEVELS (default): full rules. CX joins the entanglement partition when
  it can entangle, marks a fresh diagonal-control/standard-target pair as
  leveled, and uses a tracked level to split the target back out when the
  same pair is CX'd again.
* NO_LEVELS: ignores the level partition entirely; entanglement blocks
  only ever grow.
* UNSAFE_LEVELING: deliberately flawed variant that marks qubits as
  leveled whenever the CX target is labeled s, regardless of the control
  label. Kept for demonstrating (via the oracle) how that rule lets the
  analysis claim an entangled qubit is separable.

Cost per gate is O(1) for labels plus O(n) for a partition update, so a
full analysis is O(n * m) for n qubits and m gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuit import CircuitAst, GateKind, iter_gates, validate
from .domain import AbstractState, BasisLabel, init_state

_S = BasisLabel.S
_D = BasisLabel.D
_TOP = BasisLabel.TOP


class AnalysisMode(Enum):
    LEVELS = "levels"
    NO_LEVELS = "no-levels"
    UNSAFE_LEVELING = "unsafe-leveling"


@dataclass
class TraceStep:
    """Snapshot taken after one gate application."""

    gate: GateKind
    index: int
    state: AbstractState


def apply_cx_at(st: AbstractState, control: int, target: int,
                mode: AnalysisMode = AnalysisMode.LEVELS) -> AbstractState:
    """CX transfer function at arbitrary wire indices, mutating st.

    Cases are tried in order:
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
    """
    n = st.n
    if not (0 <= control < n and 0 <= target < n):
        raise IndexError(f"cx({control},{target}) out of range for n={n}")
    if control == target:
        raise ValueError("cx control and target must differ")

    b = st.labels
    bc, bt = b[control], b[target]
    if bc is _S or bt is _D:
        return st
    if bc is _D and bt is _S:
        b[control] = b[target] = _TOP
        st.sep = st.sep.join(control, target)
        if mode is not AnalysisMode.NO_LEVELS:
            st.lvl = st.lvl.join(control, target)
        return st
    if mode is not AnalysisMode.NO_LEVELS and st.lvl.same_block(control, target):
        b[target] = _S
        st.sep = st.sep.split(target)
        st.lvl = st.lvl.split(target)
        return st
    b[control] = b[target] = _TOP
    st.sep = st.sep.join(control, target)
    if mode is AnalysisMode.LEVELS:
        st.lvl = st.lvl.split(target)
    elif mode is AnalysisMode.UNSAFE_LEVELING and bt is _S:
        st.lvl = st.lvl.join(control, target)
    return st


def _h(st: AbstractState, q: int, mode: AnalysisMode) -> None:
    labels = st.labels
    lbl = labels[q]
    if lbl is _S:
        labels[q] = _D
    elif lbl is _D:
        labels[q] = _S
    elif mode is not AnalysisMode.NO_LEVELS:
        st.lvl = st.lvl.split(q)


def _t(st: AbstractState, q: int, mode: AnalysisMode) -> None:
    if st.labels[q] is _D:
        st.labels[q] = _TOP


def _cx(st: AbstractState, q: int, mode: AnalysisMode) -> None:
    apply_cx_at(st, q, q + 1, mode)


def _sw(st: AbstractState, q: int, mode: AnalysisMode) -> None:
    st.swap_adjacent(q)


# I, X, Y, Z preserve every basis and have no entry: abstract no-ops.
_RULES = {GateKind.H: _h, GateKind.T: _t, GateKind.CX: _cx, GateKind.SW: _sw}


def apply_gate(st: AbstractState, kind: GateKind, index: int,
               mode: AnalysisMode = AnalysisMode.LEVELS) -> AbstractState:
    """Apply one gate's transfer function at the given base wire, mutating st."""
    if index < 0 or index + kind.height > st.n:
        raise IndexError(f"{kind.value} at {index} out of range for n={st.n}")
    rule = _RULES.get(kind)
    if rule is not None:
        rule(st, index, mode)
    return st


def analyze(circuit: CircuitAst, mode: AnalysisMode = AnalysisMode.LEVELS) -> AbstractState:
    """Run the analysis over a validated circuit from the all-|0> state."""
    st = init_state(validate(circuit))
    rules = _RULES.get
    for gate, index in iter_gates(circuit):
        rule = rules(gate.kind)
        if rule is not None:
            rule(st, index, mode)
    return st


def analyze_traced(circuit: CircuitAst,
                   mode: AnalysisMode = AnalysisMode.LEVELS,
                   ) -> tuple[AbstractState, list[TraceStep]]:
    """Like analyze(), also returning a deep-copied snapshot per gate."""
    st = init_state(validate(circuit))
    steps: list[TraceStep] = []
    for gate, index in iter_gates(circuit):
        rule = _RULES.get(gate.kind)
        if rule is not None:
            rule(st, index, mode)
        steps.append(TraceStep(gate.kind, index, st.copy()))
    return st, steps
