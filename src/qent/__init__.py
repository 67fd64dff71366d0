"""Static entanglement analysis for quantum circuits.

Parses a small circuit language, over-approximates which qubits are
entangled (and which are known to collapse together) by abstract
interpretation, and ships an exact statevector oracle for checking the
analysis against ground truth on small circuits.

The oracle's names (`simulate`, `check_soundness` and the rest) are loaded
from `qent.oracle` on first access, so `import qent` and the analysis never
import numpy; only the exact oracle needs it.
"""

from .analyzer import AnalysisMode, TraceStep, analyze, analyze_traced, apply_cx_at, apply_gate
from .circuit import (
    CircuitAst,
    CircuitSyntaxError,
    Gate,
    GateKind,
    Seq,
    Tensor,
    ValidationError,
    iter_gates,
    parse_circuit,
    unparse,
    validate,
)
from .domain import AbstractState, BasisLabel, Partition, init_state


def __getattr__(name: str):
    """Resolve a name of __all__ not yet bound (an oracle's) by importing qent.oracle."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


__all__ = [
    "AbstractState",
    "AnalysisMode",
    "BasisLabel",
    "CircuitAst",
    "CircuitSyntaxError",
    "ConcreteBasis",
    "DenseState",
    "Gate",
    "GateKind",
    "Partition",
    "Seq",
    "SoundnessReport",
    "Tensor",
    "TraceStep",
    "ValidationError",
    "analyze",
    "analyze_traced",
    "apply_cx_at",
    "apply_gate",
    "basis_oracle",
    "check_soundness",
    "finest_separable_partition",
    "init_state",
    "iter_gates",
    "levels_oracle",
    "parse_circuit",
    "simulate",
    "unparse",
    "validate",
]
