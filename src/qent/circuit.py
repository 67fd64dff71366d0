"""Circuit language: syntax tree, parser, heights, and well-formedness.

A circuit is an expression over the gate alphabet I, X, Y, Z, H, T, SW, CX
and two infix operators:

    **   tensor (stack circuits on adjacent wires)
    oo   sequence (run circuits one after another on the same wires)

`**` binds tighter than `oo`; both are left-associative; parentheses
override. `#` starts a comment that runs to the end of the line. A word
(gate name or `oo`) is a letter followed by letters or digits, and any
Unicode whitespace separates tokens. The command line drops a leading UTF-8
byte-order mark from a file before parsing it.

The height of a circuit is the number of wires it spans. Single-qubit
gates have height 1, SW and CX height 2, a tensor stacks heights, and a
sequence keeps the height of its left operand. A circuit is well formed
when both sides of every `oo` span the same wires. CX at base wire i
always has its control on the upper wire i and its target on the wire
directly below, i + 1 (use SW chains to reach other layouts).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterator, Union


class GateKind(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"
    H = "H"
    T = "T"
    SW = "SW"
    CX = "CX"

    @property
    def height(self) -> int:
        return 2 if self in (GateKind.SW, GateKind.CX) else 1


@dataclass(frozen=True)
class Gate:
    kind: GateKind

    @property
    def height(self) -> int:
        return self.kind.height


@dataclass(frozen=True)
class Tensor:
    left: CircuitAst
    right: CircuitAst
    height: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "height", self.left.height + self.right.height)


@dataclass(frozen=True)
class Seq:
    left: CircuitAst
    right: CircuitAst
    height: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "height", self.left.height)


CircuitAst = Union[Gate, Tensor, Seq]

# Gate singletons, so trees read like the surface syntax: Seq(Tensor(H, I), CX).
I = Gate(GateKind.I)
X = Gate(GateKind.X)
Y = Gate(GateKind.Y)
Z = Gate(GateKind.Z)
H = Gate(GateKind.H)
T = Gate(GateKind.T)
SW = Gate(GateKind.SW)
CX = Gate(GateKind.CX)

GATES = {g.kind.value: g for g in (I, X, Y, Z, H, T, SW, CX)}


class CircuitSyntaxError(Exception):
    """Raised on malformed circuit text; carries 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ValidationError(Exception):
    """Raised when a sequence node composes circuits of different heights."""

    def __init__(self, node: Seq, path: str):
        self.node = node
        self.path = path
        self.left_height = node.left.height
        self.right_height = node.right.height
        super().__init__(
            f"sequence at {path} composes circuits of different heights "
            f"({self.left_height} vs {self.right_height})"
        )


# One match per token: `**`, a parenthesis, a word (a letter, then letters or
# digits), or any other non-space character, which is always an error. A
# comment matches with the group empty and is dropped; whitespace never matches.
_TOKEN = re.compile(r"#.*|(\*\*|[()]|[^\W\d_][^\W_]*|\S)")
_KNOWN = {*GATES, "oo", "**", "(", ")"}


def _position(text: str, k: int) -> tuple[int, int]:
    """1-based line and column of the k-th token of text, or of its end."""
    starts = (m.start() for m in _TOKEN.finditer(text) if m.group(1))
    pos = next(islice(starts, k, None), len(text))
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def parse_circuit(text: str) -> CircuitAst:
    """Parse circuit text into a syntax tree.

    Raises CircuitSyntaxError (with line/column) on unknown tokens,
    dangling operators, or unbalanced parentheses. Does not check
    well-formedness; see validate(). A lexical error anywhere in the text
    is reported before any parse error.

    The grammar is seq := tensor ("oo" tensor)*, tensor := atom ("**" atom)*,
    atom := gate | "(" seq ")". It is parsed in one loop over the tokens with
    an explicit stack holding, per open "(", the enclosing sequence and
    tensor built so far, so nesting depth is unbounded.
    """
    tokens = [tok for tok in _TOKEN.findall(text) if tok]
    if not _KNOWN.issuperset(tokens):
        k, word = next((k, tok) for k, tok in enumerate(tokens) if tok not in _KNOWN)
        c = word[0]  # a regex word may start with a non-letter such as '²'
        if c == "*":
            message = "expected '**' (single '*' is not an operator)"
        elif c.isalpha():
            message = f"unknown token {word!r}"
        else:
            message = f"unexpected character {c!r}"
        raise CircuitSyntaxError(message, *_position(text, k))
    tokens.append("")  # end of input

    def error(message: str, k: int) -> CircuitSyntaxError:
        tok = tokens[k]
        found = f", found {tok!r}" if tok else " (unexpected end of input)"
        return CircuitSyntaxError(message + found, *_position(text, k))

    frames: list[tuple[CircuitAst | None, CircuitAst | None, int]] = []
    seq = tensor = None
    k = -1
    while True:
        k += 1
        tok = tokens[k]
        if tok == "(":
            frames.append((seq, tensor, k))
            seq = tensor = None
            continue
        if tok not in GATES:
            raise error("expected gate or '('", k)
        node = GATES[tok]
        while True:  # fold the finished atom `node` into the open tensor and sequence
            tensor = node if tensor is None else Tensor(tensor, node)
            k += 1
            tok = tokens[k]
            if tok == "**":
                break
            seq = tensor if seq is None else Seq(seq, tensor)
            tensor = None
            if tok == "oo":
                break
            if not frames:
                if tok:
                    raise error("expected operator or end of input", k)
                return seq
            node, (seq, tensor, opening) = seq, frames.pop()
            if tok != ")":
                line, column = _position(text, opening)
                raise error(f"unbalanced parenthesis opened at {line}:{column}", k)


def height(circuit: CircuitAst) -> int:
    """Number of wires the circuit spans (cached on each node)."""
    return circuit.height


def validate(circuit: CircuitAst) -> int:
    """Check well-formedness and return the qubit count.

    Every Seq node must compose children of equal height. On failure the
    ValidationError names the first offending node in leftmost-deepest
    order. Shared subtrees are checked once.
    """
    seen: set[int] = set()
    # paths are linked (parent, step) tuples, materialized only on error
    stack: list[tuple[CircuitAst, tuple | None, bool]] = [(circuit, None, False)]
    while stack:
        nd, pth, children_done = stack.pop()
        if type(nd) is Gate or id(nd) in seen:
            continue
        if children_done:
            seen.add(id(nd))
            if type(nd) is Seq and nd.left.height != nd.right.height:
                steps = []
                while pth is not None:
                    pth, step = pth
                    steps.append(step)
                raise ValidationError(nd, ".".join(["root"] + steps[::-1]))
            continue
        stack.append((nd, pth, True))
        stack.append((nd.right, (pth, "right"), False))
        stack.append((nd.left, (pth, "left"), False))
    return circuit.height


def iter_gates(circuit: CircuitAst) -> Iterator[tuple[Gate, int]]:
    """Yield (gate, base wire index) in analysis order.

    Seq runs left then right at the same base; Tensor offsets the right
    child by the left child's height. Iterative, so arbitrarily deep
    trees are fine.
    """
    stack: list[tuple[CircuitAst, int]] = [(circuit, 0)]
    while stack:
        node, q = stack.pop()
        t = type(node)
        if t is Gate:
            yield node, q
        elif t is Seq:
            stack.append((node.right, q))
            stack.append((node.left, q))
        else:
            stack.append((node.right, q + node.left.height))
            stack.append((node.left, q))


_PREC = {Seq: 1, Tensor: 2}


def unparse(circuit: CircuitAst) -> str:
    """Render a tree in canonical text; parse_circuit(unparse(c)) == c.

    Iterative: the stack holds subtrees still to render, with their parent's
    precedence and side, interleaved with the literal text between them.
    """
    out: list[str] = []
    stack: list = [(circuit, 0, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, parent_prec, is_right = item
        if type(node) is Gate:
            out.append(node.kind.value)
            continue
        prec = _PREC[type(node)]
        wrap = prec < parent_prec or (prec == parent_prec and is_right)
        if wrap:
            stack.append(")")
        stack.append((node.right, prec, True))
        stack.append(" oo " if type(node) is Seq else " ** ")
        stack.append((node.left, prec, False))
        if wrap:
            stack.append("(")
    return "".join(out)
