"""Circuit language: syntax tree, parser, heights, and well-formedness.

A circuit is an expression over the gate alphabet I, X, Y, Z, H, T, SW, CX
and two infix operators:

    **   tensor (stack circuits on adjacent wires)
    oo   sequence (run circuits one after another on the same wires)

`**` binds tighter than `oo`; both are left-associative; parentheses
override. `#` starts a comment that runs to the end of the line.

The height of a circuit is the number of wires it spans. Single-qubit
gates have height 1, SW and CX height 2, a tensor stacks heights, and a
sequence keeps the height of its left operand. A circuit is well formed
when both sides of every `oo` span the same wires. CX at base wire i
always has its control on the upper wire i and its target on the wire
directly below, i + 1 (use SW chains to reach other layouts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c == "*":
            if i + 1 < n and text[i + 1] == "*":
                tokens.append(_Token("**", line, start_col))
                i += 2
                col += 2
                continue
            raise CircuitSyntaxError("expected '**' (single '*' is not an operator)", line, start_col)
        if c in "()":
            tokens.append(_Token(c, line, start_col))
            i += 1
            col += 1
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word != "oo" and word not in GATES:
                raise CircuitSyntaxError(f"unknown token {word!r}", line, start_col)
            tokens.append(_Token(word, line, start_col))
            col += j - i
            i = j
            continue
        raise CircuitSyntaxError(f"unexpected character {c!r}", line, start_col)
    return tokens


def parse_circuit(text: str) -> CircuitAst:
    """Parse circuit text into a syntax tree.

    Raises CircuitSyntaxError (with line/column) on unknown tokens,
    dangling operators, or unbalanced parentheses. Does not check
    well-formedness; see validate().

    The grammar is seq := tensor ("oo" tensor)*, tensor := atom ("**" atom)*,
    atom := gate | "(" seq ")". It is parsed in one loop over the tokens with
    an explicit stack holding, per open "(", the enclosing sequence and
    tensor built so far, so nesting depth is unbounded.
    """
    lines = text.split("\n")
    end = _Token("", len(lines), len(lines[-1]) + 1)  # end-of-input sentinel
    tokens = iter(_tokenize(text) + [end])

    def error(message: str, tok: _Token) -> CircuitSyntaxError:
        found = " (unexpected end of input)" if tok is end else f", found {tok.text!r}"
        return CircuitSyntaxError(message + found, tok.line, tok.column)

    frames: list[tuple[CircuitAst | None, CircuitAst | None, _Token]] = []
    seq = tensor = None
    while True:
        tok = next(tokens)
        if tok.text == "(":
            frames.append((seq, tensor, tok))
            seq = tensor = None
            continue
        if tok.text not in GATES:
            raise error("expected gate or '('", tok)
        node = GATES[tok.text]
        while True:  # fold the finished atom `node` into the open tensor and sequence
            tensor = node if tensor is None else Tensor(tensor, node)
            tok = next(tokens)
            if tok.text == "**":
                break
            seq = tensor if seq is None else Seq(seq, tensor)
            tensor = None
            if tok.text == "oo":
                break
            if not frames:
                if tok is not end:
                    raise error("expected operator or end of input", tok)
                return seq
            node, (seq, tensor, opening) = seq, frames.pop()
            if tok.text != ")":
                raise error(f"unbalanced parenthesis opened at {opening.line}:{opening.column}", tok)


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
