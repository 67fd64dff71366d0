"""Circuit language: syntax tree, flat gate program, parser, and heights.

A circuit is an expression over the gate alphabet I, X, Y, Z, H, T, SW, CX
and two infix operators:

    **   tensor (stack circuits on adjacent wires)
    oo   sequence (run circuits one after another on the same wires)

`**` binds tighter than `oo`; both are left-associative; parentheses
override. `#` starts a comment that runs to the end of the line. A word
(gate name or `oo`) is a letter followed by letters or digits, and any
Unicode whitespace separates tokens. The command line drops a leading UTF-8
byte-order mark from a file before parsing it.

The parser tokenizes with one `str.split()`, once comments are dropped and
parentheses and `**` are spaced out. The regex `_TOKEN` defines the tokens;
it runs only on a text with a chunk that is no known token, to find the
first bad token and its line and column.

The height of a circuit is the number of wires it spans. Single-qubit
gates have height 1, SW and CX height 2, a tensor stacks heights, and a
sequence keeps the height of its left operand. A circuit is well formed
when both sides of every `oo` span the same wires, and only well-formed
trees exist: Seq raises ValidationError when its operands' heights differ,
and parse_circuit reports that at the `oo` token's line and column. CX at
base wire i always has its control on the upper wire i and its target on
the wire directly below, i + 1 (use SW chains to reach other layouts).

Tree nodes are immutable `__slots__` objects: assigning an attribute raises
AttributeError. Each node stores its height, set once when it is built, so
reading it is O(1). A tree's value is its canonical text: `==`, `hash()` and
`repr()` read `unparse(c)`, and pickling and `copy` rebuild a tree with
`parse_circuit(unparse(c))`. These, `iter_gates` and the parser walk a tree
with an explicit stack or loop, so none has a depth limit.

A Program is the flat form of a circuit: its height n and its gates in
`iter_gates` order, as a tuple of kinds and a tuple of base wires.
parse_program reads text into one with the parser's loop and builds no
node, so it accepts the same texts as parse_circuit and raises the same
errors at the same places; parse_circuit builds the tree and lists no gate.
The analysis takes either form; the command line parses a Program, and a
tree only for the exact oracle, which simulates trees.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import islice
from typing import Iterator, NamedTuple, Union


class _Symbol(Enum):
    """The base of GateKind and BasisLabel. Members are singletons and == is
    identity, so an identity hash agrees with it; it replaces Enum.__hash__,
    a Python call on every rule, unitary and output table lookup. Its values
    differ between processes, so no output may depend on them: no member is
    kept in a set."""

    __hash__ = object.__hash__


class GateKind(_Symbol):
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
        return 2 if self is GateKind.SW or self is GateKind.CX else 1


class _Node:
    """A Gate, Tensor or Seq. A tree's value is its canonical text: the parser
    rebuilds every tree from unparse's output, so that text determines the
    tree, and ==, hash(), repr() and pickling go through unparse."""

    __slots__ = ()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self is other or (self.height == other.height and unparse(self) == unparse(other))

    def __hash__(self):
        return hash(unparse(self))

    def __reduce__(self):
        return parse_circuit, (unparse(self),)

    def __repr__(self):
        return f"parse_circuit({unparse(self)!r})"


class Gate(_Node):
    """One gate. Its height is stored, as each Tensor and Seq built on it reads it."""

    __slots__ = ("kind", "height")

    def __init__(self, kind: GateKind):
        _set_kind(self, kind)
        _set_gate_height(self, kind.height)


class _Binary(_Node):
    """A Tensor or Seq node: two subcircuits and the height they span."""

    __slots__ = ("left", "right", "height")


class Tensor(_Binary):
    __slots__ = ()

    def __init__(self, left: CircuitAst, right: CircuitAst):
        _set_left(self, left)
        _set_right(self, right)
        _set_height(self, left.height + right.height)


class Seq(_Binary):
    __slots__ = ()

    def __init__(self, left: CircuitAst, right: CircuitAst):
        h = left.height
        if h != right.height:
            raise ValidationError(h, right.height)
        _set_left(self, left)
        _set_right(self, right)
        _set_height(self, h)


# __init__ sets the slots through their own setters, which bypass __setattr__
# and cost less than object.__setattr__.
_set_kind, _set_gate_height = Gate.kind.__set__, Gate.height.__set__
_set_left, _set_right, _set_height = _Binary.left.__set__, _Binary.right.__set__, _Binary.height.__set__


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
_ATOMS = {name: (g, g.kind, g.height) for name, g in GATES.items()}  # the parser's gate tokens


class Program(NamedTuple):
    """A circuit as a flat gate program: its n wires, and its gates in
    analysis order (iter_gates order) as two tuples of equal length, each
    gate's kind and base wire. parse_program makes one from text; analyze
    and analyze_traced take it in place of a tree and trust it, so build
    one by hand only with in-range wires."""

    n: int
    kinds: tuple[GateKind, ...]
    wires: tuple[int, ...]


# The widest circuit the exact oracle simulates unless given another limit
# (qent.oracle.simulate's max_qubits, the CLI's --max-oracle-qubits). It is
# defined here, away from numpy, so that the CLI can show it without loading
# the oracle.
DEFAULT_QUBIT_LIMIT = 12


class _Located(Exception):
    """An error with a message and, where it has one, a 1-based line and
    column, which str() puts in front of the message."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class CircuitSyntaxError(_Located):
    """Raised on malformed circuit text; carries 1-based line/column."""


class ValidationError(_Located):
    """Raised when a sequence composes circuits of different heights.

    Seq raises it when it is built, so no ill-formed tree exists. Raised by
    parse_circuit it also carries the 1-based line/column of the `oo`
    token; raised by Seq directly, line and column are None.
    """

    def __init__(self, left_height: int, right_height: int,
                 line: int | None = None, column: int | None = None):
        super().__init__(f"sequence composes circuits of different heights "
                         f"({left_height} vs {right_height})", line, column)
        self.left_height = left_height
        self.right_height = right_height

    def __reduce__(self):
        # args holds only the formatted message, so rebuild from the arguments
        return (type(self), (self.left_height, self.right_height, self.line, self.column),
                self.__dict__)


# The reference lexer. One match per token: `**`, a parenthesis, a word (a
# letter, then letters or digits), or any other non-space character, which is
# always an error. A comment matches with the group empty and is dropped;
# whitespace never matches. parse_circuit splits with _tokens first and runs
# it only on a text with an unknown chunk; _position runs it to place errors.
_TOKEN = re.compile(r"#.*|(\*\*|[()]|[^\W\d_][^\W_]*|\S)")
_COMMENT = re.compile(r"#.*")
_KNOWN = {*GATES, "oo", "**", "(", ")"}


def _tokens(text: str) -> list[str]:
    """The chunks of text between whitespace, parentheses and `**`, with
    comments dropped. When every chunk is in _KNOWN the list equals the
    tokens _TOKEN finds; otherwise some _TOKEN token is unknown too. (A
    known word is ASCII letters, which _TOKEN ends at any non-word
    character, and the split spaces out the other known tokens.)"""
    if "#" in text:
        text = _COMMENT.sub("", text)
    return text.replace("(", " ( ").replace(")", " ) ").replace("**", " ** ").split()


def _position(text: str, k: int) -> tuple[int, int]:
    """1-based line and column of the k-th token of text, or of its end."""
    starts = (m.start() for m in _TOKEN.finditer(text) if m.group(1))
    pos = next(islice(starts, k, None), len(text))
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def parse_circuit(text: str) -> CircuitAst:
    """Parse circuit text into a syntax tree.

    Raises CircuitSyntaxError (with line/column) on unknown tokens,
    dangling operators, or unbalanced parentheses, and ValidationError
    (with the line/column of the `oo`) on a sequence whose operands span
    different numbers of wires. Errors come in this order: a lexical error
    anywhere in the text first; then the first syntax error or height
    mismatch in the order the parser meets them, where a mismatch is met
    once its right operand is complete. So `H oo CX oo` is a mismatch at
    1:3, not an unexpected end of input.
    """
    return _parse(text, True)


def parse_program(text: str) -> Program:
    """Parse circuit text into a flat Program, building no tree.

    The same loop as parse_circuit, so it accepts the same texts and raises
    the same errors, and parse_program(text) equals
    Program(tree.height, kinds, wires) for the (gate.kind, wire) pairs of
    iter_gates(tree), tree = parse_circuit(text).
    """
    return _parse(text, False)


def _parse(text: str, tree: bool) -> CircuitAst | Program:
    """The one parser loop: a syntax tree when tree is true, else a Program.

    The tokens are the chunks of one str.split() (_tokens). A text with an
    unknown chunk is tokenized again with the regex _TOKEN, which names the
    first bad token and places it, so diagnostics are the regex lexer's.

    The grammar is seq := tensor ("oo" tensor)*, tensor := atom ("**" atom)*,
    atom := gate | "(" seq ")". It is parsed in one loop over the tokens with
    an explicit stack holding, per open "(", the enclosing level's state, so
    nesting depth is unbounded. A level's state is its base wire, the height
    of its sequence so far (0 before its first tensor), the height of its
    open tensor so far, its last `oo`, and in tree mode the sequence and
    tensor built so far. Heights are integers in both modes, so a mismatch
    is found, and placed at its `oo`, before any Seq is built. A gate's base
    wire is its level's base plus the open tensor's height, known as its
    token is read; gates are met in the order iter_gates yields them, so the
    program mode appends each gate as it reads it and builds no node, and
    the tree mode appends nothing.
    """
    tokens = _tokens(text)
    if not _KNOWN.issuperset(tokens):
        tokens = [tok for tok in _TOKEN.findall(text) if tok]
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

    kinds: list[GateKind] = []
    wires: list[int] = []
    add_kind, add_wire = kinds.append, wires.append
    frames: list[tuple] = []
    seq = tensor = None
    base = height = width = 0
    oo = -1  # token index of the last `oo` at this nesting level
    k = -1
    while True:
        k += 1
        tok = tokens[k]
        if tok == "(":
            frames.append((seq, tensor, base, height, width, oo, k))
            seq = tensor = None
            base += width
            height = width = 0
            continue
        atom = _ATOMS.get(tok)
        if atom is None:
            raise error("expected gate or '('", k)
        node, kind, h = atom
        while True:  # fold the finished atom `node`, of height h, into the open tensor and sequence
            if tree:
                tensor = node if tensor is None else Tensor(tensor, node)
            elif kind is not None:  # a gate, not a closed parenthesis
                add_kind(kind)
                add_wire(base + width)
            width += h
            k += 1
            tok = tokens[k]
            if tok == "**":
                break
            if not height:
                height = width
            elif height != width:
                raise ValidationError(height, width, *_position(text, oo))
            if tree:
                seq = tensor if seq is None else Seq(seq, tensor)
                tensor = None
            width = 0
            if tok == "oo":
                oo = k
                break
            if not frames:
                if tok:
                    raise error("expected operator or end of input", k)
                return seq if tree else Program(height, tuple(kinds), tuple(wires))
            node, kind, h = seq, None, height
            seq, tensor, base, height, width, oo, opening = frames.pop()
            if tok != ")":
                line, column = _position(text, opening)
                raise error(f"unbalanced parenthesis opened at {line}:{column}", k)


def validate(circuit: CircuitAst) -> int:
    """The qubit count; O(1), as Seq refuses mismatched heights when built."""
    return circuit.height


def iter_gates(circuit: CircuitAst) -> Iterator[tuple[Gate, int]]:
    """Yield (gate, base wire index) in analysis order.

    Seq runs left then right at the same base; Tensor offsets the right
    child by the left child's height. Each step pops a subtree with its base
    and runs down its left spine to the gate it starts with, pushing the
    right child of every node it passes with that child's base; no left
    child is ever pushed. Iterative, so arbitrarily deep trees are fine.
    """
    return _leaves(circuit, False)


def _leaves(circuit: CircuitAst, kinds: bool) -> Iterator[tuple[Gate | GateKind, int]]:
    """iter_gates's walk; with kinds true it yields each gate's kind, not the gate."""
    stack: list[tuple[CircuitAst, int]] = [(circuit, 0)]
    while stack:
        node, q = stack.pop()
        t = type(node)
        while t is not Gate:
            left = node.left
            stack.append((node.right, q) if t is Seq else (node.right, q + left.height))
            node = left
            t = type(node)
        yield (node.kind if kinds else node), q


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
