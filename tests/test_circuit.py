"""Parser, heights, well-formedness, and round-trip tests for the circuit language."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import re
from pathlib import Path

import pytest

from qent.circuit import (
    CX,
    GATES,
    H,
    I,
    SW,
    X,
    Z,
    _CODE,
    _KNOWN,
    _NAME,
    _SPACES,
    _TOKEN,
    CircuitSyntaxError,
    Gate,
    GateKind,
    Program,
    Seq,
    Tensor,
    ValidationError,
    iter_gates,
    parse_circuit,
    parse_program,
    _codes,
    unparse,
    validate,
)
from qent.domain import BasisLabel
from helpers import ALL_KINDS, random_circuit


def parts(node):
    """(constructor, left, right) of a tree node, or of a shape: a plain
    tuple that describes a tree, well formed or not, without building it."""
    return node if isinstance(node, tuple) else (type(node), node.left, node.right)


def naive_height(node):
    """Independent recursive height oracle, straight from the definition."""
    if isinstance(node, Gate):
        return 2 if node.kind in (GateKind.SW, GateKind.CX) else 1
    ctor, left, right = parts(node)
    if ctor is Seq:
        return naive_height(left)
    return naive_height(left) + naive_height(right)


def naive_valid(shape):
    if isinstance(shape, Gate):
        return True
    ctor, left, right = shape
    return (naive_valid(left) and naive_valid(right)
            and (ctor is Tensor or naive_height(left) == naive_height(right)))


def build(shape):
    if isinstance(shape, Gate):
        return shape
    ctor, left, right = shape
    return ctor(build(left), build(right))


def render(shape):
    """Fully parenthesized one-line text of a shape."""
    if isinstance(shape, Gate):
        return shape.kind.value
    ctor, left, right = shape
    return f"({render(left)} {'oo' if ctor is Seq else '**'} {render(right)})"


def first_mismatch(shape, column=1):
    """(column of the `oo`, left height, right height) of the first ill-formed
    Seq that the parser meets in render(shape) placed at `column`: children
    complete before their parent, so it is the first in post-order."""
    if isinstance(shape, Gate):
        return None
    ctor, left, right = shape
    oo_column = column + 1 + len(render(left)) + 1
    found = first_mismatch(left, column + 1) or first_mismatch(right, oo_column + 3)
    if found is None and ctor is Seq and naive_height(left) != naive_height(right):
        found = oo_column, naive_height(left), naive_height(right)
    return found


class TestParse:
    def test_precedence(self):
        assert parse_circuit("H ** I oo CX") == Seq(Tensor(H, I), CX)

    def test_single_gate(self):
        assert parse_circuit("I") == I

    def test_parens_override(self):
        assert parse_circuit("H ** (X oo Z)") == Tensor(H, Seq(X, Z))

    def test_left_associative(self):
        assert parse_circuit("H oo X oo Z") == Seq(Seq(H, X), Z)
        assert parse_circuit("H ** X ** Z") == Tensor(Tensor(H, X), Z)

    def test_comments_and_whitespace(self):
        text = "# bell pair\n  H ** I   # put the control in superposition\noo CX\n"
        assert parse_circuit(text) == Seq(Tensor(H, I), CX)

    def test_all_gate_names(self):
        for name, gate in GATES.items():
            assert parse_circuit(name) == gate

    def test_unknown_token_position(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("H **\nQQ")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_lowercase_gate_rejected(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("h")

    def test_dangling_operator(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("H **")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("oo H")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("H oo oo X")

    def test_unbalanced_parens(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("(H oo X")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("H oo X)")

    def test_empty_input(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("# only a comment\n")

    def test_single_star_rejected(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("H * I")

    def test_adjacent_gates_rejected(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("H I")


def regex_tokens(text):
    return [tok for tok in re.findall(_TOKEN, text) if tok]


def outcome(text):
    """The tree parse_circuit returns for text, or the type, message, line
    and column of the error it raises."""
    try:
        return parse_circuit(text)
    except (CircuitSyntaxError, ValidationError) as err:
        return type(err), err.message, err.line, err.column


SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]


class TestLexer:
    @pytest.mark.parametrize("text, expected", [
        ("H²", (1, 1, "unknown token 'H²'")),
        ("²H", (1, 1, "unexpected character '²'")),  # '²' starts a regex word but is no letter
        ("***", (1, 3, "expected '**' (single '*' is not an operator)")),
        ("H H foo", (1, 5, "unknown token 'foo'")),  # beats the parse error at 1:3
        ("H\u00a0**\x0cX", Tensor(H, X)),
        ("H\u2028Q", (1, 3, "unknown token 'Q'")),  # a line separator is one column
        ("H oo # c", (1, 9, "expected gate or '(' (unexpected end of input)")),
        ("X**Z", Tensor(X, Z)),  # operators and parentheses need no spaces
        ("(H)oo(X)", Seq(H, X)),
        ("(H**X)oo(CX)#c", Seq(Tensor(H, X), CX)),
        ("H#c\nooX", (2, 1, "unknown token 'ooX'")),  # a word runs to the next non-word character
        ("* *", (1, 1, "expected '**' (single '*' is not an operator)")),
        ("H_X", (1, 2, "unexpected character '_'")),
    ])
    def test_edge_cases(self, text, expected):
        if not isinstance(expected, tuple):
            assert parse_circuit(text) == expected
            return
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.column, err.value.message) == expected

    # pieces of the differential corpus, with each code character and a lone
    # character of each two-character token
    KNOWN = [*GATES, "oo", "**", "(", ")", " "]
    ODD = ["*", "#", "#c\n", "\n", "\r", "H2", "H_X", "_", "2", "\u00b2H", "\uff28", "H\u0301",
           "o", "Q", "x", "S", "W", "C", "s", "c", "e", "&", "$", "a", *SPACES]
    FIXED = ["H#c\nX", "H oo X # c", "H#c\rX", "H\r**\rX", "X**Y", "(H)oo(X)", "***", "* *",
             "****", "H2", "H_X", "\u00b2H", "\uff28", "H\u0301", "H\u0301 ** X", "",
             "H ** s", "c", "H oo e", "H & X", "H $", "H$", "Ha", "aH", "SWs", "sW", "CXc",
             "ooe", "&**", "S", "W", "C", "o", "S W", "C X", "o o", "SWX", "SSWW", "CCXX", "ooo",
             "Hoo", "ooH", "SWCX", "CX**SW", "(SW)oo(CX)", "H ** * X", "H ** (X oo *)"]

    def corpus(self):
        yield from self.FIXED
        for space in SPACES:  # every character str.isspace() accepts
            yield f"H{space}**{space}X"
            yield f"{space}(CX){space}oo{space}SW#{space}c"
        rng = random.Random(12)
        for _ in range(20_000):
            yield "".join(rng.choice(self.ODD if rng.random() < 0.2 else self.KNOWN)
                          for _ in range(rng.randint(1, 12)))

    def test_codes_match_regex(self, monkeypatch):
        """_codes, the lexer the parser runs, against the reference regex
        _TOKEN: it refuses a text exactly when some regex token is unknown,
        else its codes name the regex tokens one by one, and every parse ends
        as a parse of the regex's tokens does."""
        texts = list(self.corpus())
        coded = 0
        for text in texts:
            tokens, codes = regex_tokens(text), _codes(text)
            assert (codes is None) == (not _KNOWN.issuperset(tokens)), text
            if codes is not None:
                coded += 1
                assert [_NAME.get(code, code) for code in codes] == tokens + [""], text
        assert coded > len(texts) // 10
        results = [outcome(text) for text in texts]
        with monkeypatch.context() as m:
            m.setattr("qent.circuit._codes", regex_codes)
            assert [outcome(text) for text in texts] == results
        assert sum(type(r) is not tuple for r in results) > 500

    def test_whitespace_table_is_str_isspace(self):
        """The literal table _codes deletes with holds every str.isspace()
        character, as this Python's Unicode database lists them."""
        assert set(_SPACES) == set(map(ord, SPACES))
        assert set(_SPACES.values()) == {None}


def regex_codes(text):
    """A code string from the regex's tokens alone: None when one is unknown."""
    tokens = regex_tokens(text)
    if not _KNOWN.issuperset(tokens):
        return None
    return "".join(_CODE.get(tok, tok) for tok in tokens) + "$"


def flat(tree):
    """The Program of a tree, from iter_gates: its height, then each gate's
    kind and base wire."""
    pairs = [(gate.kind, q) for gate, q in iter_gates(tree)]
    return Program(tree.height, tuple(kind for kind, _ in pairs), tuple(q for _, q in pairs))


def program_outcome(text):
    """outcome(text) for parse_program: its Program, or the type, message,
    line and column of the error it raises."""
    try:
        return parse_program(text)
    except (CircuitSyntaxError, ValidationError) as err:
        return type(err), err.message, err.line, err.column


class TestProgram:
    """parse_program and parse_circuit are one loop: on every text the
    program is the tree's iter_gates pairs and height, or both raise the
    same error at the same place."""

    def same_outcome(self, texts):
        """Checks every text; returns (programs, errors) seen."""
        programs = errors = 0
        for text in texts:
            tree = outcome(text)
            if type(tree) is tuple:
                errors += 1
                assert program_outcome(text) == tree, text
            else:
                programs += 1
                assert program_outcome(text) == flat(tree), text
        return programs, errors

    def test_matches_the_tree_on_the_lexer_corpus(self):
        programs, errors = self.same_outcome(TestLexer().corpus())
        assert programs > 500 and errors > 10_000

    def test_matches_the_tree_on_random_circuits(self):
        rng = random.Random(31)
        texts = [unparse(random_circuit(rng, rng.randint(1, 12), rng.randint(1, 14)))
                 for _ in range(300)]
        assert self.same_outcome(texts) == (300, 0)

    def test_matches_the_tree_on_nested_shapes(self):
        """Fully parenthesized shapes, so gates sit inside parentheses that
        open at every base wire, and half of them are ill-formed at some
        depth."""
        rng = random.Random(32)
        gates = [Gate(k) for k in ALL_KINDS]

        def random_shape(depth):
            if depth == 0 or rng.random() < 0.25:
                return rng.choice(gates)
            ctor = Seq if rng.random() < 0.5 else Tensor
            return (ctor, random_shape(depth - 1), random_shape(depth - 1))

        shapes = [random_shape(6) for _ in range(1000)]
        programs, errors = self.same_outcome(render(shape) for shape in shapes)
        assert programs > 100 and errors > 100

    @pytest.mark.parametrize("text", [
        "H ** (X oo Y) ** CX",  # a run broken by a parenthesised atom
        "CX ** H ** I ** SW oo SW ** X ** Y ** CX",  # two-wire gates at a run's ends
        "(H oo X) ** CX ** T ** (SW oo CX) ** Z",  # runs after and before a closed atom
        "H", "CX", "(SW)", "H oo X oo (T)",  # runs of one gate
        "X ** Y\n** Z ** (CX oo SW) ** (I ** H oo T ** Z)\n** SW",  # runs across lines
        "I ** " + "(" * 40 + "H ** CX ** X" + " oo H ** SW ** X)" * 40 + " ** Y",  # deep nesting
    ], ids=["broken", "two-wire-ends", "beside-atoms", "gate", "two-wire-gate",
            "parenthesised-gate", "one-gate-runs", "across-lines", "deep"])
    def test_runs_match_the_tree(self, text):
        assert parse_program(text) == flat(parse_circuit(text))

    @pytest.mark.parametrize("text", ["H oo CX", "H oo CX oo", "(H oo X oo CX", "H oo CX **",
                                      "H ** oo I oo CX", "H oo CX oo Q", "", "H I", "(H"])
    def test_errors_match(self, text):
        assert type(outcome(text)) is tuple
        assert program_outcome(text) == outcome(text)

    def test_value(self):
        program = parse_program("H ** (I oo X) oo CX")
        kinds = (GateKind.H, GateKind.I, GateKind.X, GateKind.CX)
        assert program == Program(2, kinds, (0, 1, 1, 0))
        assert (program.n, program.kinds, program.wires) == program
        assert hash(program) == hash(parse_program("H**(I oo X)oo CX"))
        with pytest.raises(AttributeError):
            program.n = 3

    def test_builds_no_node(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("parse_program built a tree node")

        monkeypatch.setattr("qent.circuit.Tensor", forbidden)
        monkeypatch.setattr("qent.circuit.Seq", forbidden)
        assert parse_program("H ** CX oo (SW oo X ** Y) ** T") == Program(
            3, (GateKind.H, GateKind.CX, GateKind.SW, GateKind.X, GateKind.Y, GateKind.T),
            (0, 1, 0, 0, 1, 2))

    def test_deeply_nested_parentheses(self):
        depth = 10**5
        assert parse_program("X ** " + "(" * depth + "H ** CX" + ")" * depth) == Program(
            4, (GateKind.X, GateKind.H, GateKind.CX), (0, 1, 2))
        text = "(" * depth + "H"
        assert program_outcome(text) == outcome(text)


BELL = (GateKind.H, GateKind.I, GateKind.CX)
# (n, kinds, wires) that break the contract, and the error each raises
BROKEN = {
    "negative-wire": (2, (GateKind.H,), (-1,), IndexError),
    "wire-n": (2, (GateKind.I,), (2,), IndexError),
    "CX-at-n-1": (2, (GateKind.CX,), (1,), IndexError),
    "SW-at-n-1": (2, (GateKind.H, GateKind.SW), (0, 1), IndexError),
    "float-wire": (2, (GateKind.H,), (0.0,), TypeError),
    "unhashable-kind": (2, ([1],), (0,), ValueError),
    "float-n": (2.5, (GateKind.H,), (1,), TypeError),
    "str-n": ("2", (), (), TypeError),
    "negative-n": (-1, (), (), ValueError),
}


class TestProgramIsValidByConstruction:
    """Every way to make a Program runs its constructor's check, apart from
    parse_program, whose programs are valid as parsed."""

    @pytest.mark.parametrize("n, kinds, wires, error", BROKEN.values(), ids=BROKEN)
    def test_refused_when_built(self, n, kinds, wires, error):
        valid = Program(2, BELL, (0, 1, 0))
        unchecked = tuple.__new__(Program, (n, kinds, wires))
        for make in (lambda: Program(n, kinds, wires),
                     lambda: Program._make((n, kinds, wires)),
                     lambda: valid._replace(n=n, kinds=kinds, wires=wires),
                     lambda: pickle.loads(pickle.dumps(unchecked)),
                     lambda: copy.deepcopy(unchecked)):
            with pytest.raises(error):
                make()

    def test_accepts_integers_as_index_reads_them(self):
        program = Program(2, [GateKind.H, GateKind.CX], [True, 0])
        assert program == (2, (GateKind.H, GateKind.CX), (1, 0))
        assert type(program.kinds) is tuple and type(program.wires) is tuple
        assert Program(0, (), ()) == (0, (), ())
        assert Program(True, (GateKind.H,), (0,)) == (1, (GateKind.H,), (0,))
        with pytest.raises(ValueError, match="^qubit count must be non-negative$"):
            Program(-1, (), ())

    def test_parse_program_runs_no_check(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the wire check ran")

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import gen

        rng = random.Random(33)
        texts = [unparse(random_circuit(rng, rng.randint(1, 12), rng.randint(1, 14)))
                 for _ in range(300)]
        bench_text = gen.tiled_grid(7, 24, 80, 0.08, 0.02, 80).text()
        expected = [parse_program(text) for text in texts + [bench_text]]
        monkeypatch.setattr("qent.circuit._check_wires", forbidden)
        with pytest.raises(AssertionError, match="the wire check ran"):
            Program(2, BELL, (0, 1, 0))
        assert [parse_program(text) for text in texts + [bench_text]] == expected
        assert len(expected[-1].kinds) > 1000


class TestHeight:
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_gate_heights(self, kind):
        expected = 2 if kind in (GateKind.SW, GateKind.CX) else 1
        assert Gate(kind).height == expected

    def test_examples(self):
        assert CX.height == 2
        assert Tensor(H, I).height == 2
        assert Seq(Tensor(H, I), CX).height == 2

    def test_tensor_is_additive(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 3))
            b = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 3))
            assert Tensor(a, b).height == a.height + b.height

    def test_matches_naive_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 4))
            assert c.height == naive_height(c)


class TestNodes:
    def test_enums_hash_by_identity(self):
        """GateKind and BasisLabel share one identity hash and define none of
        their own."""
        for enum in (GateKind, BasisLabel):
            assert "__hash__" not in vars(enum)
            assert enum.__hash__ is object.__hash__
            assert all(hash(member) == object.__hash__(member) for member in enum)

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_gate_built_outside_parser(self, kind):
        gate, singleton = Gate(kind), GATES[kind.value]
        assert gate is not singleton
        assert gate.height == kind.height
        assert gate == singleton
        assert hash(gate) == hash(singleton)
        wide = Tensor(gate, singleton)
        assert wide.height == Tensor(singleton, singleton).height == 2 * kind.height
        assert Seq(wide, Tensor(singleton, gate)).height == wide.height
        assert Seq(gate, singleton).height == Seq(singleton, singleton).height == kind.height

    @pytest.mark.parametrize("node", [Gate(GateKind.CX), H, Tensor(H, I), Seq(Tensor(H, I), CX)],
                             ids=["Gate", "singleton", "Tensor", "Seq"])
    def test_immutable(self, node):
        names = ("kind", "height") if type(node) is Gate else ("left", "right", "height")
        before = [getattr(node, name) for name in names]
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, I)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert [getattr(node, name) for name in names] == before

    def test_repr_is_constructor_syntax(self):
        """repr() is the parse_circuit call that rebuilds the tree."""
        assert repr(Seq(Tensor(H, I), CX)) == "parse_circuit('H ** I oo CX')"
        rng = random.Random(13)
        for _ in range(200):
            a = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 3))
            b = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 3))
            for tree in (a, Tensor(a, b), Tensor(b, Tensor(a, b)), Seq(a, Seq(a, a))):
                assert eval(repr(tree), {"parse_circuit": parse_circuit}) == tree

    def test_equality_is_structural(self):
        assert Tensor(H, Tensor(I, X)) != Tensor(Tensor(H, I), X)
        assert Tensor(X, Z) != Seq(X, Z)
        assert Seq(X, Z) != Seq(X, X)
        assert H != Tensor(H, I) and Tensor(H, I) != H
        assert {Tensor(H, I): 1}[parse_circuit("H ** I")] == 1

    def test_equality_with_non_nodes(self):
        """A node compares unequal to anything that is not a node."""
        assert H.__eq__("H") is NotImplemented
        assert not H == "H"
        assert Seq(H, H) != 1

    def test_copy_and_pickle(self):
        tree = Seq(Tensor(H, I), CX)
        for clone in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert clone == tree
            assert clone.height == 2


class TestValidate:
    def test_well_formed(self):
        assert validate(Seq(Tensor(H, I), CX)) == 2
        assert validate(I) == 1

    def test_errors_are_located_siblings(self):
        """Both errors keep message, line and column, and str() puts
        `line:col: ` in front of the message when there is a line; neither is
        the other."""
        with pytest.raises(CircuitSyntaxError) as syntax:
            parse_circuit("H * I")
        with pytest.raises(ValidationError) as height:
            parse_circuit("H oo CX")
        message = "sequence composes circuits of different heights (1 vs 2)"
        assert (syntax.value.message, syntax.value.line, syntax.value.column) == (
            "expected '**' (single '*' is not an operator)", 1, 3)
        assert str(syntax.value) == "1:3: expected '**' (single '*' is not an operator)"
        assert (height.value.message, height.value.line, height.value.column) == (message, 1, 3)
        assert str(height.value) == "1:3: " + message
        assert not isinstance(syntax.value, ValidationError)
        assert not isinstance(height.value, CircuitSyntaxError)

    @pytest.mark.parametrize("err", [
        CircuitSyntaxError("unexpected end of input", 2, 5), ValidationError(1, 2, 1, 3),
        CircuitSyntaxError("unexpected end of input"), ValidationError(1, 2),
    ], ids=["syntax-located", "height-located", "syntax-bare", "height-bare"])
    def test_errors_survive_pickle_and_copy(self, err):
        """A copy keeps the class, str(), message, position, heights and notes."""
        err.add_note("a note")
        fields = ("message", "line", "column", "left_height", "right_height", "__notes__")
        for clone in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
            assert type(clone) is type(err) and str(clone) == str(err)
            assert [getattr(clone, f, None) for f in fields] == [getattr(err, f, None)
                                                                 for f in fields]

    def test_mismatch(self):
        with pytest.raises(ValidationError) as err:
            Seq(H, CX)
        assert err.value.left_height == 1
        assert err.value.right_height == 2
        assert err.value.line is err.value.column is None
        assert str(err.value) == "sequence composes circuits of different heights (1 vs 2)"

    @pytest.mark.parametrize("text, position, heights", [
        ("H oo CX", (1, 3), (1, 2)),  # at the first oo
        ("H oo X oo CX", (1, 8), (1, 2)),  # at a later oo
        ("H oo CX ** I oo H", (1, 3), (1, 3)),  # ** binds tighter
        ("H ** (X oo CX)", (1, 9), (1, 2)),  # inside parentheses
        ("(H ** I)\n  oo H", (2, 3), (2, 1)),  # across lines
    ], ids=["first-oo", "later-oo", "tensor-binds-tighter", "in-parentheses", "across-lines"])
    def test_reports_line_col_of_oo(self, text, position, heights):
        with pytest.raises(ValidationError) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.column) == position
        assert (err.value.left_height, err.value.right_height) == heights
        assert str(err.value) == ("%d:%d: sequence composes circuits of different heights "
                                  "(%d vs %d)" % (position + heights))

    @pytest.mark.parametrize("text, error, position", [
        ("H oo CX oo", ValidationError, (1, 3)),  # not the unexpected end of input
        ("H oo CX CX", ValidationError, (1, 3)),  # not the missing operator
        ("H oo CX )", ValidationError, (1, 3)),  # not the unbalanced ')'
        ("(H oo X oo CX", ValidationError, (1, 9)),  # not the unclosed '('
        ("H oo CX **", CircuitSyntaxError, (1, 11)),  # the right operand never completes
        ("H ** oo I oo CX", CircuitSyntaxError, (1, 6)),  # a syntax error met first
        ("H oo CX oo Q", CircuitSyntaxError, (1, 12)),  # a lexical error comes first
    ])
    def test_error_order(self, text, error, position):
        with pytest.raises((CircuitSyntaxError, ValidationError)) as err:
            parse_circuit(text)
        assert type(err.value) is error
        assert (err.value.line, err.value.column) == position

    def test_exhaustive_small_trees(self):
        """Every shape over <= 4 leaves builds iff all Seq children agree."""

        def shapes(leaves):
            if len(leaves) == 1:
                yield leaves[0]
                return
            for cut in range(1, len(leaves)):
                for left in shapes(leaves[:cut]):
                    for right in shapes(leaves[cut:]):
                        yield (Seq, left, right)
                        yield (Tensor, left, right)

        gates = [Gate(k) for k in GateKind]
        checked = 0
        for count in range(1, 5):
            for combo in itertools.product(gates, repeat=count):
                for shape in shapes(list(combo)):
                    checked += 1
                    if naive_valid(shape):
                        assert validate(build(shape)) == naive_height(shape)
                    else:
                        with pytest.raises(ValidationError):
                            build(shape)
        assert checked > 100_000


class TestRoundTrip:
    def test_canonical_examples(self):
        assert unparse(Seq(Tensor(H, I), CX)) == "H ** I oo CX"
        assert unparse(Tensor(H, Seq(X, Z))) == "H ** (X oo Z)"
        assert unparse(Seq(H, Seq(X, Z))) == "H oo (X oo Z)"
        assert unparse(Tensor(Seq(H, X), I)) == "(H oo X) ** I"
        assert unparse(Tensor(H, Tensor(I, X))) == "H ** (I ** X)"

    def test_parse_unparse_identity(self):
        rng = random.Random(3)
        for _ in range(300):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert parse_circuit(unparse(c)) == c

    def test_arbitrary_shapes_round_trip(self):
        """Well-formed shapes round-trip; ill-formed ones raise at build and,
        from their text, at parse, at the first mismatch the parser meets."""
        rng = random.Random(4)
        gates = [Gate(k) for k in ALL_KINDS]

        def random_shape(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(gates)
            ctor = Seq if rng.random() < 0.5 else Tensor
            return (ctor, random_shape(depth - 1), random_shape(depth - 1))

        well_formed = 0
        for _ in range(300):
            shape = random_shape(4)
            if naive_valid(shape):
                well_formed += 1
                c = build(shape)
                assert parse_circuit(unparse(c)) == c
                assert parse_circuit(render(shape)) == c
                continue
            with pytest.raises(ValidationError):
                build(shape)
            with pytest.raises(ValidationError) as err:
                parse_circuit(render(shape))
            column, left_height, right_height = first_mismatch(shape)
            assert (err.value.line, err.value.column) == (1, column)
            assert (err.value.left_height, err.value.right_height) == (left_height, right_height)
        assert 50 < well_formed < 250


class TestIterGates:
    def test_order_and_indices(self):
        c = parse_circuit("H ** I oo CX")
        assert [(g.kind, q) for g, q in iter_gates(c)] == [
            (GateKind.H, 0),
            (GateKind.I, 1),
            (GateKind.CX, 0),
        ]

    def test_tensor_offsets_by_left_height(self):
        c = parse_circuit("CX ** H ** SW")
        assert [(g.kind, q) for g, q in iter_gates(c)] == [
            (GateKind.CX, 0),
            (GateKind.H, 2),
            (GateKind.SW, 3),
        ]

    def test_gate_count_equals_leaves(self):
        """Not only one gate per leaf: the whole (kind, wire) list equals a
        recursive walk's."""

        def walk(node, q=0):
            """Recursive reference: (kind, base wire) of every leaf, left to right."""
            if isinstance(node, Gate):
                return [(node.kind, q)]
            offset = 0 if type(node) is Seq else naive_height(node.left)
            return walk(node.left, q) + walk(node.right, q + offset)

        right_deep = Seq(H, Seq(X, Seq(Z, I)))
        wide_right_deep = Tensor(H, Tensor(CX, Tensor(I, Tensor(SW, X))))
        tensor_of_seqs = Tensor(Seq(Tensor(H, I), CX), Tensor(Seq(X, Seq(Z, H)), Seq(SW, Tensor(I, X))))
        rng = random.Random(5)
        circuits = [right_deep, wide_right_deep, tensor_of_seqs,
                    *(random_circuit(rng, rng.randint(1, 5), rng.randint(1, 6)) for _ in range(100))]
        for c in circuits:
            assert [(g.kind, q) for g, q in iter_gates(c)] == walk(c)

    def test_no_recursion_on_deep_circuits(self):
        deep = parse_circuit("X")
        for _ in range(5000):
            deep = Seq(deep, X)
        assert validate(deep) == 1
        assert sum(1 for _ in iter_gates(deep)) == 5001


def left_deep(columns, first=Tensor(H, CX)):
    """A 3-wire left-deep Seq chain of `columns` columns, built bottom-up."""
    tree = first
    for k in range(columns - 1):
        tree = Seq(tree, Tensor(CX, Z) if k % 2 else Tensor(X, Tensor(I, H)))
    return tree


class TestDeepInputs:
    """Parser, unparse, ==, hash(), repr(), pickle and deepcopy have no
    recursion-depth limit."""

    def test_deeply_nested_parentheses(self):
        depth = 10**5
        assert parse_circuit("(" * depth + "H" + ")" * depth) is H
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("(" * depth + "H")
        assert err.value.message == (f"unbalanced parenthesis opened at 1:{depth} "
                                     "(unexpected end of input)")

    def test_right_nested_sequence_round_trips(self):
        depth = 10**4
        text = "X oo (" * (depth - 1) + "X oo H" + ")" * (depth - 1)
        tree = parse_circuit(text)
        assert validate(tree) == 1
        assert [(g.kind, q) for g, q in iter_gates(tree)] == [(GateKind.X, 0)] * depth + [(GateKind.H, 0)]
        assert unparse(tree) == text

    def test_left_deep_seq_round_trips(self):
        tree = left_deep(10**4)
        text = unparse(tree)
        back = parse_circuit(text)
        assert back == tree
        assert back.height == tree.height == 3
        assert list(iter_gates(back)) == list(iter_gates(tree))
        assert unparse(back) == text

    def test_deep_trees_compare_hash_and_print(self):
        a, b = left_deep(10**4), left_deep(10**4)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == f"parse_circuit({unparse(a)!r})"
        assert parse_circuit(unparse(a)) == a
        assert pickle.loads(pickle.dumps(a)) == a
        assert copy.deepcopy(a) == a
        # differs only in the first gate, 10^4 Seq nodes down
        assert a != left_deep(10**4, first=Tensor(X, CX))
        assert a != left_deep(10**4 - 1)
