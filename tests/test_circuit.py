"""Parser, heights, validation, and round-trip tests for the circuit language."""

from __future__ import annotations

import itertools
import random

import pytest

from qent.circuit import (
    CX,
    GATES,
    H,
    I,
    X,
    Z,
    CircuitSyntaxError,
    Gate,
    GateKind,
    Seq,
    Tensor,
    ValidationError,
    height,
    iter_gates,
    parse_circuit,
    unparse,
    validate,
)
from helpers import ALL_KINDS, random_circuit


def naive_height(node):
    """Independent recursive height oracle, straight from the definition."""
    if isinstance(node, Gate):
        return 2 if node.kind in (GateKind.SW, GateKind.CX) else 1
    if isinstance(node, Seq):
        return naive_height(node.left)
    return naive_height(node.left) + naive_height(node.right)


def naive_valid(node):
    if isinstance(node, Gate):
        return True
    if isinstance(node, Seq):
        return (naive_valid(node.left) and naive_valid(node.right)
                and naive_height(node.left) == naive_height(node.right))
    return naive_valid(node.left) and naive_valid(node.right)


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


class TestLexer:
    @pytest.mark.parametrize("text, expected", [
        ("H²", (1, 1, "unknown token 'H²'")),
        ("²H", (1, 1, "unexpected character '²'")),  # '²' starts a regex word but is no letter
        ("***", (1, 3, "expected '**' (single '*' is not an operator)")),
        ("H H foo", (1, 5, "unknown token 'foo'")),  # beats the parse error at 1:3
        ("H\u00a0**\x0cX", Tensor(H, X)),
        ("H\u2028Q", (1, 3, "unknown token 'Q'")),  # a line separator is one column
        ("H oo # c", (1, 9, "expected gate or '(' (unexpected end of input)")),
    ])
    def test_edge_cases(self, text, expected):
        if not isinstance(expected, tuple):
            assert parse_circuit(text) == expected
            return
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.column, err.value.message) == expected


class TestHeight:
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_gate_heights(self, kind):
        expected = 2 if kind in (GateKind.SW, GateKind.CX) else 1
        assert Gate(kind).height == expected

    def test_examples(self):
        assert height(CX) == 2
        assert height(Tensor(H, I)) == 2
        assert height(Seq(Tensor(H, I), CX)) == 2

    def test_tensor_is_additive(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 3))
            b = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 3))
            assert height(Tensor(a, b)) == height(a) + height(b)

    def test_matches_naive_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 4))
            assert height(c) == naive_height(c)


class TestValidate:
    def test_well_formed(self):
        assert validate(Seq(Tensor(H, I), CX)) == 2
        assert validate(I) == 1

    def test_mismatch(self):
        with pytest.raises(ValidationError) as err:
            validate(Seq(H, CX))
        assert err.value.left_height == 1
        assert err.value.right_height == 2

    def test_reports_leftmost_deepest_first(self):
        inner = Seq(H, CX)  # 1 vs 2
        outer = Seq(inner, Tensor(X, Z))  # 1 vs 2 as well
        with pytest.raises(ValidationError) as err:
            validate(outer)
        assert err.value.node is inner
        assert err.value.path == "root.left"

    def test_exhaustive_small_trees(self):
        """Every tree over <= 4 leaves validates iff all Seq children agree."""

        def trees(leaves):
            if len(leaves) == 1:
                yield leaves[0]
                return
            for cut in range(1, len(leaves)):
                for left in trees(leaves[:cut]):
                    for right in trees(leaves[cut:]):
                        yield Seq(left, right)
                        yield Tensor(left, right)

        gates = [Gate(k) for k in GateKind]
        checked = 0
        for count in range(1, 5):
            for combo in itertools.product(gates, repeat=count):
                for tree in trees(list(combo)):
                    checked += 1
                    if naive_valid(tree):
                        assert validate(tree) == naive_height(tree)
                    else:
                        with pytest.raises(ValidationError):
                            validate(tree)
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
        """Round trip holds for arbitrary (even ill-formed) trees."""
        rng = random.Random(4)
        gates = [Gate(k) for k in ALL_KINDS]

        def random_tree(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(gates)
            ctor = Seq if rng.random() < 0.5 else Tensor
            return ctor(random_tree(depth - 1), random_tree(depth - 1))

        for _ in range(300):
            c = random_tree(4)
            assert parse_circuit(unparse(c)) == c


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
        rng = random.Random(5)
        for _ in range(100):
            n, cols = rng.randint(1, 5), rng.randint(1, 6)
            c = random_circuit(rng, n, cols)

            def leaves(node):
                if isinstance(node, Gate):
                    return 1
                return leaves(node.left) + leaves(node.right)

            assert len(list(iter_gates(c))) == leaves(c)

    def test_no_recursion_on_deep_circuits(self):
        deep = parse_circuit("X")
        for _ in range(5000):
            deep = Seq(deep, X)
        assert validate(deep) == 1
        assert sum(1 for _ in iter_gates(deep)) == 5001


class TestDeepInputs:
    """Parser and unparse have no recursion-depth limit. Trees are compared
    by gate order and height, since dataclass == recurses."""

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
        columns = 10**4
        tree = Tensor(H, CX)
        for k in range(columns - 1):
            tree = Seq(tree, Tensor(CX, Z) if k % 2 else Tensor(X, Tensor(I, H)))
        text = unparse(tree)
        back = parse_circuit(text)
        assert back.height == tree.height == 3
        assert list(iter_gates(back)) == list(iter_gates(tree))
        assert unparse(back) == text
