"""Partition encoding and abstract-state tests."""

from __future__ import annotations

import random

import pytest

from qent.domain import AbstractState, BasisLabel, Partition, init_state
from helpers import NaivePartition, set_partitions, validate_partition

S, D, TOP = BasisLabel.S, BasisLabel.D, BasisLabel.TOP


def part(*blocks):
    """The partition with the given blocks of {0..n-1}, n their total size."""
    return Partition.from_blocks(blocks, sum(map(len, blocks)))


class TestEncoding:
    def test_array_encoding_example(self):
        p = part([0, 1], [2, 3], [4])
        assert p.blocks() == [[0, 1], [2, 3], [4]]
        b01, b23 = frozenset({0, 1}), frozenset({2, 3})
        assert p.members == (b01, b01, b23, b23, frozenset({4}))
        assert p.members[0] is p.members[1] and p.members[2] is p.members[3]

    def test_singletons(self):
        assert Partition.singletons(3).blocks() == [[0], [1], [2]]
        assert Partition.singletons(0).blocks() == []
        with pytest.raises(ValueError, match="qubit count must be non-negative"):
            Partition.singletons(-1)

    def test_same_block(self):
        p = part([0, 1, 2])
        assert p.blocks() == [[0, 1, 2]]
        assert p.same_block(0, 2)
        assert not Partition.singletons(3).same_block(0, 2)

    @pytest.mark.parametrize("n", range(7))
    def test_encode_decode_identity_exhaustive(self, n):
        """decode(encode(S)) == S for every partition of <= 6 elements."""
        count = 0
        for blocks in set_partitions(range(n)):
            p = Partition.from_blocks(blocks, n)
            validate_partition(p)
            assert p.blocks() == sorted((sorted(b) for b in blocks), key=lambda b: b[0])
            assert Partition.from_blocks(p.blocks(), n) == p
            count += 1
        expected_bell = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}[n]
        assert count == expected_bell

    def test_from_blocks_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Partition.from_blocks([[0, 1], [1, 2]], 3)
        with pytest.raises(ValueError):
            Partition.from_blocks([[0]], 2)
        with pytest.raises(IndexError):
            Partition.from_blocks([[0, 5]], 2)
        with pytest.raises(ValueError, match="qubit 0 appears in more than one block"):
            Partition.from_blocks([[0, 0], [1]], 2)
        with pytest.raises(ValueError, match="empty block"):
            Partition.from_blocks([[0], [], [1]], 2)
        with pytest.raises(ValueError, match="qubit count must be non-negative"):
            Partition.from_blocks([], -2)

    def test_validate_rejects_inconsistent_members(self):
        b01, b0, b1 = frozenset((0, 1)), frozenset((0,)), frozenset((1,))
        validate_partition(Partition((b01, b01)))
        for members, error in [((b01, b1), ValueError), ((b1, b0), AssertionError),
                               ((frozenset((0, 2)), b1), IndexError)]:
            with pytest.raises(error):
                validate_partition(Partition(members))


class TestJoinSplit:
    def test_join_examples(self):
        assert part([0], [1], [2], [3], [4]).join(0, 1) == part([0, 1], [2], [3], [4])
        assert part([0, 1], [2, 3], [4]).join(1, 3) == part([0, 1, 2, 3], [4])

    def test_join_same_block_is_identity(self):
        p = part([0, 1], [2])
        assert p.join(0, 1) == p
        assert p.join(2, 2) == p

    def test_split_examples(self):
        assert part([0, 1], [2, 3], [4]).split(1) == part([0], [1], [2, 3], [4])
        assert part([0, 1, 2]).split(0) == part([0], [1, 2])

    def test_split_singleton_is_identity(self):
        p = part([0, 1], [2])
        assert p.split(2) == p

    def test_out_of_range(self):
        p = Partition.singletons(3)
        with pytest.raises(IndexError):
            p.join(0, 3)
        with pytest.raises(IndexError):
            p.split(-1)
        for call in (lambda: p.same_block(0, 3), lambda: p.same_block(-1, 0),
                     lambda: p.join(-1, 0), lambda: p.swapped(-1, 0)):
            with pytest.raises(IndexError):
                call()

    def test_join_commutes(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(2, 10)
            p = Partition.singletons(n)
            for _ in range(rng.randint(0, 6)):
                p = p.join(rng.randrange(n), rng.randrange(n))
            a, b = rng.randrange(n), rng.randrange(n)
            c, d = rng.randrange(n), rng.randrange(n)
            assert p.join(a, b).join(c, d) == p.join(c, d).join(a, b)

    def test_split_undoes_join_of_singletons(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(2, 10)
            p = Partition.singletons(n)
            for _ in range(rng.randint(0, 6)):
                p = p.join(rng.randrange(n), rng.randrange(n))
            singles = [i for i in range(n) if len(p.members[i]) == 1]
            if len(singles) < 2:
                continue
            i, j = rng.sample(singles, 2)
            assert p.join(i, j).split(j) == p


class TestSwap:
    def test_symmetric_block_unchanged(self):
        p = part([0, 1])
        assert p.swapped(0, 1) == p

    def test_two_singletons_is_identity(self):
        # no block changes, so no tuple is rebuilt
        p = Partition.from_blocks([[0], [1, 3], [2], [4]], 5)
        assert p.swapped(2, 4) is p
        assert p.swapped(4, 2) is p
        assert p.swapped(0, 2) is p

    def test_asymmetric_block(self):
        # {{0},{1,2}} with wires 0 and 1 exchanged becomes {{1},{0,2}}
        assert part([0], [1, 2]).swapped(0, 1) == part([1], [0, 2])

    def test_involution(self):
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(2, 10)
            p = Partition.singletons(n)
            for _ in range(rng.randint(0, 8)):
                p = p.join(rng.randrange(n), rng.randrange(n))
            i = rng.randrange(n - 1)
            assert p.swapped(i, i + 1).swapped(i, i + 1) == p

    def test_state_swap(self):
        st = AbstractState([S, D], Partition.singletons(2), Partition.singletons(2))
        st.swap_adjacent(0)
        assert st.labels == [D, S]
        with pytest.raises(IndexError):
            st.swap_adjacent(1)

    def test_arbitrary_pairs_match_naive(self):
        # swapped() also accepts non-adjacent pairs; pin it to the oracle
        rng = random.Random(71)
        for _ in range(500):
            n = rng.randint(2, 12)
            p = Partition.singletons(n)
            naive = NaivePartition.singletons(n)
            for _ in range(rng.randint(1, 10)):
                i, j = rng.randrange(n), rng.randrange(n)
                if rng.random() < 0.5:
                    p, naive = p.join(i, j), naive.join(i, j)
                else:
                    p, naive = p.swapped(i, j), naive.swapped(i, j)
                validate_partition(p)
                assert p.blocks() == naive.as_sorted_blocks()


class TestAgainstNaiveOracle:
    """Randomized operation sequences against the set-of-sets oracle."""

    def test_random_sequences(self):
        rng = random.Random(20240809)
        for _ in range(1500):
            n = rng.randint(1, 16)
            p = Partition.singletons(n)
            naive = NaivePartition.singletons(n)
            for _ in range(rng.randint(0, 24)):
                op = rng.choice(["join", "split", "swap"] if n >= 2 else ["split"])
                if op == "join":
                    i, j = rng.randrange(n), rng.randrange(n)
                    p, naive = p.join(i, j), naive.join(i, j)
                elif op == "split":
                    i = rng.randrange(n)
                    p, naive = p.split(i), naive.split(i)
                else:
                    i = rng.randrange(n - 1)
                    p, naive = p.swapped(i, i + 1), naive.swapped(i, i + 1)
                validate_partition(p)
                assert p.blocks() == naive.as_sorted_blocks()
                assert p == naive.to_partition(n)


class TestExhaustiveSmallScope:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_partition_and_pair(self, n):
        """join, split and swapped on every partition of <= 6 elements and
        every (i, j) equal the oracle's result, and return the receiver
        itself exactly when nothing changes."""
        cases = 0
        for blocks in set_partitions(range(n)):
            p = Partition.from_blocks(blocks, n)
            naive = NaivePartition(blocks)
            for i in range(n):
                for j in range(n):
                    for got, want in [(p.join(i, j), naive.join(i, j)),
                                      (p.split(i), naive.split(i)),
                                      (p.swapped(i, j), naive.swapped(i, j))]:
                        validate_partition(got)
                        assert got == want.to_partition(n)
                        assert (got is p) == (got == p)
                    cases += 1
        assert cases == {1: 1, 2: 8, 3: 45, 4: 240, 5: 1300, 6: 7308}[n]


class TestBasisLabel:
    def test_identity_hash_and_lookup_by_value(self):
        for label in BasisLabel:
            assert hash(label) == object.__hash__(label)
        assert BasisLabel("top") is TOP
        assert BasisLabel("s") is S


class TestAbstractState:
    def test_init_examples(self):
        st = init_state(3)
        assert st.labels == [S, S, S]
        assert st.sep == part([0], [1], [2])
        assert st.lvl == part([0], [1], [2])
        assert st.sep is st.lvl  # one shared object until a rule rebinds either

        st1 = init_state(1)
        assert (st1.labels, st1.sep.blocks(), st1.lvl.blocks()) == ([S], [[0]], [[0]])

        st0 = init_state(0)
        assert st0.n == 0
        assert st0.sep.blocks() == []

    def test_init_rejects_negative(self):
        with pytest.raises(ValueError):
            init_state(-1)

    def test_copy_is_independent(self):
        st = init_state(2)
        snap = st.copy()
        st.labels[0] = TOP
        st.sep = st.sep.join(0, 1)
        assert snap.labels == [S, S]
        assert snap.sep == Partition.singletons(2)
