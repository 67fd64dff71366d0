"""Abstract domain: per-qubit basis labels and two set partitions.

The analysis state is a triple: a basis label per qubit, a partition of
qubits into possibly-entangled groups, and a partition recording which
qubits are known to collapse together ("levels"). A partition is stored
as one tuple whose entry i is the frozenset block holding qubit i, and
all members of a block share one frozenset object; {{0,1}, {2,3}, {4}} is
(b01, b01, b23, b23, b4). Two partitions are equal exactly when their
tuples are, which makes state comparison in tests a plain equality check.
The canonical array of representatives, [0, 0, 2, 2, 4] here, is derived
from the blocks as `parent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class BasisLabel(Enum):
    S = "s"      # computational basis state |0> or |1>
    D = "d"      # diagonal basis state |+> or |->
    TOP = "top"  # could be anything

    # Members are singletons and == is identity, so an identity hash agrees
    # with it; it replaces Enum.__hash__, a Python call on every output
    # table lookup. Its values differ between processes, so no output may
    # depend on them: no BasisLabel is kept in a set.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Partition:
    """A set partition of {0..n-1}: members[i] is the block holding qubit i.

    All members of a block share one frozenset object. An operation that
    changes nothing returns self; one that changes blocks copies the tuple
    of references once and re-points only the members of those blocks.
    """

    members: tuple[frozenset[int], ...]

    @classmethod
    def singletons(cls, n: int) -> Partition:
        return cls(tuple(frozenset((i,)) for i in range(n)))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> Partition:
        members: list[frozenset[int] | None] = [None] * n
        for block in blocks:
            listed = sorted(block)  # repeats kept, so a repeat is caught
            if not listed:
                raise ValueError("empty block")
            shared = frozenset(listed)
            for m in listed:
                if not 0 <= m < n:
                    raise IndexError(f"qubit {m} out of range for n={n}")
                if members[m] is not None:
                    raise ValueError(f"qubit {m} appears in more than one block")
                members[m] = shared
        if None in members:
            missing = [i for i, b in enumerate(members) if b is None]
            raise ValueError(f"qubits {missing} missing from blocks")
        return cls(tuple(members))

    @property
    def parent(self) -> tuple[int, ...]:
        """The canonical array: entry i is the least member of i's block."""
        return tuple(min(block) for block in self.members)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < len(self.members):
            raise IndexError(f"qubit {i} out of range for n={len(self.members)}")

    def _with(self, *blocks: frozenset[int]) -> Partition:
        """A copy in which each member of each given block holds that block."""
        members = list(self.members)
        for block in blocks:
            for m in block:
                members[m] = block
        return Partition(tuple(members))

    def same_block(self, i: int, j: int) -> bool:
        self._check_index(i)
        self._check_index(j)
        return j in self.members[i]

    def blocks(self) -> list[list[int]]:
        """Decode to sorted blocks, ordered by least member."""
        # qubits are visited in order, so each list fills sorted and the
        # blocks come at their least member: nothing needs sorting
        by_block: dict[frozenset[int], list[int]] = {}
        for i, block in enumerate(self.members):
            by_block.setdefault(block, []).append(i)
        return list(by_block.values())

    def join(self, i: int, j: int) -> Partition:
        """Unite the blocks of i and j."""
        self._check_index(i)
        self._check_index(j)
        bi = self.members[i]
        if j in bi:
            return self
        return self._with(bi | self.members[j])

    def split(self, i: int) -> Partition:
        """Move i into its own singleton block."""
        self._check_index(i)
        bi = self.members[i]
        if len(bi) == 1:
            return self
        return self._with(bi - {i}, frozenset((i,)))

    def swapped(self, i: int, j: int) -> Partition:
        """Exchange the block memberships of i and j."""
        self._check_index(i)
        self._check_index(j)
        bi, bj = self.members[i], self.members[j]
        if j in bi or len(bi) == len(bj) == 1:
            return self  # no block changes
        return self._with(bi - {i} | {j}, bj - {j} | {i})

    def validate(self) -> None:
        """Assert that the members form a partition (test/debug aid)."""
        members = self.members
        for i, block in enumerate(members):
            if i not in block:
                raise AssertionError(f"qubit {i} is not in its own block {sorted(block)}")
            for m in block:
                if not 0 <= m < len(members) or members[m] != block:
                    raise AssertionError(f"qubit {m} of block {sorted(block)} holds another block")


@dataclass
class AbstractState:
    """Analysis state: labels, entanglement partition, level partition.

    A state is owned by a single analysis run; the analyzer mutates the
    labels list and rebinds the partitions in place.
    """

    labels: list[BasisLabel]
    sep: Partition
    lvl: Partition

    @property
    def n(self) -> int:
        return len(self.labels)

    def copy(self) -> AbstractState:
        return AbstractState(list(self.labels), self.sep, self.lvl)

    def swap_adjacent(self, i: int) -> AbstractState:
        """Exchange wires i and i+1 across all three components."""
        if not 0 <= i < self.n - 1:
            raise IndexError(f"swap at {i} out of range for n={self.n}")
        self.labels[i], self.labels[i + 1] = self.labels[i + 1], self.labels[i]
        self.sep = self.sep.swapped(i, i + 1)
        self.lvl = self.lvl.swapped(i, i + 1)
        return self


def init_state(n: int) -> AbstractState:
    """State for |00...0>: all labels s, everything separable and unleveled."""
    if n < 0:
        raise ValueError("qubit count must be non-negative")
    singles = Partition.singletons(n)
    return AbstractState([BasisLabel.S] * n, singles, singles)
