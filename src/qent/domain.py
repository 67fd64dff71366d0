"""Abstract domain: per-qubit basis labels and two canonical partitions.

The analysis state is a triple: a basis label per qubit, a partition of
qubits into possibly-entangled groups, and a partition recording which
qubits are known to collapse together ("levels"). Partitions are stored
as integer arrays where entry i is the representative (smallest member)
of qubit i's block; the array [0, 0, 2, 2, 4] encodes {{0,1}, {2,3}, {4}}.
Every partition of n qubits has exactly one such canonical array, which
makes state comparison in tests a plain equality check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class BasisLabel(Enum):
    S = "s"      # computational basis state |0> or |1>
    D = "d"      # diagonal basis state |+> or |->
    TOP = "top"  # could be anything


@dataclass(frozen=True)
class Partition:
    """Canonical array encoding of a set partition of {0..n-1}."""

    parent: tuple[int, ...]

    @classmethod
    def singletons(cls, n: int) -> Partition:
        return cls(tuple(range(n)))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> Partition:
        raw = [-1] * n
        for block in blocks:
            members = sorted(block)
            for m in members:
                if not 0 <= m < n:
                    raise IndexError(f"qubit {m} out of range for n={n}")
                if raw[m] != -1:
                    raise ValueError(f"qubit {m} appears in more than one block")
                raw[m] = members[0]
        if any(v == -1 for v in raw):
            missing = [i for i, v in enumerate(raw) if v == -1]
            raise ValueError(f"qubits {missing} missing from blocks")
        return cls(tuple(raw))

    def __len__(self) -> int:
        return len(self.parent)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < len(self.parent):
            raise IndexError(f"qubit {i} out of range for n={len(self.parent)}")

    def same_block(self, i: int, j: int) -> bool:
        self._check_index(i)
        self._check_index(j)
        return self.parent[i] == self.parent[j]

    def blocks(self) -> list[list[int]]:
        """Decode to sorted blocks, ordered by representative."""
        by_rep: dict[int, list[int]] = {}
        for i, rep in enumerate(self.parent):
            by_rep.setdefault(rep, []).append(i)
        return [by_rep[rep] for rep in sorted(by_rep)]

    def join(self, i: int, j: int) -> Partition:
        """Unite the blocks of i and j; the smaller representative survives."""
        self._check_index(i)
        self._check_index(j)
        ri, rj = self.parent[i], self.parent[j]
        if ri == rj:
            return self
        lo, hi = (ri, rj) if ri < rj else (rj, ri)
        return Partition(tuple(lo if v == hi else v for v in self.parent))

    def _relabel(self, raw: list[int], old: int, new: int, skip: int) -> None:
        # rewrite every entry equal to `old` (except position `skip`) to `new`,
        # using C-speed index scans; touches only actual block members
        parent = self.parent
        k = 0
        while True:
            try:
                k = parent.index(old, k)
            except ValueError:
                return
            if k != skip:
                raw[k] = new
            k += 1

    def split(self, i: int) -> Partition:
        """Move i into its own singleton block."""
        self._check_index(i)
        rep = self.parent[i]
        if rep != i:
            # i is not a representative, so the value i is unused elsewhere
            raw = list(self.parent)
            raw[i] = i
            return Partition(tuple(raw))
        try:
            heir = self.parent.index(i, i + 1)
        except ValueError:
            return self  # already a singleton
        raw = list(self.parent)
        self._relabel(raw, i, heir, skip=i)
        return Partition(tuple(raw))

    def swapped(self, i: int, j: int) -> Partition:
        """Exchange the block memberships of i and j, re-canonicalized."""
        self._check_index(i)
        self._check_index(j)
        if i == j or self.parent[i] == self.parent[j]:
            return self  # same block: membership sets are unchanged
        if i > j:
            i, j = j, i
        parent = self.parent
        ri, rj = parent[i], parent[j]
        # representative of i's old block once i leaves and j joins
        if ri == i:
            try:
                rep_bi = min(parent.index(i, i + 1), j)
            except ValueError:  # i is a singleton
                if rj == j and parent.count(j) == 1:
                    return self  # and so is j: no block changes
                rep_bi = j
        else:
            rep_bi = ri  # ri < i < j keeps its place
        # representative of j's old block once j leaves and i joins
        rep_bj = i if rj == j else min(rj, i)
        raw = list(parent)
        if rep_bi != ri:
            self._relabel(raw, ri, rep_bi, skip=i)
        if rep_bj != rj:
            self._relabel(raw, rj, rep_bj, skip=j)
        raw[j] = rep_bi
        raw[i] = rep_bj
        return Partition(tuple(raw))

    def validate(self) -> None:
        """Assert the canonical-form invariants (test/debug aid)."""
        parent = self.parent
        first_holder: dict[int, int] = {}
        for i, rep in enumerate(parent):
            if not 0 <= rep <= i:
                raise AssertionError(f"parent[{i}]={rep} not in [0, {i}]")
            if parent[rep] != rep:
                raise AssertionError(f"representative {rep} is not a fixed point")
            first_holder.setdefault(rep, i)
        for rep, smallest in first_holder.items():
            if rep != smallest:
                raise AssertionError(f"representative {rep} is not its block's smallest member {smallest}")


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
    return AbstractState([BasisLabel.S] * n, Partition.singletons(n), Partition.singletons(n))
