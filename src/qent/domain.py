"""Abstract domain: per-qubit basis labels and two set partitions.

The analysis state is a triple: a basis label per qubit, a partition of
qubits into possibly-entangled groups, and a partition recording which
qubits are known to collapse together ("levels"). A partition is stored
as a sequence whose entry i is the frozenset block holding qubit i, and
all members of a block share one frozenset object; {{0,1}, {2,3}, {4}} is
(b01, b01, b23, b23, b4). A `Partition` holds that sequence as a tuple, so
two partitions are equal exactly when their tuples are, which makes state
comparison in tests a plain equality check.

Each partition operation (join, split, swap) is written once, as a private
function that updates a member list in place: it re-points only the
members of the blocks it changes, O(|Bi| + |Bj|), and reports whether it
changed anything. An analysis run keeps its two partitions as such lists
and builds `Partition` values only where it hands a state out; the
`Partition` methods copy the tuple into a list, run the same function, and
return the receiver if it reports no change. `from_blocks(p.blocks(), n)`
rebuilds p's members exactly when they form a partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .circuit import _Symbol, _check_wires


class BasisLabel(_Symbol):
    S = "s"      # computational basis state |0> or |1>
    D = "d"      # diagonal basis state |+> or |->
    TOP = "top"  # could be anything


def _join(members: list[frozenset[int]], i: int, j: int) -> bool:
    """Unite the blocks of i and j in place; False if they are one block."""
    bi = members[i]
    if j in bi:
        return False
    block = bi | members[j]
    for m in block:
        members[m] = block
    return True


def _split(members: list[frozenset[int]], i: int) -> bool:
    """Move i into its own singleton block in place; False if it is one."""
    bi = members[i]
    if len(bi) == 1:
        return False
    rest = bi - {i}
    for m in rest:
        members[m] = rest
    members[i] = frozenset((i,))
    return True


def _swap(members: list[frozenset[int]], i: int, j: int) -> bool:
    """Exchange the block memberships of i and j in place; False if no
    block changes (i and j share a block, or both are singletons)."""
    bi, bj = members[i], members[j]
    if j in bi or len(bi) == len(bj) == 1:
        return False
    for block in (bi - {i} | {j}, bj - {j} | {i}):
        for m in block:
            members[m] = block
    return True


def _swap_adjacent(labels: list[BasisLabel], sep: list[frozenset[int]],
                   lvl: list[frozenset[int]], i: int, mode=None) -> bool:
    """Exchange wires i and i+1 across the labels and both member lists in
    place; True if the state changed. A swap acts alike in every mode, so
    mode (taken to fit the analyzer's rule signature) is ignored."""
    j = i + 1
    a, b = labels[i], labels[j]
    labels[i], labels[j] = b, a
    return (_swap(sep, i, j) | _swap(lvl, i, j)) or a is not b


@dataclass(frozen=True)
class Partition:
    """A set partition of {0..n-1}: members[i] is the block holding qubit i.

    All members of a block share one frozenset object. An operation copies
    the tuple of references once, runs the in-place operation on the copy,
    and returns self instead when that reports no change.
    """

    members: tuple[frozenset[int], ...]

    @classmethod
    def singletons(cls, n: int) -> Partition:
        if n < 0:
            raise ValueError("qubit count must be non-negative")
        return cls(tuple(frozenset((i,)) for i in range(n)))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> Partition:
        if n < 0:
            raise ValueError("qubit count must be non-negative")
        members: list[frozenset[int] | None] = [None] * n
        for block in blocks:
            listed = sorted(block)  # repeats kept, so a repeat is caught
            if not listed:
                raise ValueError("empty block")
            shared = frozenset(listed)
            for m in listed:
                _check_wires(n, m)
                if members[m] is not None:
                    raise ValueError(f"qubit {m} appears in more than one block")
                members[m] = shared
        if None in members:
            missing = [i for i, b in enumerate(members) if b is None]
            raise ValueError(f"qubits {missing} missing from blocks")
        return cls(tuple(members))

    def _updated(self, op, *qubits: int) -> Partition:
        """A copy with the in-place operation op applied at the qubits, or
        self when op reports no change."""
        _check_wires(len(self.members), *qubits)
        members = list(self.members)
        return Partition(tuple(members)) if op(members, *qubits) else self

    def same_block(self, i: int, j: int) -> bool:
        _check_wires(len(self.members), i, j)
        return j in self.members[i]

    def blocks(self) -> list[list[int]]:
        """Decode to sorted blocks, ordered by least member: dict.fromkeys
        keeps the distinct blocks in the order members first meets them."""
        return [sorted(block) for block in dict.fromkeys(self.members)]

    def join(self, i: int, j: int) -> Partition:
        """Unite the blocks of i and j."""
        return self._updated(_join, i, j)

    def split(self, i: int) -> Partition:
        """Move i into its own singleton block."""
        return self._updated(_split, i)

    def swapped(self, i: int, j: int) -> Partition:
        """Exchange the block memberships of i and j."""
        return self._updated(_swap, i, j)


@dataclass
class AbstractState:
    """Analysis state: labels, entanglement partition, level partition.

    A state handed out by the analyzer is owned by its caller. The public
    single-gate updates (`swap_adjacent` here, `apply_gate` and
    `apply_cx_at` in the analyzer) mutate the labels list and rebind the
    partitions to new values.
    """

    labels: list[BasisLabel]
    sep: Partition
    lvl: Partition

    @property
    def n(self) -> int:
        return len(self.labels)

    def copy(self) -> AbstractState:
        return AbstractState(list(self.labels), self.sep, self.lvl)

    def _apply(self, rule, *args) -> None:
        """Run an in-place rule, rule(labels, sep, lvl, *args) over member
        lists, on this state; rebind both partitions if it reports a change."""
        sep, lvl = list(self.sep.members), list(self.lvl.members)
        if rule(self.labels, sep, lvl, *args):
            self.sep, self.lvl = Partition(tuple(sep)), Partition(tuple(lvl))

    def swap_adjacent(self, i: int) -> AbstractState:
        """Exchange wires i and i+1 across all three components."""
        _check_wires(self.n, i, i + 1)
        self._apply(_swap_adjacent, i)
        return self


def init_state(n: int) -> AbstractState:
    """State for |00...0>: all labels s, everything separable and unleveled."""
    singles = Partition.singletons(n)
    return AbstractState([BasisLabel.S] * n, singles, singles)
