"""Diverse partitions of doubled index multisets.

Everything here partitions the multiset {1, 1, 2, 2, ..., n, n} in which
each index appears exactly twice.  A partition is *diverse* when no block
contains a repeated index; these index the alternating sums evaluated in
:mod:`mideriv.forms`.  Blocks and partitions are kept in a canonical
order (blocks sorted internally; block list sorted by size descending,
then lexicographically) so values compare, hash and serialize stably.

One construction builds them: a programme over the slots of a binding
(``slot_states``), which :mod:`mideriv.forms` runs at the binding of
each expansion, so repeated variables collapse as they arrive, and which
``enumerate_diverse`` runs at the distinct binding (1, ..., n), where
its states are the partitions themselves.  A recursive enumerator and a
brute-force walk over labeled set partitions are kept beside the tests
(``tests/partition_oracles.py``) as its independent oracles.
"""
from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import SizeLimitError, ValidationError, integer

# Enumeration guard.  The count grows fast (1, 3, 16, 139, 1750, 29388,
# 624889) and every result is held in memory: on a 2-CPU machine under
# CPython 3.11, enumerate_diverse(7) takes about 6 s and 205 MB, and
# `mideriv partitions --n 7 --format json` about 11 s and 840 MB for its
# 38 MB of output; n = 8 does not finish.  forms.tau_symbolic keeps the
# same slot limit.
ENUMERATION_LIMIT = 7

Block = tuple[int, ...]


def canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[Block, ...]:
    """Blocks sorted internally, then by size descending and lexicographically."""
    # lexicographic first, then a stable sort by size, largest first
    inner = sorted(tuple(sorted(b)) for b in blocks)
    return tuple(sorted(inner, key=len, reverse=True))


@lru_cache(maxsize=None)
def _doubled_indices(length: int) -> list[int]:
    """[1, 1, 2, 2, ..., n, n] for length 2n (read it, never change it)."""
    return [i // 2 + 1 for i in range(length)]


@dataclass(frozen=True)
class Partition:
    """A multiset of blocks covering {1, 1, ..., n, n}.

    The constructor canonicalizes its input and validates coverage:
    every index 1..n must appear exactly twice across all blocks (which
    also forces any repeated block value to repeat at most twice).
    """

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        try:
            blocks = canonical_blocks(
                tuple(integer(x, ValidationError, "blocks") for x in b) for b in self.blocks
            )
        except TypeError as exc:
            raise ValidationError(f"blocks: not a list of integer blocks ({exc})") from exc
        object.__setattr__(self, "blocks", blocks)
        self._check_coverage()

    @classmethod
    def _canonical(cls, blocks: tuple[Block, ...]) -> "Partition":
        """Wrap integer blocks already in canonical order; coverage is still checked."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "blocks", blocks)
        partition._check_coverage()
        return partition

    def _check_coverage(self) -> None:
        blocks = self.blocks
        if not blocks:
            raise ValidationError("blocks: a partition needs at least one block")
        if not all(blocks):
            raise ValidationError("blocks: empty block")
        indices = sorted(itertools.chain.from_iterable(blocks))
        if not len(indices) % 2 and indices == _doubled_indices(len(indices)):
            return
        # rejected: count the indices only to word the error
        counts = Counter(indices)
        if min(counts) < 1:
            raise ValidationError("blocks: indices are 1-based")
        n = max(counts)
        bad = [i for i in range(1, n + 1) if counts.get(i, 0) != 2]
        if bad:
            raise ValidationError(
                f"blocks: index {bad[0]} appears {counts.get(bad[0], 0)} times, "
                "expected exactly 2 (doubled multiset)"
            )

    @property
    def s(self) -> int:
        """Number of block values occurring exactly twice."""
        # coverage lets a block value occur at most twice
        return len(self.blocks) - len(set(self.blocks))

    def to_dict(self) -> dict:
        return {"blocks": list(map(list, self.blocks)), "s": self.s}

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


# A unit of a programme state is one raw block value with its content
# mapped through the slot binding: (-len(content), content, doubled),
# doubled when the raw value occurs twice (an identical pair).  The
# negated size leads, so a sorted state lists its units in canonical
# block order (size descending, then lexicographic).
Unit = tuple[int, Block, bool]
State = tuple[Unit, ...]


def _slot_moves(state: State, var: int):
    """(state, ways) after both copies of the next slot, bound to var, land.

    The moves of the raw construction: join two distinct block values,
    join both copies of a doubled value, join one value and open a fresh
    singleton, or open two fresh singletons (a new doubled pair).
    Joining one copy of a doubled value splits it into two plain blocks.
    Units equal after the binding stand for distinct raw values, so a
    move on them is counted C(c, 2), c1 * c2 or c times.  States are
    sorted tuples; contents stay sorted because slots arrive in
    increasing variable order.
    """
    starts: list[int] = []  # first position of each run of equal units
    for i, u in enumerate(state):
        if not i or u != state[i - 1]:
            starts.append(i)
    ends = starts[1:] + [len(state)]
    # what one copy of var makes of each run's unit
    one = []
    for i in starts:
        size, c, d = state[i]
        grown = (size - 1, c + (var,), False)
        one.append((grown, (size, c, False)) if d else (grown,))

    fresh = (-1, (var,), False)
    for a, pa in enumerate(starts):
        ca = ends[a] - pa
        rest = state[:pa] + state[pa + 1 :]
        if ca > 1:
            yield tuple(sorted(state[:pa] + state[pa + 2 :] + one[a] + one[a])), ca * (ca - 1) // 2
        for b in range(a + 1, len(starts)):
            pb = starts[b] - 1  # its position in rest
            added = one[a] + one[b]
            yield tuple(sorted(rest[:pb] + rest[pb + 1 :] + added)), ca * (ends[b] - starts[b])
        size, c, d = state[pa]
        if d:
            yield tuple(sorted(rest + ((size - 1, c + (var,), True),))), ca
        yield tuple(sorted(rest + one[a] + (fresh,))), ca
    yield tuple(sorted(state + ((-1, (var,), True),))), 1


def slot_states(variables: Iterable[int], min_block_size: int) -> dict[State, int]:
    """Final states of the slot programme, each with its multiplicity.

    The diverse partitions of {1, 1, ..., n, n} are built index by
    index, each index landing as the variable its slot is bound to.  A
    state is the sorted multiset of units (the raw block values with
    their contents mapped through the binding), weighted by how many
    raw partitions map onto it.  Two raw blocks are identical only when
    both began as the fresh singletons of one index and every later
    index joined both, which is what the doubled flag follows.  The raw
    construction is symmetric in the indices, so the slots are taken in
    increasing variable order.  At the distinct binding (1, ..., n)
    every state is one raw partition, with multiplicity 1.

    With min_block_size=2 a state is dropped once its singleton blocks
    outnumber twice the slots still to come: each slot grows at most
    two blocks, so no final state holds a singleton.
    """
    ordered = sorted(variables)
    n = len(ordered)
    states: dict[State, int] = {(): 1}
    for i, var in enumerate(ordered):
        nxt: dict[State, int] = {}
        for state, mult in states.items():
            for key, ways in _slot_moves(state, var):
                nxt[key] = nxt.get(key, 0) + mult * ways
        if min_block_size == 2:
            room = 2 * (n - 1 - i)
            nxt = {
                key: mult for key, mult in nxt.items() if sum(1 + d for size, _, d in key if size == -1) <= room
            }
        states = nxt
    return states


_content = operator.itemgetter(1)
_doubled = operator.itemgetter(2)


def state_blocks(state: State) -> tuple[Block, ...]:
    """The canonical block tuple of a state; a doubled unit gives two blocks."""
    # the units are already in canonical block order
    if not any(map(_doubled, state)):
        return tuple(map(_content, state))
    blocks = []
    for _, c, d in state:
        blocks.append(c)
        if d:
            blocks.append(c)
    return tuple(blocks)


def enumerate_diverse(n: int, min_block_size: int = 1) -> list[Partition]:
    """All diverse partitions of {1, 1, ..., n, n}, canonical, sorted.

    Parameters
    ----------
    n : int
        Number of distinct indices, 1 <= n <= 7.
    min_block_size : {1, 2}
        With 2, keep only partitions whose blocks all have size >= 2
        (the index set of the centered form).

    Returns
    -------
    list of Partition, ordered by (block count, block list).
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise SizeLimitError(f"n={n!r}: expected an integer in 1..{ENUMERATION_LIMIT}")
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise SizeLimitError(f"n={n}: supported enumeration range is 1..{ENUMERATION_LIMIT}")
    if min_block_size not in (1, 2):
        raise ValidationError(f"min_block_size: got {min_block_size!r}, expected 1 or 2")
    # the programme at the distinct binding: each state is one partition;
    # bucketed by block count, each bucket sorts by plain tuple comparison
    by_count: dict[int, list[tuple[Block, ...]]] = {}
    for state in slot_states(range(1, n + 1), min_block_size):
        blocks = state_blocks(state)
        by_count.setdefault(len(blocks), []).append(blocks)
    return [Partition._canonical(p) for k in sorted(by_count) for p in sorted(by_count[k])]


def set_partitions(items: list) -> Iterator[list[list]]:
    """Yield every partition of ``items`` into nonempty unordered blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part
