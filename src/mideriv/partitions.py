"""Diverse partitions of doubled index multisets.

Everything here partitions the multiset {1, 1, 2, 2, ..., n, n} in which
each index appears exactly twice.  A partition is *diverse* when no block
contains a repeated index; these index the alternating sums evaluated in
:mod:`mideriv.forms`.  Blocks and partitions are kept in a canonical
order (blocks sorted internally; block list sorted by size descending,
then lexicographically) so values compare, hash and serialize stably.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import SizeLimitError, ValidationError

# Enumeration guards.  The recursive enumeration is exact but the count
# grows fast (1, 3, 16, 139, 1750, ...); the brute-force oracle walks all
# set partitions of 2n labeled copies, so Bell(10) = 115975 is its ceiling.
# Every result is held in memory: n = 7 gives 624,889 partitions in about
# 28 s, and n = 8 does not finish.  forms.tau_symbolic never enumerates,
# but keeps the same slot limit.
ENUMERATION_LIMIT = 7
BRUTE_FORCE_LIMIT = 5

Block = tuple[int, ...]


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[Block, ...]:
    inner = (tuple(sorted(int(x) for x in b)) for b in blocks)
    return tuple(sorted(inner, key=lambda b: (-len(b), b)))


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
            blocks = _canonical_blocks(self.blocks)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"blocks: not a list of integer blocks ({exc})") from exc
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValidationError("blocks: a partition needs at least one block")
        counts = Counter()
        for b in blocks:
            if not b:
                raise ValidationError("blocks: empty block")
            counts.update(b)
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
    def n(self) -> int:
        """Number of distinct indices."""
        return max(b[-1] for b in self.blocks)

    @property
    def k(self) -> int:
        """Block count."""
        return len(self.blocks)

    @property
    def s(self) -> int:
        """Number of block values occurring exactly twice."""
        return sum(1 for c in Counter(self.blocks).values() if c == 2)

    @property
    def is_diverse(self) -> bool:
        """True when no block contains a repeated index."""
        return all(len(set(b)) == len(b) for b in self.blocks)

    def min_block_size(self) -> int:
        return min(len(b) for b in self.blocks)

    def to_dict(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks], "s": self.s}

    @classmethod
    def from_dict(cls, data: dict) -> "Partition":
        if not isinstance(data, dict) or "blocks" not in data:
            raise ValidationError("blocks: missing")
        part = cls(tuple(tuple(b) for b in data["blocks"]))
        if "s" in data and data["s"] != part.s:
            raise ValidationError(f"s: declared {data['s']} but the partition has s={part.s}")
        return part

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


@lru_cache(maxsize=None)
def _enumerate_diverse(n: int, min_block_size: int) -> tuple[Partition, ...]:
    results: set[tuple[Block, ...]] = set()

    def extend(blocks: tuple[Block, ...], i: int) -> None:
        if i > n:
            if all(len(b) >= min_block_size for b in blocks):
                results.add(_canonical_blocks(blocks))
            return
        counts: dict[Block, int] = {}
        for b in blocks:
            counts[b] = counts.get(b, 0) + 1
        vals = sorted(counts)

        def with_added(targets: list[Block | None]) -> None:
            nb = list(blocks)
            for t in targets:
                if t is None:
                    nb.append((i,))
                else:
                    nb.remove(t)
                    nb.append(t + (i,))
            extend(tuple(nb), i + 1)

        # The two copies of index i may join two distinct existing block
        # values, both copies of a doubled value, one value plus a fresh
        # singleton, or two fresh singletons.  Joining one block twice
        # would repeat i inside a block and is skipped.
        for a in range(len(vals)):
            for b in range(a + 1, len(vals)):
                with_added([vals[a], vals[b]])
        for v in vals:
            if counts[v] == 2:
                with_added([v, v])
        for v in vals:
            with_added([v, None])
        with_added([None, None])

    extend((), 1)
    ordered = sorted(results, key=lambda p: (len(p), p))
    return tuple(Partition(p) for p in ordered)


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
    return list(_enumerate_diverse(n, min_block_size))


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


def brute_force_diverse(n: int) -> list[Partition]:
    """Independent enumeration oracle via labeled set partitions.

    Walks all set partitions of 2n labeled positions (positions 2i and
    2i+1 both carry index i+1), projects to index blocks, canonicalizes,
    dedupes, and keeps the diverse ones.  Result is set-equal to
    ``enumerate_diverse(n, 1)``.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise SizeLimitError(f"n={n!r}: expected an integer in 1..{BRUTE_FORCE_LIMIT}")
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"n={n}: brute-force oracle supports 1..{BRUTE_FORCE_LIMIT} "
            "(set partitions of 2n positions)"
        )
    seen: set[tuple[Block, ...]] = set()
    for part in set_partitions(list(range(2 * n))):
        blocks = [tuple(sorted(p // 2 + 1 for p in b)) for b in part]
        if any(len(set(b)) != len(b) for b in blocks):
            continue
        seen.add(_canonical_blocks(blocks))
    ordered = sorted(seen, key=lambda p: (len(p), p))
    return [Partition(p) for p in ordered]
