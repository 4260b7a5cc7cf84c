"""Independent enumerators of diverse partitions, the oracles of the slot programme.

The package builds diverse partitions of {1, 1, ..., n, n} one way, by
the slot programme of ``mideriv.partitions``.  These two build them
differently, for the tests to compare against:

* ``recursive_diverse`` adds the two copies of each index to a list of
  raw blocks, one partial partition at a time, and canonicalises at the
  end;
* ``brute_force_diverse`` walks every set partition of 2n labeled
  positions and keeps the diverse ones (Bell(2n) partitions, so n <= 5
  is practical).

``coverage_error`` states the coverage rule of ``Partition`` by counting,
as the oracle of the constructor's check.
"""
from __future__ import annotations

from collections import Counter

from mideriv.partitions import Partition, set_partitions

Block = tuple[int, ...]


def _sorted_partitions(found: set[tuple[Block, ...]]) -> list[Partition]:
    # Partition() sorts the blocks itself, so the order here is its own
    parts = [Partition(p) for p in found]
    return sorted(parts, key=lambda p: (len(p.blocks), p.blocks))


def recursive_diverse(n: int, min_block_size: int = 1) -> list[Partition]:
    """Diverse partitions by recursion over the indices, ordered by (k, blocks)."""
    results: set[tuple[Block, ...]] = set()

    def extend(blocks: tuple[Block, ...], i: int) -> None:
        if i > n:
            if all(len(b) >= min_block_size for b in blocks):
                results.add(tuple(sorted(blocks)))
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
    return _sorted_partitions(results)


def brute_force_diverse(n: int) -> list[Partition]:
    """Diverse partitions from all set partitions of 2n labeled positions.

    Positions 2i and 2i+1 both carry index i+1; each set partition is
    projected to index blocks and kept when no block repeats an index.
    """
    seen: set[tuple[Block, ...]] = set()
    for part in set_partitions(list(range(2 * n))):
        blocks = [tuple(sorted(p // 2 + 1 for p in b)) for b in part]
        if any(len(set(b)) != len(b) for b in blocks):
            continue
        seen.add(tuple(sorted(blocks)))
    return _sorted_partitions(seen)


def coverage_error(blocks: list[list[int]]) -> str | None:
    """None when integer blocks cover {1, 1, ..., n, n}, else the ValidationError text.

    Counts every index: each of 1..max must appear exactly twice, in
    nonempty blocks, and no index may be below 1.
    """
    if not blocks:
        return "blocks: a partition needs at least one block"
    if not all(blocks):
        return "blocks: empty block"
    counts = Counter(i for b in blocks for i in b)
    if min(counts) < 1:
        return "blocks: indices are 1-based"
    for i in range(1, max(counts) + 1):
        if counts[i] != 2:
            return f"blocks: index {i} appears {counts[i]} times, expected exactly 2 (doubled multiset)"
    return None
