"""Enumeration of diverse partitions of doubled multisets."""
from __future__ import annotations

import random

import pytest

from mideriv.errors import SizeLimitError, ValidationError
from mideriv.partitions import (
    Partition,
    brute_force_diverse,
    enumerate_diverse,
    set_partitions,
)

KNOWN_COUNTS = {1: 1, 2: 3, 3: 16, 4: 139, 5: 1750}
BELL = [1, 1, 2, 5, 15, 52, 203]


def test_counts_match_known_sequence():
    for n, count in KNOWN_COUNTS.items():
        assert len(enumerate_diverse(n)) == count


def test_set_equality_with_brute_force_oracle():
    for n in range(1, 5):
        fast = set(enumerate_diverse(n))
        slow = set(brute_force_diverse(n))
        assert fast == slow


def test_every_partition_is_a_valid_diverse_cover():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        for part in enumerate_diverse(n):
            seen: dict[int, int] = {}
            for block in part.blocks:
                assert len(set(block)) == len(block)  # no repeats inside a block
                for v in block:
                    seen[v] = seen.get(v, 0) + 1
            assert seen == {v: 2 for v in range(1, n + 1)}
            assert part.is_diverse
            assert part.s == sum(1 for b in set(part.blocks) if part.blocks.count(b) == 2)


def test_min_block_size_filters_nestedly():
    for n in range(1, 6):
        all_parts = set(enumerate_diverse(n, 1))
        big_parts = set(enumerate_diverse(n, 2))
        assert big_parts <= all_parts
        assert all(p.min_block_size() >= 2 for p in big_parts)


def test_restricted_counts_for_centered_form():
    assert len(enumerate_diverse(3, 2)) == 2
    assert len(enumerate_diverse(4, 2)) == 16


def test_canonical_form_is_order_insensitive():
    a = Partition(((2, 1), (1, 3), (2, 3)))
    b = Partition(((3, 2), (3, 1), (1, 2)))
    assert a == b
    assert a.blocks == ((1, 2), (1, 3), (2, 3))
    assert str(a) == "{1,2}{1,3}{2,3}"


def test_partition_properties_on_known_example():
    p = Partition(((1, 2, 3), (1, 2, 3)))
    assert (p.n, p.k, p.s) == (3, 2, 1)
    assert p.min_block_size() == 3
    q = Partition(((1, 2), (1, 3), (2, 3)))
    assert (q.n, q.k, q.s) == (3, 3, 0)


def test_partition_rejects_bad_coverage():
    with pytest.raises(ValidationError, match="blocks"):
        Partition(((1, 2), (1, 2), (1, 2)))  # id 1 three times
    with pytest.raises(ValidationError, match="blocks"):
        Partition(((1, 2), (2, 3), (3, 4), (4, 5)))  # ids 1 and 5 once
    with pytest.raises(ValidationError):
        Partition(())


def test_partition_json_round_trip():
    p = Partition(((1, 2, 3), (1, 2, 3)))
    data = p.to_dict()
    assert data == {"blocks": [[1, 2, 3], [1, 2, 3]], "s": 1}
    assert Partition.from_dict(data) == p
    data["s"] = 0
    with pytest.raises(ValidationError, match="s"):
        Partition.from_dict(data)


def test_enumeration_size_guards():
    with pytest.raises(SizeLimitError):
        enumerate_diverse(0)
    with pytest.raises(SizeLimitError):
        enumerate_diverse(9)
    with pytest.raises(SizeLimitError):
        brute_force_diverse(6)


def test_enumeration_stops_at_seven():
    # n = 8 does not finish, so it is refused up front
    with pytest.raises(SizeLimitError):
        enumerate_diverse(8)
    with pytest.raises(SizeLimitError):
        enumerate_diverse(8, min_block_size=2)


def test_set_partitions_bell_counts():
    for n in range(1, 7):
        assert sum(1 for _ in set_partitions(list(range(n)))) == BELL[n]


def test_enumeration_is_deterministic_and_sorted():
    once = enumerate_diverse(4)
    twice = enumerate_diverse(4)
    assert once == twice
    assert once == sorted(once, key=lambda p: (len(p.blocks), p.blocks))
