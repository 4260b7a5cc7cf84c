"""Enumeration of diverse partitions of doubled multisets."""
from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mideriv.cli import main
from mideriv.errors import SizeLimitError, ValidationError
from mideriv.partitions import Partition, enumerate_diverse, set_partitions, slot_states

from partition_oracles import brute_force_diverse, coverage_error, recursive_diverse

KNOWN_COUNTS = {1: 1, 2: 3, 3: 16, 4: 139, 5: 1750, 6: 29388}
BELL = [1, 1, 2, 5, 15, 52, 203]


def test_counts_match_known_sequence():
    for n, count in KNOWN_COUNTS.items():
        assert len(enumerate_diverse(n)) == count


@pytest.mark.parametrize("n", range(1, 7))
def test_distinct_binding_states_are_the_partitions(n):
    # enumerate_diverse reads the programme at the distinct binding: there
    # every state stands for one raw partition, and the sorted states are
    # the recursive oracle's list, in its order
    for mbs in (1, 2):
        states = slot_states(range(1, n + 1), mbs)
        assert all(mult == 1 for mult in states.values()), (n, mbs)
        assert enumerate_diverse(n, mbs) == recursive_diverse(n, mbs), (n, mbs)


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
            assert part.s == sum(1 for b in set(part.blocks) if part.blocks.count(b) == 2)


def test_min_block_size_filters_nestedly():
    for n in range(1, 6):
        all_parts = set(enumerate_diverse(n, 1))
        big_parts = set(enumerate_diverse(n, 2))
        assert big_parts <= all_parts
        assert all(len(b) >= 2 for p in big_parts for b in p.blocks)


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
    assert (len(p.blocks), p.s) == (2, 1)
    q = Partition(((1, 2), (1, 3), (2, 3)))
    assert (len(q.blocks), q.s) == (3, 0)


def test_partition_rejects_bad_coverage():
    with pytest.raises(ValidationError, match="blocks"):
        Partition(((1, 2), (1, 2), (1, 2)))  # id 1 three times
    with pytest.raises(ValidationError, match="blocks"):
        Partition(((1, 2), (2, 3), (3, 4), (4, 5)))  # ids 1 and 5 once
    with pytest.raises(ValidationError):
        Partition(())


@st.composite
def near_covers(draw):
    """Blocks cut from {1, 1, ..., n, n}, with an index sometimes added or dropped."""
    n = draw(st.integers(1, 4))
    indices = [i for i in range(1, n + 1) for _ in range(2)]
    change = draw(st.sampled_from(["none", "none", "add", "drop"]))
    if change == "add":
        indices.append(draw(st.integers(-1, n + 1)))
    elif change == "drop":
        indices.pop(draw(st.integers(0, len(indices) - 1)))
    indices = draw(st.permutations(indices))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(indices) - 1)))))
    bounds = [0, *cuts, len(indices)]
    return [indices[a:b] for a, b in zip(bounds, bounds[1:])]


small_blocks = st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_blocks, near_covers()))
def test_coverage_check_agrees_with_counting(blocks):
    # Partition accepts exactly the covers the counting oracle accepts,
    # and words every rejection as the oracle does
    expected = coverage_error(blocks)
    if expected is None:
        assert Partition(blocks).blocks == tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: (-len(b), b)))
    else:
        with pytest.raises(ValidationError) as info:
            Partition(blocks)
        assert str(info.value) == expected


def test_partition_rejects_non_integer_indices():
    # 1.2 used to truncate to 1 and pass as {1,2}{1,2}
    for bad in (1.2, "1", True):
        with pytest.raises(ValidationError, match="blocks"):
            Partition([[bad, 2], [1, 2]])
    # a block that is no list of integers at all
    with pytest.raises(ValidationError, match="^blocks: not a list of integer blocks"):
        Partition([[1, 2], 1, 2])
    assert Partition([[np.int64(1), 2], [1, 2]]).blocks == ((1, 2), (1, 2))


def test_cli_partitions_payload_lists_the_partitions(capsys):
    # the partitions payload is written from the canonical blocks
    listed = {}
    for n in range(1, 5):
        for mbs in (1, 2):
            assert main(["partitions", "--n", str(n), "--min-block-size", str(mbs), "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            parts = enumerate_diverse(n, mbs)
            assert payload["count"] == len(parts), (n, mbs)
            assert payload["partitions"] == [{"blocks": [list(b) for b in p.blocks], "s": p.s} for p in parts], (n, mbs)
            listed[n, mbs] = payload["partitions"]
    # {1,2,3}{1,2,3} repeats its one block
    assert {"blocks": [[1, 2, 3], [1, 2, 3]], "s": 1} in listed[3, 2]


def test_enumeration_size_guards():
    with pytest.raises(SizeLimitError):
        enumerate_diverse(0)
    with pytest.raises(SizeLimitError):
        enumerate_diverse(9)


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
