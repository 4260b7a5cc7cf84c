"""The exact half's value classes: construction, repr, equality, hashing,
immutability, pickling and deep copies."""
from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import pytest

from mideriv.forms import MomentOracle, SlotBinding, SymbolicExpansion
from mideriv.graphs import LabeledMultigraph
from mideriv.partitions import Partition

# (class, its fields by keyword, the repr of the instance they build)
VALUES = {
    "Partition": (Partition, {"blocks": ((1, 2), (1, 2))}, "Partition(blocks=((1, 2), (1, 2)))"),
    "LabeledMultigraph": (
        LabeledMultigraph,
        {"vertex_count": 2, "edges": ((0, 1, 1), (0, 1, 2))},
        "LabeledMultigraph(vertex_count=2, edges=((0, 1, 1), (0, 1, 2)))",
    ),
    "SlotBinding": (SlotBinding, {"variables": (1, 1, 2)}, "SlotBinding(variables=(1, 1, 2))"),
    "MomentOracle": (
        MomentOracle,
        {"fn": math.prod, "exact": True},
        "MomentOracle(fn=<built-in function prod>, exact=True)",
    ),
    "SymbolicExpansion": (
        SymbolicExpansion,
        {"terms": ((((1,), (2,)), Fraction(1, 2)),)},
        "SymbolicExpansion(terms=((((1,), (2,)), Fraction(1, 2)),))",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_behave_as_frozen_values(name):
    cls, fields, text = VALUES[name]
    value = cls(**fields)
    assert repr(value) == text
    # positional and keyword construction agree, and an equal value hashes
    # as its field tuple does
    same = cls(*fields.values())
    assert value == same and not value != same
    assert hash(value) == hash(same) == hash(tuple(fields.values()))
    # another class's value is never equal, even with equal fields
    for other_name, (other_cls, other_fields, _) in VALUES.items():
        if other_name != name:
            assert value != other_cls(**other_fields)
            assert value.__eq__(other_cls(**other_fields)) is NotImplemented
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value and type(twin) is cls and repr(twin) == text


def test_moment_oracle_is_inexact_by_default():
    assert MomentOracle(math.prod) == MomentOracle(math.prod, exact=False) != MomentOracle(math.prod, True)


def test_an_evaluated_expansion_still_compares_and_pickles_by_its_terms():
    expansion = SymbolicExpansion(((((1,), (1,)), Fraction(-1, 2)), (((1, 1),), 1)))
    assert expansion.evaluate(MomentOracle(lambda block: 2.0)) == 0.0
    twin = pickle.loads(pickle.dumps(expansion))
    assert twin == expansion and hash(twin) == hash(expansion)
    assert twin.evaluate(MomentOracle(lambda block: float(len(block)))) == 1.5
