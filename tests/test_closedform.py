"""Two-point closed forms and seeded rational generators."""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mideriv import closedform, verify
from mideriv.errors import DomainError

DATA = Path(__file__).parent / "data"
# relative bound against 40-digit mpmath values, fixed before measuring
CLOSED_FORM_BOUND = 4e-15


def test_two_point_mi_endpoints_and_value():
    assert closedform.two_point_mi(0.0) == 0.0
    assert 0.0 < closedform.two_point_mi(0.5) < math.log(2)
    with pytest.raises(DomainError):
        closedform.two_point_mi(-1.0)


def test_two_point_mmse_endpoints():
    assert abs(closedform.two_point_mmse(0.0) - 1.0) < 1e-12
    assert closedform.two_point_mmse(5.0) < 0.1
    with pytest.raises(DomainError, match=r"^snr=-1\.0: must be >= 0"):
        closedform.two_point_mmse(-1.0)


def test_two_point_oracles_match_forty_digit_values():
    refs = json.loads((DATA / "two_point_closed_forms.json").read_text(encoding="utf-8"))
    for snr in refs["snr"]:
        for name, fn in (("mi", closedform.two_point_mi), ("mmse", closedform.two_point_mmse)):
            ref = float(refs[name][snr])
            assert abs(fn(float(snr)) - ref) <= CLOSED_FORM_BOUND * abs(ref), (name, snr)
    # I-MMSE: dI/dsnr = mmse / 2, against the stored order-1 derivative
    order1 = json.loads((DATA / "two_point_references.json").read_text(encoding="utf-8"))
    ref = float(order1["derivatives"]["1"])
    assert abs(closedform.two_point_mmse(order1["snr"]) / 2 - ref) <= CLOSED_FORM_BOUND * abs(ref)


def test_two_point_posterior_mean_is_tanh():
    assert closedform.two_point_posterior_mean(0.49, 2.0) == math.tanh(0.7 * 2.0)


def test_mi_mmse_consistency_via_quadrature_free_derivative():
    # centered difference of the closed-form mi against mmse/2
    lam, h = 0.8, 1e-4
    deriv = (closedform.two_point_mi(lam + h) - closedform.two_point_mi(lam - h)) / (2 * h)
    assert abs(deriv - 0.5 * closedform.two_point_mmse(lam)) < 1e-8


def test_half_log_derivative_chain():
    values = [closedform.half_log_derivative(k) for k in range(1, 7)]
    assert values == [
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(1),
        Fraction(-3),
        Fraction(12),
        Fraction(-60),
    ]
    at_one = closedform.half_log_derivative(2, at=Fraction(1))
    assert at_one == Fraction(-1, 8)


def test_random_rational_joint_is_seed_deterministic():
    a = closedform.random_rational_joint(random.Random(9), 2)
    b = closedform.random_rational_joint(random.Random(9), 2)
    assert a == b
    atoms, probs = a
    assert sum(probs) == 1
    assert all(isinstance(p, Fraction) and p > 0 for p in probs)
    assert len(set(atoms)) == len(atoms)


def test_random_rational_joint_keeps_its_stated_bounds():
    # the lemma1 report's support_values and max_atoms read these bounds
    rng = random.Random(0)
    low, high = closedform.COORDINATE_RANGE
    counts, coordinates = set(), set()
    for _ in range(200):
        atoms, _ = closedform.random_rational_joint(rng, 2)
        counts.add(len(atoms))
        coordinates.update(x for atom in atoms for x in atom)
    assert counts == set(range(closedform.ATOM_COUNT_RANGE[0], closedform.ATOM_COUNT_RANGE[1] + 1))
    assert coordinates == set(range(low, high + 1))
    config = verify.verify_multiquadratic(seed=0).config
    assert config["support_values"] == [low, high] == [-2, 2]
    assert config["max_atoms"] == closedform.ATOM_COUNT_RANGE[1] == 5


def test_random_rational_joint_atom_count_override():
    atoms, probs = closedform.random_rational_joint(random.Random(2), 3, atom_count=3)
    assert len(atoms) == 3
    assert len(probs) == 3


def test_random_rational_moments_memoized_and_deterministic():
    oracle_a = closedform.random_rational_moments(random.Random(13))
    oracle_b = closedform.random_rational_moments(random.Random(13))
    block = (1, 1, 2)
    first = oracle_a(block)
    assert oracle_a(block) == first  # memo: same answer on repeat
    assert oracle_b(block) == first
    assert isinstance(first, Fraction)
