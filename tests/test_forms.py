"""Exact symbolic expansions, moment oracles, and cumulant routes."""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mideriv.cli import main
from mideriv.closedform import random_rational_joint, random_rational_moments
from mideriv.errors import DomainError, SizeLimitError, ValidationError
from mideriv.forms import (
    SlotBinding,
    SymbolicExpansion,
    _tau_symbolic,
    _term_key,
    atoms_moment_oracle,
    gaussian_moment_oracle,
    kappa_eval,
    kappa_recursion_oracle,
    kappa_symbolic,
    tau_eval,
    tau_symbolic,
    univariate_moment_oracle,
)
from mideriv.partitions import canonical_blocks

from partition_oracles import brute_force_diverse, recursive_diverse

HALF = Fraction(1, 2)


def test_single_slot_value_is_minus_half_square():
    # one slot, E[X] = 2: the only partition is the singleton pair block
    oracle = univariate_moment_oracle([Fraction(2), Fraction(5)])
    assert tau_eval(SlotBinding((1,)), oracle, 1) == Fraction(-2)
    # the restricted form has no admissible partition for one slot... the
    # doubled multiset {1,1} has the single block {1,1}? no: diverse
    # partitions need distinct entries per block, so {1},{1} is the only
    # one and dies under min_block_size=2.
    assert tau_eval(SlotBinding((1,)), oracle, 2) == 0


def test_single_slot_matches_minus_half_mean_squared():
    rng = random.Random(5)
    for _ in range(25):
        m1 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        oracle = univariate_moment_oracle([m1, m1 * m1 + 1])
        assert tau_eval(SlotBinding((1,)), oracle, 1) == -HALF * m1 * m1


def test_centered_pair_collapse():
    ex = tau_symbolic(SlotBinding((1, 1)), min_block_size=2)
    assert ex.pretty() == "-1/2*M2^2"
    # M2 = 0.5 gives -1/8
    oracle = univariate_moment_oracle([Fraction(0), HALF])
    assert tau_eval(SlotBinding((1, 1)), oracle, 2) == Fraction(-1, 8)


def test_constant_variable_kills_every_term():
    oracle = univariate_moment_oracle([Fraction(0), Fraction(0), Fraction(0), Fraction(0)])
    for slots in ((1, 1), (1, 1, 1), (1, 1, 1, 1)):
        assert tau_eval(SlotBinding(slots), oracle, 2) == 0


def test_identical_argument_collapses_match_known_forms():
    for n, expected in [
        (2, "-1/2*M2^2"),
        (3, "M2^3 - 1/2*M3^2"),
        (4, "-15/2*M2^4 + 6*M3^2*M2 + 3*M4*M2^2 - 1/2*M4^2"),
    ]:
        ex = tau_symbolic(SlotBinding((1,) * n), min_block_size=2)
        assert ex.pretty() == expected


def test_restricted_term_counts():
    assert len(tau_symbolic(SlotBinding((1, 1, 1)), min_block_size=2).terms) == 2
    assert len(tau_symbolic(SlotBinding((1, 1, 1, 1)), min_block_size=2).terms) == 4
    assert len(tau_symbolic(SlotBinding((1,)), min_block_size=2).terms) == 0


def test_gaussian_fourth_order_value():
    # plug standard-Gaussian moments into the restricted 4-slot form:
    # -15/2 + 6*9 + 3*3 - 1/2*9 with M2=1, M3=0, M4=3 -> -15/2+9-9/2 = -3
    value = tau_eval(SlotBinding((1, 1, 1, 1)), gaussian_moment_oracle(), 2)
    assert value == Fraction(-3)


def test_distinct_slot_expansion_uses_expectation_blocks():
    ex = tau_symbolic(SlotBinding((1, 2, 3)), min_block_size=2)
    assert ex.pretty() == "E[x1*x2]*E[x1*x3]*E[x2*x3] - 1/2*E[x1*x2*x3]^2"


def test_slot_binding_from_multiplicities():
    binding = SlotBinding.from_multiplicities((2, 0, 1))
    assert binding.variables == (1, 1, 3)
    with pytest.raises(ValidationError):
        SlotBinding.from_multiplicities((0, 0))
    with pytest.raises(SizeLimitError):
        tau_symbolic(SlotBinding.from_multiplicities((5, 4)))
    # integers are checked, never truncated or parsed; numpy integers pass
    assert SlotBinding.from_multiplicities((np.int64(1), 2)).variables == (1, 2, 2)
    assert SlotBinding((np.int32(2), 1)).variables == (2, 1)
    for bad in (1.5, "2", True):
        with pytest.raises(ValidationError, match="multiplicities"):
            SlotBinding.from_multiplicities((bad, 2))
    for bad in (1.7, "2", True):
        with pytest.raises(ValidationError, match="variables"):
            SlotBinding((bad, 2))
    with pytest.raises(ValidationError, match="^variables: a binding needs at least one slot"):
        SlotBinding(())
    with pytest.raises(ValidationError, match="^variables: variable ids are 1-based"):
        SlotBinding((0, 1))


def weighted(partitions, n, min_block_size):
    """(blocks, (-1)**(k-1) * (k-2)! * 2**(n-s)) for every raw partition kept.

    These are the raw coefficients (-1)**(k-1) * (k-2)! / 2**s scaled to
    integers over 2**n; partitions with a block below min_block_size are
    dropped.
    """
    kept = []
    for part in partitions:
        k = len(part.blocks)
        if min(map(len, part.blocks)) >= min_block_size:
            kept.append((part.blocks, (-1) ** (k - 1) * math.factorial(k - 2) * 2 ** (n - part.s)))
    return kept


def collapse(raw, variables):
    """Enumerate-then-collapse oracle for tau_symbolic.

    Maps every block of the weighted raw partitions through the binding
    and sums the coefficients of equal monomials.
    """
    acc = {}
    for blocks, scaled in raw:
        mono = tuple(sorted(tuple(sorted(variables[s - 1] for s in b)) for b in blocks))
        acc[mono] = acc.get(mono, 0) + scaled
    return SymbolicExpansion(tuple((m, Fraction(c, 2 ** len(variables))) for m, c in acc.items()))


def multiplicity_patterns(n, largest=None):
    """Every multiplicity pattern of order n, largest multiplicity first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in multiplicity_patterns(n - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("n", range(1, 7))
def test_programme_matches_enumerate_then_collapse(n):
    for mbs in (1, 2):
        raw = weighted(recursive_diverse(n, mbs), n, mbs)
        for pattern in multiplicity_patterns(n):
            binding = SlotBinding.from_multiplicities(pattern)
            assert tau_symbolic(binding, mbs) == collapse(raw, binding.variables), (pattern, mbs)


@pytest.mark.parametrize("n", range(1, 6))
def test_programme_matches_collapsed_brute_force(n):
    partitions = brute_force_diverse(n)
    for mbs in (1, 2):
        raw = weighted(partitions, n, mbs)
        for pattern in multiplicity_patterns(n):
            binding = SlotBinding.from_multiplicities(pattern)
            assert tau_symbolic(binding, mbs) == collapse(raw, binding.variables), (pattern, mbs)


def test_programme_matches_oracle_on_non_contiguous_bindings():
    for variables in ((1, 2, 1), (2, 1, 2, 1), (1, 2, 3, 1, 2)):
        n = len(variables)
        for mbs in (1, 2):
            raw = weighted(recursive_diverse(n, mbs), n, mbs)
            assert tau_symbolic(SlotBinding(variables), mbs) == collapse(raw, variables)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.sampled_from((1, 2)))
def test_programme_matches_oracle_on_random_bindings(variables, mbs):
    n = len(variables)
    raw = weighted(recursive_diverse(n, mbs), n, mbs)
    assert tau_symbolic(SlotBinding(tuple(variables)), mbs) == collapse(raw, variables)


@pytest.mark.parametrize("n", range(1, 8))
def test_programme_output_is_already_canonical(n):
    # _tau_symbolic hands its terms over sorted and merged, skipping the
    # constructor's canonicalisation, so check the canonical form itself:
    # blocks in canonical order, term keys strictly increasing (no repeated
    # monomial), and nonzero Fraction coefficients
    try:
        for pattern in multiplicity_patterns(n):
            for mbs in (1, 2):
                terms = tau_symbolic(SlotBinding.from_multiplicities(pattern), mbs).terms
                keys = [_term_key(mono) for mono, _ in terms]
                assert all(a < b for a, b in zip(keys, keys[1:])), (pattern, mbs)
                for mono, coeff in terms:
                    assert mono == canonical_blocks(mono), (pattern, mbs, mono)
                    assert type(coeff) is Fraction and coeff != 0, (pattern, mbs, mono)
    finally:
        if n == 7:
            _tau_symbolic.cache_clear()  # the distinct 7-slot form holds 624,889 terms


def test_kappa_expansions_are_canonical():
    for n in range(1, 9):
        expansion = kappa_symbolic(n)
        assert SymbolicExpansion(expansion.terms) == expansion, n


def test_gaussian_chain_at_order_seven():
    # (-1)**6 * 6! / 2, the seventh derivative of log(1 + l) / 2 at 0
    assert tau_eval(SlotBinding((1,) * 7), gaussian_moment_oracle(), 1) == 360


def test_symbolic_size_guard_holds_for_any_binding():
    for variables in ((1,) * 8, tuple(range(1, 9)), (1, 2) * 4):
        with pytest.raises(SizeLimitError):
            tau_symbolic(SlotBinding(variables))


def test_tau_eval_matches_symbolic_evaluate_on_random_oracles():
    rng = random.Random(17)
    for _ in range(10):
        slots = tuple(rng.choice((1, 1, 2)) for _ in range(rng.randint(2, 4)))
        binding = SlotBinding(slots)
        oracle = random_rational_moments(rng)
        for mbs in (1, 2):
            direct = tau_eval(binding, oracle, mbs)
            via_symbolic = tau_symbolic(binding, mbs).evaluate(oracle)
            assert direct == via_symbolic


def test_permutation_invariance_of_tau():
    rng = random.Random(23)
    atoms, probs = random_rational_joint(rng, 3)
    oracle = atoms_moment_oracle(atoms, probs)
    swapped = atoms_moment_oracle([(a[1], a[0], a[2]) for a in atoms], probs)
    for mbs in (1, 2):
        assert tau_eval(SlotBinding((1, 2, 3)), oracle, mbs) == tau_eval(
            SlotBinding((2, 1, 3)), swapped, mbs
        )


def test_expansion_merges_and_drops_zero_terms():
    mono = (((1, 2),),)
    ex = SymbolicExpansion(((mono[0], HALF), (mono[0], -HALF)))
    assert ex.terms == ()
    assert ex.pretty() == "0"
    # an empty block is the moment 1, so it drops out and equal monomials merge
    ex = SymbolicExpansion(((((), (1,)), 1), (((1,),), 2)))
    assert ex.terms == ((((1,),), Fraction(3)),)
    assert ex.pretty() == "3*M1"
    assert SymbolicExpansion(((((),), 1), ((), 2))).pretty() == "3"


def test_cli_expansion_payload_lists_the_terms(capsys):
    # the tau --symbolic payload is written from the canonical terms
    for n in range(1, 5):
        for pattern in multiplicity_patterns(n):
            for bar in (False, True):
                argv = ["tau", "--multiplicities", ",".join(map(str, pattern)), "--symbolic", "--format", "json"]
                assert main(argv + ["--bar"] * bar) == 0
                payload = json.loads(capsys.readouterr().out)
                ex = tau_symbolic(SlotBinding.from_multiplicities(pattern), min_block_size=2 if bar else 1)
                terms = [{"blocks": [list(b) for b in mono], "coeff": str(c)} for mono, c in ex.terms]
                assert payload["expansion"] == {"terms": terms}, (pattern, bar)
                assert payload["pretty"] == ex.pretty()
    assert main(["tau", "--multiplicities", "3", "--bar", "--symbolic", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["expansion"] == {
        "terms": [
            {"blocks": [[1, 1], [1, 1], [1, 1]], "coeff": "1"},
            {"blocks": [[1, 1, 1], [1, 1, 1]], "coeff": "-1/2"},
        ]
    }


def test_kappa_symbolic_term_counts_are_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        assert len(kappa_symbolic(n).terms) == count


def test_kappa_first_orders_match_hand_formulas():
    oracle = random_rational_moments(random.Random(3))
    m1 = oracle((1,))
    m2 = oracle((2,))
    m12 = oracle((1, 2))
    assert kappa_eval(1, oracle) == m1
    assert kappa_eval(2, oracle) == m12 - m1 * m2


def test_kappa_routes_agree_exactly():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(1, 5)
        oracle = random_rational_moments(rng)
        assert kappa_eval(n, oracle) == kappa_recursion_oracle(n, oracle)


def test_kappa_univariate_route_agrees():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 5)
        moments = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)]
        oracle = univariate_moment_oracle(moments)
        assert kappa_eval(n, oracle) == kappa_recursion_oracle(n, oracle, identical=True)


def test_kappa_is_multilinear_in_each_argument():
    rng = random.Random(37)
    atoms, probs = random_rational_joint(rng, 2)
    plain = atoms_moment_oracle(atoms, probs)
    scaled = atoms_moment_oracle([(3 * a[0], a[1]) for a in atoms], probs)
    assert kappa_eval(2, scaled) == 3 * kappa_eval(2, plain)


def test_kappa_gaussian_higher_orders_vanish():
    gauss = gaussian_moment_oracle()
    assert kappa_eval(2, gauss) == 1
    for k in range(3, 7):
        assert kappa_eval(k, gauss) == 0


def test_kappa_size_guard():
    with pytest.raises(SizeLimitError):
        kappa_eval(11, gaussian_moment_oracle())


def test_moment_oracle_sorts_and_handles_empty():
    calls = []

    def fn(block):
        calls.append(block)
        return Fraction(1)

    from mideriv.forms import MomentOracle

    oracle = MomentOracle(fn, exact=True)
    assert oracle(()) == 1
    oracle((3, 1, 2))
    assert calls == [(1, 2, 3)]


def test_atoms_oracle_exact_prior_moments():
    atoms = [(1, 2), (-1, 0)]
    probs = [Fraction(1, 3), Fraction(2, 3)]
    oracle = atoms_moment_oracle(atoms, probs)
    assert oracle((1,)) == Fraction(1, 3) - Fraction(2, 3)
    assert oracle((1, 2, 2)) == Fraction(1, 3) * 1 * 4 + Fraction(2, 3) * (-1) * 0


def test_oracles_refuse_what_they_were_not_given():
    with pytest.raises(DomainError, match="^moment of order 3 requested but only 2 supplied"):
        univariate_moment_oracle([1, 2])((1, 1, 1))
    with pytest.raises(ValidationError, match="^probs: length 1 does not match support length 2"):
        atoms_moment_oracle([(1,), (2,)], [1])


def test_atoms_oracle_keeps_rational_atoms_exact_and_memoized():
    # integer numerators over a common denominator give the Fraction the
    # atom-by-atom sum gives, for rational coordinates too
    rng = random.Random(41)
    for _ in range(20):
        atoms, probs = random_rational_joint(rng, 2)
        atoms = [(Fraction(x, rng.randint(1, 6)), y) for x, y in atoms]
        oracle = atoms_moment_oracle(atoms, probs)
        for block in ((1,), (2,), (1, 1), (1, 2), (1, 1, 2), (2, 2, 2, 2)):
            direct = sum((p * math.prod(a[i - 1] for i in block) for a, p in zip(atoms, probs)), Fraction(0))
            value = oracle(block)
            assert type(value) is Fraction and value == direct
            assert oracle(block) is value
    with pytest.raises(DomainError):
        oracle((1, 3))
