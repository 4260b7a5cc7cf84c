"""Every count a public function takes is read by errors.integer, and
every real number by errors.real."""
from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from mideriv import closedform
from mideriv.channel import ChannelSpec, DiscreteJoint, QuadratureRule, gauss_hermite
from mideriv.closedform import half_log_derivative
from mideriv.errors import DomainError, SizeLimitError, ValidationError, integer, real
from mideriv.fd import central_stencil, check_partial, fd_partial, fornberg_weights
from mideriv.forms import (
    SlotBinding,
    gaussian_moment_oracle,
    kappa_eval,
    kappa_recursion_oracle,
    kappa_symbolic,
    tau_symbolic,
)
from mideriv.partitions import enumerate_diverse
from mideriv.verify import DerivativeRequest

GAUSS = gaussian_moment_oracle()

# (entry point as a function of the count, a valid count above 1, error
# class, an integer count out of range and the start of its message)
ENTRY_POINTS = {
    "enumerate_diverse n": (enumerate_diverse, 3, SizeLimitError, 0, "n=0: "),
    "enumerate_diverse min_block_size": (
        lambda k: enumerate_diverse(3, k), 2, ValidationError, 3, "min_block_size: got 3"),
    "tau_symbolic min_block_size": (
        lambda k: tau_symbolic(SlotBinding((1, 1, 2)), k), 2, ValidationError, 3, "min_block_size: got 3"),
    "kappa_symbolic": (kappa_symbolic, 3, DomainError, 0, "n=0: "),
    "kappa_eval": (lambda k: kappa_eval(k, GAUSS), 2, DomainError, 0, "n=0: "),
    "kappa_recursion_oracle": (lambda k: kappa_recursion_oracle(k, GAUSS), 3, DomainError, 0, "n=0: "),
    "fornberg_weights": (lambda k: fornberg_weights(k, (-1, 0, 1)), 2, DomainError, -1, "d=-1: "),
    "central_stencil": (central_stencil, 2, DomainError, 0, "d=0: "),
    "half_log_derivative": (half_log_derivative, 2, DomainError, 0, "k=0: "),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_counts_follow_the_integer_rule(name):
    fn, good, error, low, message = ENTRY_POINTS[name]
    # the int calls come first, so a cache that matched 2.0 or True to
    # them would let those through
    expected = fn(good)
    fn(1)
    for count in (np.int64(good), np.int32(good)):
        assert fn(count) == expected
    for bad in (True, False, float(good), 1.0):
        with pytest.raises(error, match="expected an integer"):
            fn(bad)
    # an integer is then checked against the range, not clamped
    with pytest.raises(error, match=f"^{message}"):
        fn(low)


RULE = gauss_hermite(16)


def _rule_with(nodes=RULE.nodes, weights=RULE.weights):
    return QuadratureRule(nodes, weights)


def _fd_zero(points):
    return [0.0 for _ in points]


# (entry point as a function of one real, a real it takes, error class
# and the field it names)
REAL_ENTRY_POINTS = {
    "ChannelSpec": (lambda x: ChannelSpec((0.5, x)), 1.0, ValidationError, "snr"),
    "DiscreteJoint support": (lambda x: DiscreteJoint([[x], [0.0]], [0.5, 0.5]), 1.0, ValidationError, "support"),
    "DiscreteJoint probs": (lambda x: DiscreteJoint([[1.0], [0.0]], [0.5, x]), 0.5, ValidationError, "probs"),
    "QuadratureRule nodes": (lambda x: _rule_with(nodes=[*RULE.nodes[:-1], x]), RULE.nodes[-1], ValidationError, "nodes"),
    "QuadratureRule weights": (lambda x: _rule_with(weights=[x, *RULE.weights[1:]]), RULE.weights[0], ValidationError, "weights"),
    "DerivativeRequest": (lambda x: DerivativeRequest((1,), (x,)), 0.5, ValidationError, "snr"),
    "check_partial": (lambda x: check_partial((1,), (x,)), 0.5, DomainError, "point"),
    # fd_partial once returned (0.0, 0.0) for f = 0 at (inf,)
    "fd_partial": (lambda x: fd_partial(_fd_zero, (1,), (x,)), 0.5, DomainError, "point"),
    # and 0.9999999999999989 for x0 at (0.5, inf): an inactive axis is read too
    "fd_partial inactive axis": (
        lambda x: fd_partial(lambda points: [p[0] for p in points], (1, 0), (0.5, x)), 0.5, DomainError, "point"),
    # two_point_mi(True) once returned the mi at snr 1
    "two_point_mi": (closedform.two_point_mi, 0.5, DomainError, "snr"),
    "two_point_mmse": (closedform.two_point_mmse, 0.5, DomainError, "snr"),
    "two_point_posterior_mean": (lambda x: closedform.two_point_posterior_mean(x, 0.5), 0.5, DomainError, "snr"),
}

# What no entry point takes as a real: a bool, a string, NaN, the
# infinities, and numbers whose float conversion overflows (once a bare
# OverflowError)
NOT_REALS = [True, np.False_, "0.5", None, math.nan, math.inf, -math.inf, np.float64("nan"), 10**400, -(10**400), Fraction(10**400)]


@pytest.mark.parametrize("name", sorted(REAL_ENTRY_POINTS))
def test_reals_follow_the_real_rule(name):
    fn, good, error, field = REAL_ENTRY_POINTS[name]
    fn(good)
    fn(Fraction(good))
    for bad in NOT_REALS:
        # an integer is shown by its bit length, not its digits
        got = f"{'a negative' if bad < 0 else 'an'} integer of 1329 bits" if type(bad) is int else re.escape(repr(bad))
        with pytest.raises(error, match=rf"^{field}: expected a (finite )?real number, got {got}"):
            fn(bad)


# 10**5000 has 16610 bits and more digits than the interpreter turns
# into a string: each of these once raised a bare ValueError while
# wording its own message, central_stencil an OverflowError, and
# SlotBinding took it
HUGE = 10**5000
WIDE = "expected an integer in the signed 64-bit range, got"
NOT_A_FLOAT = "expected a finite real number, got"

# (entry point as a function of one integer, error class, its message
# up to the integer's bit length)
HUGE_INTEGER_ENTRY_POINTS = {
    "errors.real": (lambda x: real(x, DomainError, "x"), DomainError, f"x: {NOT_A_FLOAT} an"),
    "enumerate_diverse": (enumerate_diverse, SizeLimitError, f"n: {WIDE} an"),
    "kappa_symbolic": (kappa_symbolic, DomainError, f"n: {WIDE} an"),
    "half_log_derivative": (lambda x: half_log_derivative(-x), DomainError, f"k: {WIDE} a negative"),
    "fd_partial": (lambda x: fd_partial(_fd_zero, (1,), (x,)), DomainError, f"point: {NOT_A_FLOAT} an"),
    "central_stencil": (central_stencil, DomainError, f"d: {WIDE} an"),
    "SlotBinding": (lambda x: SlotBinding((x,)), ValidationError, f"variables: {WIDE} an"),
}


@pytest.mark.parametrize("name", sorted(HUGE_INTEGER_ENTRY_POINTS))
def test_huge_integers_raise_the_callers_error(name):
    fn, error, start = HUGE_INTEGER_ENTRY_POINTS[name]
    # named by the bit length, not the digits
    with pytest.raises(error, match=f"^{start} integer of 16610 bits$"):
        fn(HUGE)


def test_the_integer_rule_is_the_signed_64_bit_range():
    for value in (2**63 - 1, -(2**63), np.uint64(2**63 - 1)):
        assert integer(value, DomainError, "d") == value
    for value, got in ((2**63, "an"), (np.uint64(2**63), "an"), (-(2**63) - 1, "a negative")):
        with pytest.raises(DomainError, match=f"^d: {WIDE} {got} integer of 64 bits$"):
            integer(value, DomainError, "d")
