"""Exact-weight finite-difference stencils and Richardson control."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from mideriv.errors import DomainError
from mideriv.fd import central_stencil, fd_partial, fornberg_weights, stencil_halfwidth


def test_second_derivative_three_point_weights():
    weights = fornberg_weights(2, (-1, 0, 1))
    assert weights == [Fraction(1), Fraction(-2), Fraction(1)]


def test_first_derivative_central_weights():
    weights = fornberg_weights(1, (-1, 0, 1))
    assert weights == [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]


def test_weights_reproduce_polynomial_derivatives_exactly():
    # exactness on monomials up to the stencil's degree, all rational
    offsets = tuple(range(-4, 5))
    for d in (1, 2, 3):
        weights = fornberg_weights(d, offsets)
        for p in range(len(offsets)):
            acc = sum(w * Fraction(o) ** p for w, o in zip(weights, offsets))
            expected = Fraction(math.factorial(p), math.factorial(p - d)) if p >= d else 0
            # derivative of x^p at 0 is p!/(p-d)! * 0^(p-d): zero unless p == d
            assert acc == (math.factorial(d) if p == d else 0)


def test_central_stencil_halfwidth_rule():
    for d in (1, 2, 3, 4):
        offsets, weights = central_stencil(d)
        half = (d + 1) // 2 + 3
        assert stencil_halfwidth(d) == half
        assert offsets == tuple(range(-half, half + 1))
        assert len(weights) == len(offsets)


def test_fd_matches_log_derivative():
    def f(x):
        return 0.5 * math.log1p(x[0])

    value, estimate = fd_partial(f, (2,), (0.5,))
    assert abs(value - (-2.0 / 9.0)) < 1e-9
    assert estimate < 1e-9


def test_fd_step_shrinks_near_zero():
    # the step follows the point, so the stencil stays inside x > 0
    def f(x):
        return 0.5 * math.log1p(x[0])

    value, _ = fd_partial(f, (2,), (0.01,))
    assert abs(value - (-0.5 / 1.01**2)) < 1e-12


def test_fd_mixed_partial_of_polynomial():
    def f(x):
        return x[0] ** 2 * x[1]

    # truncation vanishes on a cubic; what remains is roundoff from the
    # 1/h^3 scaling
    value, estimate = fd_partial(f, (2, 1), (0.7, 1.3))
    assert abs(value - 2.0) < 1e-9
    assert estimate < 1e-9


def test_fd_third_derivative():
    def f(x):
        return math.sin(x[0])

    value, _ = fd_partial(f, (3,), (0.9,))
    assert abs(value + math.cos(0.9)) < 1e-8


def test_fd_validation_and_domain_guard():
    def f(x):
        return x[0]

    with pytest.raises(DomainError):
        fd_partial(f, (1, 1), (0.5,))
    with pytest.raises(DomainError):
        fd_partial(f, (0,), (0.5,))
    with pytest.raises(DomainError, match="positive"):
        fd_partial(f, (1,), (0.0,))


def test_fd_reuses_cached_evaluations_across_levels():
    calls = []

    def f(x):
        calls.append(x)
        return x[0] ** 3

    fd_partial(f, (1,), (1.0,))
    # three levels with steps h, h/2, h/4 over a 9-point stencil reuse
    # the center and every second point of the finer levels
    assert len(set(calls)) == len(calls)
    assert len(calls) < 3 * 9


def test_fd_zero_weight_offsets_are_skipped():
    seen = set()

    def f(x):
        seen.add(x[0])
        return x[0] ** 2

    fd_partial(f, (1,), (1.0,))
    # odd-derivative central stencils carry weight 0 at the center
    assert 1.0 not in seen
