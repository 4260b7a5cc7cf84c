"""Exact-weight finite-difference stencils and Richardson control."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mideriv import gauss_hermite, verify
from mideriv.errors import DomainError
from mideriv.fd import check_partial, central_stencil, fd_partial, fornberg_weights, stencil_halfwidth


def pointwise(g):
    """g lifted to fd_partial's f, which takes the list of sample points."""
    return lambda points: [g(x) for x in points]


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=1, max_size=9, unique=True))
def test_weights_are_the_unique_exact_ones_on_any_rational_offsets(offsets):
    # n weights taking each monomial x**p, p < n, to its d-th derivative
    # at 0 (d! when p == d, else 0) are unique: this pins the weights on
    # arbitrary grids, whatever way they are computed
    n = len(offsets)
    for d in range(n):
        weights = fornberg_weights(d, offsets)
        assert all(type(w) is Fraction for w in weights)
        for p in range(n):
            assert sum(w * o**p for w, o in zip(weights, offsets)) == (math.factorial(d) if p == d else 0)


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

    value, estimate = fd_partial(pointwise(f), (2,), (0.5,))
    assert abs(value - (-2.0 / 9.0)) < 1e-9
    assert estimate < 1e-9


def test_fd_step_shrinks_near_zero():
    # the step follows the point, so the stencil stays inside x > 0
    def f(x):
        return 0.5 * math.log1p(x[0])

    value, _ = fd_partial(pointwise(f), (2,), (0.01,))
    assert abs(value - (-0.5 / 1.01**2)) < 1e-12


def test_fd_mixed_partial_of_polynomial():
    def f(x):
        return x[0] ** 2 * x[1]

    # truncation vanishes on a cubic; what remains is roundoff from the
    # 1/h^3 scaling
    value, estimate = fd_partial(pointwise(f), (2, 1), (0.7, 1.3))
    assert abs(value - 2.0) < 1e-9
    assert estimate < 1e-9


def test_fd_third_derivative():
    def f(x):
        return math.sin(x[0])

    value, _ = fd_partial(pointwise(f), (3,), (0.9,))
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
    for bad in (1.5, "1", True):  # 1.5 used to give the first derivative
        with pytest.raises(DomainError, match="orders"):
            fd_partial(f, (bad,), (0.5,))
    for bad in ("0.5", True):  # "0.5" used to be parsed, True read as 1.0
        with pytest.raises(DomainError, match="^point: expected a real number"):
            fd_partial(f, (1,), (bad,))


def test_fornberg_weights_need_distinct_and_enough_offsets():
    for offsets, message in [
        ((-1, 0, 0, 1), "^offsets: repeated abscissa"),
        ((0, Fraction(0)), "^offsets: repeated abscissa"),
        ((-1, 1), "^offsets: need at least 3 points for derivative order 2"),
    ]:
        with pytest.raises(DomainError, match=message):
            fornberg_weights(2, offsets)


def test_check_partial_states_the_rule_once():
    assert check_partial((np.int64(2), 0), (np.float64(0.5), 3)) == ((2, 0), (0.5, 3.0))
    assert all(type(x) is float for x in check_partial((1, 0), (1, Fraction(1, 2)))[1])
    for orders, point, match in [
        ((1, 1), (0.5,), r"^orders \(1, 1\) and point \(0\.5,\) differ in length$"),
        ((2, -1), (0.5, 0.5), r"^orders \(2, -1\): negative derivative order$"),
        ((0, 0), (0.5, 0.5), "^orders: at least one axis needs a positive order$"),
        ((0.5, 0.5), (0.5, 0.5), "^orders: expected an integer"),
        ((1,), (None,), "^point: expected a real number"),
    ]:
        with pytest.raises(DomainError, match=match):
            check_partial(orders, point)
    # the range of the point is not check_partial's: fd_partial and the
    # lab's fd side each add their own
    assert check_partial((1,), (-3.0,)) == ((1,), (-3.0,))


def test_fd_mi_partial_evaluates_each_point_once(monkeypatch):
    # fd_partial hands f each distinct point once, and fd_mi_partial
    # sends the points its memo lacks to mutual_information_many in one
    # batch; the memo is the one store that answers a later request
    asked, batches = [], []
    fd, many = verify.fd_partial, verify.mutual_information_many

    def recording_fd(f, orders, point):
        return fd(lambda points: asked.append(points) or f(points), orders, point)

    def recording_many(dist, snrs, quad):
        batches.append(list(snrs))
        return many(dist, snrs, quad)

    monkeypatch.setattr(verify, "fd_partial", recording_fd)
    monkeypatch.setattr(verify, "mutual_information_many", recording_many)
    law, quad, memo = verify.two_point_input(), gauss_hermite(16), {}
    verify.fd_mi_partial(law, verify.DerivativeRequest((1,), (0.8,)), quad, memo)
    assert len(asked) == 1 and len(set(asked[0])) == len(asked[0])
    assert batches == asked
    # three levels share points: fewer distinct points than samples
    assert len(asked[0]) < 3 * sum(1 for w in central_stencil(1)[1] if w)
    first = set(asked[0])
    asked.clear()
    batches.clear()
    verify.fd_mi_partial(law, verify.DerivativeRequest((2,), (0.8,)), quad, memo)
    assert len(asked) == 1 and len(batches) == 1
    assert sorted(batches[0]) == sorted(set(asked[0]) - first)
    assert 0 < len(batches[0]) < len(asked[0])


def test_fd_zero_weight_offsets_are_skipped():
    seen = set()

    def f(x):
        seen.add(x[0])
        return x[0] ** 2

    fd_partial(pointwise(f), (1,), (1.0,))
    # odd-derivative central stencils carry weight 0 at the center
    assert 1.0 not in seen
