"""High-order central finite differences with Richardson extrapolation.

Stencil weights are computed exactly (Fractions) by the classic Fornberg
recurrence; mixed partials tensor the per-axis stencils.  The base stencils are
order-8 accurate per axis, and Richardson extrapolation across step halvings
removes the leading error terms, so the error estimate (the magnitude of the
last tableau correction) is usually conservative for analytic integrands.
check_partial states what a partial is, for fd_partial and DerivativeRequest.

The step is worked out from the point, min(BASE_STEP, STEP_FRACTION *
lowest active coordinate / widest stencil half-width).  The estimate covers
truncation, not roundoff: order 4 of (1/2) log(1+x) at 0.05 is off by
2.4e-6 with an estimate of 2.3e-9.

f is called once, with the distinct nonzero-weight stencil points of
every level: the levels share points (the center and every second
point of a finer level), and each is asked for once, so a costly f can
evaluate the whole list in one vectorised pass.  The levels then sum
their samples in stencil order, as a point-by-point loop would.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .errors import DomainError, integer, real

# Per-axis truncation order of the base stencils; Richardson columns
# then cancel h**8, h**10, ... terms (central stencils gain powers of 2).
ACCURACY_ORDER = 8
# Largest base step, the share of the lowest active coordinate the widest
# stencil may span, and the number of step halvings in the tableau.
BASE_STEP = 0.2
STEP_FRACTION = 0.9
RICHARDSON_LEVELS = 3


def fornberg_weights(d: int, offsets: Sequence) -> list[Fraction]:
    """Exact weights approximating the d-th derivative at 0.

    offsets are the sample abscissas (distinct, in units of the step);
    any rationals work.  Exact rationals in, exact rationals out.  d is
    read by errors.integer.
    """
    d = integer(d, DomainError, "d")
    if d < 0:
        raise DomainError(f"d={d}: derivative order must be >= 0")
    offs = [Fraction(o) for o in offsets]
    if len(set(offs)) != len(offs):
        raise DomainError("offsets: repeated abscissa")
    if len(offs) < d + 1:
        raise DomainError(f"offsets: need at least {d + 1} points for derivative order {d}")
    n = len(offs)
    c = [[Fraction(0)] * (d + 1) for _ in range(n)]
    c1 = Fraction(1)
    c4 = offs[0]
    c[0][0] = Fraction(1)
    for i in range(1, n):
        mn = min(i, d)
        c2 = Fraction(1)
        c5 = c4
        c4 = offs[i]
        for j in range(i):
            c3 = offs[i] - offs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return [c[i][d] for i in range(n)]


def stencil_halfwidth(d: int) -> int:
    """How far (in steps) the order-d stencil reaches from its center."""
    return (d + 1) // 2 + 3


# typed: 2.0 and True must miss the entry of 2 and reach the check
@lru_cache(maxsize=None, typed=True)
def central_stencil(d: int) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """Symmetric stencil for the d-th derivative, truncation order >= 8.

    Half-width m = stencil_halfwidth(d) gives 2m+1 points; parity makes
    central stencils gain one extra order, so accuracy is 2m+1-d or
    better, which is >= 8 for every d >= 1.  d is read by errors.integer.
    """
    d = integer(d, DomainError, "d")
    if d < 1:
        raise DomainError(f"d={d}: derivative order must be >= 1")
    m = stencil_halfwidth(d)
    offsets = tuple(range(-m, m + 1))
    return offsets, tuple(fornberg_weights(d, offsets))


def check_partial(orders: Sequence[int], point: Sequence[float]) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Integer orders >= 0 adding up to >= 1, one per real coordinate, as tuples; else DomainError."""
    orders = tuple(integer(k, DomainError, "orders") for k in orders)
    point = tuple(real(x, DomainError, "point") for x in point)
    if len(orders) != len(point):
        raise DomainError(f"orders {orders} and point {point} differ in length")
    if any(k < 0 for k in orders):
        raise DomainError(f"orders {orders}: negative derivative order")
    if sum(orders) < 1:
        raise DomainError("orders: at least one axis needs a positive order")
    return orders, point


def fd_partial(
    f: Callable[[list[tuple[float, ...]]], Sequence[float]],
    orders: Sequence[int],
    point: Sequence[float],
) -> tuple[float, float]:
    """Mixed partial derivative of f by tensored central differences.

    Parameters
    ----------
    f : callable taking the list of distinct sample points (tuples of
        floats) of every level, in stencil order of first use, and
        returning their values in the same order; called once.
    orders : per-axis derivative orders; zeros skip the axis.
    point : evaluation point, same length as orders.

    The base step is min(BASE_STEP, STEP_FRACTION * lowest active
    coordinate / widest stencil half-width), and RICHARDSON_LEVELS halvings of it
    enter the tableau, so every sample keeps its active coordinates
    above 0.

    Returns
    -------
    (value, error_estimate); the estimate is the magnitude of the last
    Richardson correction; roundoff, which grows like eps / h**order,
    is not in it.

    Raises DomainError as check_partial does, or when an active coordinate is not positive.
    """
    orders, point = check_partial(orders, point)
    total = sum(orders)
    axes = [i for i, k in enumerate(orders) if k > 0]
    low = min(point[i] for i in axes)
    if not low > 0.0:
        raise DomainError(f"point {point}: active coordinates must be positive")
    reach = max(stencil_halfwidth(orders[i]) for i in axes)
    step = min(BASE_STEP, STEP_FRACTION * low / reach)
    # the tensored stencil, built once: per-axis offsets and the float of
    # each nonzero exact weight product, shared by every level
    stencil = []
    for combo in itertools.product(*(zip(*central_stencil(orders[i])) for i in axes)):
        weight = math.prod(w for _, w in combo)
        if weight:
            stencil.append((tuple(offset for offset, _ in combo), float(weight)))
    # every level's samples, then their distinct points in one call of f
    levels = []
    for level in range(RICHARDSON_LEVELS):
        h = step * 0.5**level
        samples = []
        for offsets, weight in stencil:
            x = list(point)
            for i, offset in zip(axes, offsets):
                x[i] = x[i] + offset * h
            samples.append((tuple(x), weight))
        levels.append((h, samples))
    points = list(dict.fromkeys(x for _, samples in levels for x, _ in samples))
    sampled = dict(zip(points, f(points)))
    values = []
    for h, samples in levels:
        acc = 0.0
        for x, weight in samples:
            acc += weight * sampled[x]
        values.append(acc / h**total)

    tableau = [values]
    p = ACCURACY_ORDER
    while len(tableau[-1]) > 1:
        prev = tableau[-1]
        factor = 2**p
        tableau.append(
            [(factor * prev[i + 1] - prev[i]) / (factor - 1) for i in range(len(prev) - 1)]
        )
        p += 2
    return tableau[-1][0], abs(tableau[-1][0] - tableau[-2][-1])
