"""Independent reference results used to cross-check the main pipeline.

Everything here is computed by a different route than the package
proper: adaptive quadrature from scipy for the two-point channel's
closed forms, stepwise symbolic differentiation of (1/2) log(1 + l) for
the Gaussian benchmark, and seeded rational test distributions for the
property suites.  Nothing imports the quadrature or partition machinery
it is meant to check.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from .errors import DomainError
from .forms import MomentOracle

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _log_cosh(t: float) -> float:
    # |t| + log1p(exp(-2|t|)) - log 2; exact for large |t| where cosh overflows
    a = abs(t)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def _normal_expect(f) -> float:
    val, _ = quad(
        lambda z: math.exp(-0.5 * z * z) / _SQRT_2PI * f(z),
        -np.inf,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=300,
    )
    return val


def two_point_mi(snr: float) -> float:
    """Mutual information of the equiprobable two-point input {-1, +1}.

    I(l) = l - E[log cosh(l + sqrt(l) Z)] with Z standard normal,
    derived from the two-atom posterior; increases to log 2.
    """
    if snr < 0:
        raise DomainError(f"snr={snr}: must be >= 0")
    if snr == 0:
        return 0.0
    sq = math.sqrt(snr)
    return snr - _normal_expect(lambda z: _log_cosh(snr + sq * z))


def two_point_mmse(snr: float) -> float:
    """E[(X - E[X|Y])**2] for the equiprobable two-point input.

    Equals 1 - E[tanh(l + sqrt(l) Z)**2]; decreases from 1 toward 0.
    """
    if snr < 0:
        raise DomainError(f"snr={snr}: must be >= 0")
    if snr == 0:
        return 1.0
    sq = math.sqrt(snr)
    return 1.0 - _normal_expect(lambda z: math.tanh(snr + sq * z) ** 2)


def two_point_posterior_mean(snr: float, y: float) -> float:
    """E[X | Y=y] = tanh(sqrt(l) y) for the equiprobable two-point input."""
    return math.tanh(math.sqrt(snr) * y)


def half_log_derivative(k: int, at: Fraction = Fraction(0)) -> Fraction:
    """k-th derivative of (1/2) log(1 + l) at a rational point, exactly.

    Differentiates stepwise through the power-law chain
    c (1+l)**(-p) -> -p c (1+l)**(-p-1), independent of any partition
    machinery.  At 0 this is (-1)**(k-1) (k-1)! / 2.
    """
    if k < 1:
        raise DomainError(f"k={k}: derivative order must be >= 1")
    c, p = Fraction(1, 2), 1
    for _ in range(k - 1):
        c, p = c * (-p), p + 1
    return c / (1 + Fraction(at)) ** p


def random_rational_joint(
    rng: random.Random, dim: int, atom_count: int | None = None
) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """Seeded joint law with small-integer support and rational masses.

    Atoms are distinct points of {-2, ..., 2}**dim (2..5 of them, or
    exactly atom_count); masses are positive rationals whose common
    denominator is at most 60.  Deterministic for a given rng state.
    """
    if atom_count is None:
        atom_count = rng.randint(2, 5)
    universe = sorted(itertools.product(range(-2, 3), repeat=dim))
    atoms = rng.sample(universe, atom_count)
    weights = [rng.randint(1, 12) for _ in atoms]
    denom = sum(weights)
    return atoms, [Fraction(w, denom) for w in weights]


def random_rational_moments(rng: random.Random) -> MomentOracle:
    """Exact random moment oracle for cumulant cross-checks.

    Each distinct block gets an independent rational in [-20, 20] with
    denominator at most 8, memoized so repeated queries agree.
    """
    memo: dict[tuple[int, ...], Fraction] = {}

    def fn(block: tuple[int, ...]) -> Fraction:
        if block not in memo:
            memo[block] = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
        return memo[block]

    return MomentOracle(fn, exact=True)
