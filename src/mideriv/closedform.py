"""Independent reference results used to cross-check the main pipeline.

Everything here is computed by a different route than the package
proper: one fixed trapezoidal grid in numpy for the two-point channel's
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

from .errors import DomainError, integer, real
from .forms import MomentOracle

# One fixed trapezoidal rule for E[f(Z)], Z standard normal: step 1/32 on
# |z| <= 12, where the normal weight is below 1e-31.  The trapezoidal rule
# converges geometrically for integrands analytic in a strip around the real
# line (Trefethen & Weideman, SIAM Review 56, 2014).  The singularities of
# tanh(l + sqrt(l) z) and log cosh(l + sqrt(l) z) sit at Re z = -sqrt(l) with
# |Im z| >= pi / (2 sqrt(l)): they are either far from the real line or where
# the normal weight is below exp(-l/2), so the rule is exact to float64.
# Uniform nodes with equal weights keep the oracle independent of the
# Gauss-Hermite rules in `channel`.
_Z = np.arange(-384, 385) / 32.0
_W = np.exp(-0.5 * _Z * _Z) / (32.0 * math.sqrt(2.0 * math.pi))


def _log_cosh(t: np.ndarray) -> np.ndarray:
    # |t| + log1p(exp(-2|t|)) - log 2; exact for large |t| where cosh overflows
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _sech2(t: np.ndarray) -> np.ndarray:
    # 4 e / (1 + e)**2 with e = exp(-2|t|), which never overflows
    e = np.exp(-2.0 * np.abs(t))
    return 4.0 * e / (1.0 + e) ** 2


def _check_snr(snr) -> float:
    snr = real(snr, DomainError, "snr")
    if snr < 0:
        raise DomainError(f"snr={snr}: must be >= 0")
    return snr


def two_point_mi(snr: float) -> float:
    """Mutual information of the equiprobable two-point input {-1, +1}.

    I(l) = l - E[log cosh(l + sqrt(l) Z)] with Z standard normal,
    derived from the two-atom posterior; increases to log 2.
    """
    snr = _check_snr(snr)
    return float(snr - _W @ _log_cosh(snr + math.sqrt(snr) * _Z))


def two_point_mmse(snr: float) -> float:
    """E[(X - E[X|Y])**2] for the equiprobable two-point input.

    Equals E[sech(l + sqrt(l) Z)**2] = 1 - E[tanh(l + sqrt(l) Z)**2],
    taken in the first form to avoid the cancellation; decreases from 1
    toward 0.
    """
    snr = _check_snr(snr)
    return float(_W @ _sech2(snr + math.sqrt(snr) * _Z))


def two_point_posterior_mean(snr: float, y: float) -> float:
    """E[X | Y=y] = tanh(sqrt(l) y) for the equiprobable two-point input."""
    snr = _check_snr(snr)
    return math.tanh(math.sqrt(snr) * y)


def half_log_derivative(k: int, at: Fraction = Fraction(0)) -> Fraction:
    """k-th derivative of (1/2) log(1 + l) at a rational point, exactly.

    Differentiates stepwise through the power-law chain
    c (1+l)**(-p) -> -p c (1+l)**(-p-1), independent of any partition
    machinery.  At 0 this is (-1)**(k-1) (k-1)! / 2.  k is read by
    errors.integer.
    """
    k = integer(k, DomainError, "k")
    if k < 1:
        raise DomainError(f"k={k}: derivative order must be >= 1")
    c, p = Fraction(1, 2), 1
    for _ in range(k - 1):
        c, p = c * (-p), p + 1
    return c / (1 + Fraction(at)) ** p


# Bounds of random_rational_joint's laws: the lowest and highest
# coordinate, and the fewest and most atoms.
COORDINATE_RANGE = (-2, 2)
ATOM_COUNT_RANGE = (2, 5)


def random_rational_joint(
    rng: random.Random, dim: int, atom_count: int | None = None
) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """Seeded joint law with small-integer support and rational masses.

    Atoms are distinct points of {-2, ..., 2}**dim (2..5 of them, or
    exactly atom_count); masses are positive rationals whose common
    denominator is at most 60.  Deterministic for a given rng state.
    """
    if atom_count is None:
        atom_count = rng.randint(*ATOM_COUNT_RANGE)
    low, high = COORDINATE_RANGE
    universe = sorted(itertools.product(range(low, high + 1), repeat=dim))
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
