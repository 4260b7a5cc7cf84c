"""Partition moment forms and joint cumulants.

Two alternating sums are evaluated here, symbolically with exact
rational coefficients and numerically against caller-supplied moment
oracles:

* the diverse-partition form over {1, 1, ..., n, n} with coefficient
  (-1)**(k-1) * (k-2)! / 2**s per partition (k blocks, s identical
  pairs), optionally restricted to blocks of size >= 2 (the variant
  applied to conditionally centered variables), and
* the joint cumulant over set partitions of {1, ..., n} with
  coefficient (-1)**(k-1) * (k-1)!.

The diverse-partition form is never enumerated raw.  A dynamic
programme walks the slots, keeping the multiset of block contents
already mapped through the slot binding, with a flag for identical
pairs and an integer multiplicity per state, so repeated arguments
collapse as they arrive: seven identical slots take milliseconds where
the 624,889 raw partitions take half a minute.  The enumerators of
:mod:`mideriv.partitions` remain its test oracles.

This module never integrates anything; oracles own the measure.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import DomainError, SizeLimitError, ValidationError
from .partitions import ENUMERATION_LIMIT, canonical_blocks, set_partitions

Block = tuple[int, ...]
Monomial = tuple[Block, ...]

# Set partitions of [n] are enumerated exhaustively; Bell(10) = 115975.
CUMULANT_LIMIT = 10


@dataclass(frozen=True)
class SlotBinding:
    """Assignment of argument slots 1..n to variable ids.

    Repeated arguments are expressed by binding several slots to the
    same variable: the three-slot binding (1, 1, 2) realizes the call
    pattern f(X1, X1, X2).
    """

    variables: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = tuple(int(v) for v in self.variables)
        if not vs:
            raise ValidationError("variables: a binding needs at least one slot")
        if any(v < 1 for v in vs):
            raise ValidationError("variables: variable ids are 1-based")
        object.__setattr__(self, "variables", vs)

    @property
    def n(self) -> int:
        """Slot count (the total derivative order it encodes)."""
        return len(self.variables)

    @classmethod
    def from_multiplicities(cls, multiplicities: Sequence[int]) -> "SlotBinding":
        """Binding with variable i occupying multiplicities[i-1] slots.

        Zeros are skipped, so (2, 0, 1) binds slots (1, 1, 3).
        """
        vs: list[int] = []
        for var, count in enumerate(multiplicities, start=1):
            if int(count) < 0:
                raise ValidationError(f"multiplicities: negative count for variable {var}")
            vs.extend([var] * int(count))
        return cls(tuple(vs))


@dataclass(frozen=True)
class MomentOracle:
    """Expectation oracle for products of variables over a block.

    ``fn`` receives a sorted tuple of variable ids (repeats allowed) and
    returns the expectation of the corresponding product.  The empty
    block never reaches ``fn``; it is 1 by definition.  ``exact`` marks
    oracles returning Fractions, which keeps downstream evaluation in
    exact arithmetic.
    """

    fn: Callable[[Block], object]
    exact: bool = False

    def __call__(self, block: Iterable[int]):
        key = tuple(sorted(block))
        if not key:
            return Fraction(1) if self.exact else 1.0
        return self.fn(key)


def gaussian_moment_oracle() -> MomentOracle:
    """Standard Gaussian, any ids: odd moments 0, even moments (k-1)!!."""

    def fn(block: Block) -> Fraction:
        k = len(block)
        if k % 2:
            return Fraction(0)
        return Fraction(math.prod(range(1, k, 2)))

    return MomentOracle(fn, exact=True)


def univariate_moment_oracle(moments: Sequence) -> MomentOracle:
    """Single variable with raw moments m1, m2, ... (ids are ignored).

    All variable ids are treated as the same variable; a block of size k
    returns moments[k-1] as a Fraction.
    """
    ms = tuple(Fraction(m) for m in moments)

    def fn(block: Block):
        k = len(block)
        if k > len(ms):
            raise DomainError(f"moment of order {k} requested but only {len(ms)} supplied")
        return ms[k - 1]

    return MomentOracle(fn, exact=True)


def atoms_moment_oracle(support: Sequence[Sequence], probs: Sequence) -> MomentOracle:
    """Finitely supported joint law; block ids index coordinates (1-based).

    The support entries and probabilities should be ints or Fractions;
    moments come back as Fractions.  Values are memoized per block.
    """
    atoms = [tuple(a) for a in support]
    ps = list(probs)
    if len(atoms) != len(ps):
        raise ValidationError(f"probs: length {len(ps)} does not match support length {len(atoms)}")
    dim = len(atoms[0]) if atoms else 0
    memo: dict[Block, object] = {}

    def fn(block: Block):
        if block not in memo:
            if block[-1] > dim:
                raise DomainError(f"block id {block[-1]} exceeds the {dim} coordinates")
            total = Fraction(0)
            for atom, p in zip(atoms, ps):
                v = p
                for i in block:
                    v = v * atom[i - 1]
                total = total + v
            memo[block] = total
        return memo[block]

    return MomentOracle(fn, exact=True)


def _term_key(mono: Monomial):
    # More blocks first, then lexicographic on the canonical block list:
    # reproduces the familiar layout of the identical-argument collapses.
    return (-len(mono), mono)


def _block_str(block: Block) -> str:
    pieces = []
    for var, grp in itertools.groupby(block):
        e = len(list(grp))
        pieces.append(f"x{var}" + (f"^{e}" if e > 1 else ""))
    return "E[" + "*".join(pieces) + "]"


@dataclass(frozen=True)
class SymbolicExpansion:
    """Exact-rational linear combination of moment monomials.

    A monomial is a multiset of blocks, each block a multiset of
    variable ids.  Terms are canonical: no zero coefficients, blocks
    sorted, monomials sorted, fixed term order.
    """

    terms: tuple[tuple[Monomial, Fraction], ...]

    def __post_init__(self) -> None:
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms:
            key = canonical_blocks(mono)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(coeff)
        cleaned = tuple(
            (m, acc[m]) for m in sorted(acc, key=_term_key) if acc[m] != 0
        )
        object.__setattr__(self, "terms", cleaned)

    def evaluate(self, oracle: MomentOracle):
        """Sum of coefficient * product of block moments.

        Exact oracles keep Fractions end to end; otherwise coefficients
        are converted to float once per term, and the moments may be
        arrays (one value per quadrature point), summed elementwise.
        """
        total = Fraction(0) if oracle.exact else 0.0
        for mono, coeff in self.terms:
            v = coeff if oracle.exact else float(coeff)
            for block in mono:
                v = v * oracle(block)
            total = total + v
        return total

    def pretty(self) -> str:
        """Readable form, e.g. ``M2^3 - 1/2*M3^2``.

        When every block repeats a single common variable, a block of
        size k prints as ``Mk`` (a conditional-moment shorthand);
        otherwise blocks print as E[...] products.
        """
        if not self.terms:
            return "0"
        used = {v for mono, _ in self.terms for b in mono for v in b}
        single = len(used) == 1 and all(
            len(set(b)) == 1 for mono, _ in self.terms for b in mono
        )
        out = []
        for mono, coeff in self.terms:
            factors = []
            for block, grp in itertools.groupby(mono):
                e = len(list(grp))
                base = f"M{len(block)}" if single else _block_str(block)
                factors.append(base + (f"^{e}" if e > 1 else ""))
            mag = abs(coeff)
            body = "*".join(factors)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not out:
                out.append(body if coeff > 0 else f"-{body}")
            else:
                out.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(out)

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"blocks": [list(b) for b in mono], "coeff": str(coeff)}
                for mono, coeff in self.terms
            ]
        }


# A unit of the programme's state is one raw block value with its
# content mapped through the binding: (content, doubled), doubled when
# the raw value occurs twice (an identical pair).
Unit = tuple[Block, bool]


def _slot_moves(state: tuple[Unit, ...], var: int):
    """(state, ways) after both copies of the next slot, bound to var, land.

    The moves of the raw construction: join two distinct block values,
    join both copies of a doubled value, join one value and open a fresh
    singleton, or open two fresh singletons (a new doubled pair).
    Joining one copy of a doubled value splits it into two plain blocks.
    Units equal after the binding stand for distinct raw values, so a
    move on them is counted C(c, 2), c1 * c2 or c times.  States are
    sorted tuples; contents stay sorted because slots arrive in
    increasing variable order.
    """
    starts: list[int] = []  # first position of each run of equal units
    for i, u in enumerate(state):
        if not i or u != state[i - 1]:
            starts.append(i)
    ends = starts[1:] + [len(state)]
    # what one copy of var makes of each run's unit
    one = []
    for i in starts:
        c, d = state[i]
        one.append(((c + (var,), False), (c, False)) if d else ((c + (var,), False),))

    fresh = ((var,), False)
    for a, pa in enumerate(starts):
        ca = ends[a] - pa
        rest = state[:pa] + state[pa + 1 :]
        if ca > 1:
            yield tuple(sorted(state[:pa] + state[pa + 2 :] + one[a] + one[a])), ca * (ca - 1) // 2
        for b in range(a + 1, len(starts)):
            pb = starts[b] - 1  # its position in rest
            added = one[a] + one[b]
            yield tuple(sorted(rest[:pb] + rest[pb + 1 :] + added)), ca * (ends[b] - starts[b])
        c, d = state[pa]
        if d:
            yield tuple(sorted(rest + ((c + (var,), True),))), ca
        yield tuple(sorted(rest + one[a] + (fresh,))), ca
    yield tuple(sorted(state + (((var,), True),))), 1


@lru_cache(maxsize=None)
def _tau_symbolic(variables: tuple[int, ...], min_block_size: int) -> SymbolicExpansion:
    """Collapsed expansion by a dynamic programme over the slots.

    The raw sum runs over the diverse partitions of {1, 1, ..., n, n},
    built index by index as in partitions.enumerate_diverse.  Here the
    state after each slot is the sorted multiset of units (the raw block
    values with their contents mapped through the binding), weighted by
    how many raw partial partitions map onto it.  k and s stay exact:
    two raw blocks are identical only when both began as the fresh
    singletons of one index and every later index joined both, which is
    what the doubled flag follows.  The raw sum is symmetric in the
    indices, so the slots are taken in increasing variable order.

    With min_block_size=2 a state is dropped once its singleton blocks
    outnumber twice the slots still to come: each slot grows at most
    two blocks.  Coefficients are kept as integers over 2**n.
    """
    n = len(variables)
    states: dict[tuple[Unit, ...], int] = {(): 1}
    for i, var in enumerate(sorted(variables)):
        room = 2 * (n - 1 - i)
        nxt: dict[tuple[Unit, ...], int] = {}
        for state, mult in states.items():
            for key, ways in _slot_moves(state, var):
                if min_block_size == 2 and sum(1 + d for c, d in key if len(c) == 1) > room:
                    continue
                nxt[key] = nxt.get(key, 0) + mult * ways
        states = nxt

    weights: dict[tuple[int, int], int] = {}
    acc: dict[Monomial, int] = {}
    for state, mult in states.items():
        if any(len(c) < min_block_size for c, _ in state):
            continue
        mono = tuple(c for c, d in state for _ in range(1 + d))
        k, s = len(mono), sum(d for _, d in state)
        if (k, s) not in weights:
            # (-1)**(k-1) * (k-2)! / 2**s, scaled by 2**n
            weights[k, s] = (-1) ** (k - 1) * math.factorial(k - 2) * 2 ** (n - s)
        acc[mono] = acc.get(mono, 0) + mult * weights[k, s]
    return SymbolicExpansion(tuple((m, Fraction(c, 2**n)) for m, c in acc.items()))


def tau_symbolic(binding: SlotBinding, min_block_size: int = 1) -> SymbolicExpansion:
    """Diverse-partition expansion with slots merged through the binding.

    Identical-argument slots collapse into powers of common blocks with
    summed rational coefficients.  min_block_size=2 keeps only
    partitions whose blocks all have size >= 2 (the centered variant);
    for a single slot that index set is empty and the expansion is 0.
    Bindings of more than ENUMERATION_LIMIT slots raise SizeLimitError.
    """
    if min_block_size not in (1, 2):
        raise ValidationError(f"min_block_size: got {min_block_size!r}, expected 1 or 2")
    if binding.n > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"binding has {binding.n} slots: symbolic expansions support 1..{ENUMERATION_LIMIT}"
        )
    return _tau_symbolic(binding.variables, min_block_size)


def tau_eval(binding: SlotBinding, oracle: MomentOracle, min_block_size: int = 1):
    """Numeric (or exact) value of the diverse-partition form.

    Evaluates the cached symbolic expansion against the oracle; exact
    oracles give exact rational values.  For one slot at full index set
    this is -E[X]**2 / 2.
    """
    return tau_symbolic(binding, min_block_size).evaluate(oracle)


@lru_cache(maxsize=None)
def kappa_symbolic(n: int) -> SymbolicExpansion:
    """Joint-cumulant expansion over set partitions of {1..n}."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n={n!r}: expected a positive integer")
    if n > CUMULANT_LIMIT:
        raise SizeLimitError(f"n={n}: set-partition enumeration capped at {CUMULANT_LIMIT}")
    return SymbolicExpansion(
        tuple(
            (part, (-1) ** (len(part) - 1) * math.factorial(len(part) - 1))
            for part in set_partitions(list(range(1, n + 1)))
        )
    )


def kappa_eval(n: int, oracle: MomentOracle):
    """Joint cumulant of variables 1..n via the set-partition sum."""
    return kappa_symbolic(n).evaluate(oracle)


def kappa_recursion_oracle(n: int, oracle: MomentOracle, identical: bool = False):
    """Joint cumulant by moment-cumulant recursion, not the partition sum.

    An independent route to :func:`kappa_eval` meant for cross-checks.
    With identical=False, the subset recursion
    ``kappa(S) = m(S) - sum over proper T < S with min(S) in T of
    kappa(T) * m(S - T)``.  With identical=True, the univariate binomial
    recursion ``m_j = sum C(j-1, i-1) kappa_i m_{j-i}`` solved for
    kappa_j, taking m_j as the moment of the first j ids (the oracle
    must treat all ids as one variable).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n={n!r}: expected a positive integer")
    if identical:
        ms = [oracle(tuple(range(1, j + 1))) for j in range(1, n + 1)]
        ks: list = []
        for j in range(1, n + 1):
            v = ms[j - 1]
            for i in range(1, j):
                v = v - math.comb(j - 1, i - 1) * ks[i - 1] * ms[j - i - 1]
            ks.append(v)
        return ks[-1]

    memo: dict[Block, object] = {}

    def kappa(subset: Block):
        if subset in memo:
            return memo[subset]
        value = oracle(subset)
        first, rest = subset[0], subset[1:]
        for r in range(len(rest)):
            for combo in itertools.combinations(rest, r):
                inner = tuple(sorted((first,) + combo))
                chosen = set(inner)
                outer = tuple(x for x in subset if x not in chosen)
                value = value - kappa(inner) * oracle(outer)
        memo[subset] = value
        return value

    return kappa(tuple(range(1, n + 1)))
