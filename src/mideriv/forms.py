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

The diverse-partition form is never enumerated raw.  The slot
programme of :mod:`mideriv.partitions` walks the slots, keeping the
multiset of block contents already mapped through the slot binding,
with a flag for identical pairs and an integer multiplicity per state,
so repeated arguments collapse as they arrive: seven identical slots
take milliseconds where the 624,889 raw partitions take about 6 s.  This
module adds only the weighting: k, s and the coefficients over 2**n.
The enumerators in ``tests/partition_oracles.py`` are its oracles.

This module never integrates anything; oracles own the measure.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .errors import DomainError, Frozen, SizeLimitError, ValidationError, integer
from .partitions import ENUMERATION_LIMIT, _min_block_size, canonical_blocks, set_partitions, slot_states, state_blocks

Block = tuple[int, ...]
Monomial = tuple[Block, ...]

# Set partitions of [n] are enumerated exhaustively; Bell(10) = 115975.
CUMULANT_LIMIT = 10


class SlotBinding(Frozen):
    """Assignment of argument slots 1..n to variable ids.

    Repeated arguments are expressed by binding several slots to the
    same variable: the three-slot binding (1, 1, 2) realizes the call
    pattern f(X1, X1, X2).
    """

    variables: tuple[int, ...]

    def __init__(self, variables: Iterable[int]) -> None:
        vs = tuple(integer(v, ValidationError, "variables") for v in variables)
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

        Zeros are skipped, so (2, 0, 1) binds slots (1, 1, 3); a negative
        count, or none positive, is a ValidationError on multiplicities.
        """
        vs: list[int] = []
        for var, count in enumerate(multiplicities, start=1):
            count = integer(count, ValidationError, "multiplicities")
            if count < 0:
                raise ValidationError(f"multiplicities: negative count for variable {var}")
            vs.extend([var] * count)
        if not vs:
            raise ValidationError("multiplicities: no positive count")
        return cls(tuple(vs))


class MomentOracle(Frozen):
    """Expectation oracle for products of variables over a block.

    ``fn`` receives a sorted tuple of variable ids (repeats allowed) and
    returns the expectation of the corresponding product.  The empty
    block never reaches ``fn``; it is 1 by definition.  ``exact`` marks
    oracles returning Fractions, which keeps downstream evaluation in
    exact arithmetic.
    """

    fn: Callable[[Block], object]
    exact: bool

    def __init__(self, fn: Callable[[Block], object], exact: bool = False) -> None:
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "exact", exact)

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
    moments come back as Fractions.  Each moment is summed in integers
    over the common denominator of the masses and of the block's
    coordinates, and built as one Fraction.  Values are memoized per
    block.
    """
    atoms = [tuple(a) for a in support]
    ps = [Fraction(p) for p in probs]
    if len(atoms) != len(ps):
        raise ValidationError(f"probs: length {len(ps)} does not match support length {len(atoms)}")
    dim = len(atoms[0]) if atoms else 0
    # masses p = weights / scale; coordinate i of atom a is
    # columns[i][a] / scales[i]
    scale = math.lcm(*(p.denominator for p in ps))
    weights = [p.numerator * (scale // p.denominator) for p in ps]
    columns, scales = [], []
    for column in zip(*atoms):
        xs = [Fraction(x) for x in column]
        d = math.lcm(*(x.denominator for x in xs))
        columns.append([x.numerator * (d // x.denominator) for x in xs])
        scales.append(d)
    memo: dict[Block, object] = {}

    def fn(block: Block):
        if block not in memo:
            if block[-1] > dim:
                raise DomainError(f"block id {block[-1]} exceeds the {dim} coordinates")
            terms, denominator = weights, scale
            for i in block:
                terms = [t * x for t, x in zip(terms, columns[i - 1])]
                denominator *= scales[i - 1]
            memo[block] = Fraction(sum(terms), denominator)
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


class _Factors(dict):
    """Factor texts named on first use: a block, or (block, exponent)."""

    def __init__(self, single: bool) -> None:
        super().__init__()
        self.single = single

    def __missing__(self, key):
        if key and type(key[0]) is tuple:
            block, e = key
            text = self[block] + (f"^{e}" if e > 1 else "")
        else:
            text = f"M{len(key)}" if self.single else _block_str(key)
        self[key] = text
        return text


class SymbolicExpansion(Frozen):
    """Exact-rational linear combination of moment monomials.

    A monomial is a multiset of blocks, each block a multiset of
    variable ids.  Terms are canonical: no zero coefficients, no empty
    blocks (an empty block's moment is 1, as MomentOracle has it),
    blocks sorted, monomials sorted, fixed term order.
    """

    terms: tuple[tuple[Monomial, Fraction], ...]

    def __init__(self, terms: Iterable[tuple[Monomial, Fraction]]) -> None:
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in terms:
            key = canonical_blocks(b for b in mono if b)
            coeff = Fraction(coeff)
            acc[key] = acc[key] + coeff if key in acc else coeff
        cleaned = tuple((m, acc[m]) for m in sorted(acc, key=_term_key) if acc[m])
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _canonical(cls, terms: tuple[tuple[Monomial, Fraction], ...]) -> "SymbolicExpansion":
        """Wrap terms that are already canonical, skipping __init__."""
        expansion = object.__new__(cls)
        object.__setattr__(expansion, "terms", terms)
        return expansion

    @cached_property
    def _float_terms(self) -> tuple[tuple[Monomial, float], ...]:
        """The terms with their coefficients as floats, converted once."""
        return tuple((mono, float(coeff)) for mono, coeff in self.terms)

    def evaluate(self, oracle: MomentOracle):
        """Sum of coefficient * product of block moments.

        Exact oracles keep Fractions end to end; otherwise the
        coefficients are floats, converted once per expansion, and the
        moments may be arrays (one value per quadrature point), summed
        elementwise.  The blocks are canonical (sorted, never empty), so
        each goes to oracle.fn as it is.
        """
        fn = oracle.fn
        total = Fraction(0) if oracle.exact else 0.0
        for mono, v in self.terms if oracle.exact else self._float_terms:
            for block in mono:
                v = v * fn(block)
            total = total + v
        return total

    def pretty(self) -> str:
        """Readable form, e.g. ``M2^3 - 1/2*M3^2``.

        When every block repeats a single common variable, a block of
        size k prints as ``Mk`` (a conditional-moment shorthand);
        otherwise blocks print as E[...] products.
        """
        terms = self.terms
        if not terms:
            return "0"
        # canonical blocks are sorted and never empty: all are powers of one
        # variable iff every block starts and ends with it (stops at another)
        ends = ((b[0], b[-1]) for mono, _ in terms for b in mono)
        first = next(ends, None)
        single = first is not None and first[0] == first[1] and all(e == first for e in ends)
        # factors and coefficients repeat across terms: name each once
        factors = _Factors(single)
        factor = factors.__getitem__
        prefixes: dict[tuple[int, int], str] = {}  # " - 1/2*" by integer pair
        out = []
        for mono, coeff in terms:
            key = (coeff.numerator, coeff.denominator)
            prefix = prefixes.get(key)
            if prefix is None:
                mag = abs(coeff)
                prefix = prefixes[key] = (" + " if coeff > 0 else " - ") + ("" if mag == 1 else f"{mag}*")
            if not mono:
                out.append(prefix[:-1] if prefix.endswith("*") else prefix + "1")
            elif len(set(mono)) == len(mono):
                out.append(prefix + "*".join(map(factor, mono)))
            else:
                # equal blocks are adjacent: one factor per (block, exponent)
                out.append(prefix + "*".join([factors[b, mono.count(b)] for b in dict.fromkeys(mono)]))
        # the first term carries its sign without the spaces
        first = out[0]
        out[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(out)


@lru_cache(maxsize=None)
def _tau_symbolic(variables: tuple[int, ...], min_block_size: int) -> SymbolicExpansion:
    """Collapsed expansion from the slot programme's final states.

    Each state of partitions.slot_states is one monomial, already in
    canonical block order, standing for as many raw partitions as its
    multiplicity; k is its block count and s its number of doubled
    units.  Equal monomials merge here, so the sorted terms need no
    second canonicalisation.  Coefficients are kept as integers over
    2**n.
    """
    n = len(variables)
    # (-1)**(k-1) * (k-2)! / 2**s, scaled by 2**n, at weights[k][s]; a
    # diverse partition has k >= 2 blocks, at most 2n
    weights = [None, None] + [
        [(-1) ** (k - 1) * math.factorial(k - 2) * 2 ** (n - s) for s in range(n + 1)] for k in range(2, 2 * n + 1)
    ]
    # monomials bucketed by block count k: the term order (_term_key) is
    # k descending, then each bucket in plain tuple order
    by_count: list[dict[Monomial, int]] = [{} for _ in range(2 * n + 1)]
    for state, mult in slot_states(variables, min_block_size).items():
        mono = state_blocks(state)
        k = len(mono)
        acc = by_count[k]
        acc[mono] = acc.get(mono, 0) + mult * weights[k][k - len(state)]
    coeffs: dict[int, Fraction] = {}
    terms = []
    for acc in reversed(by_count):
        for mono in sorted(acc):
            c = acc[mono]
            if c:
                if c not in coeffs:
                    coeffs[c] = Fraction(c, 2**n)
                terms.append((mono, coeffs[c]))
    return SymbolicExpansion._canonical(tuple(terms))


def tau_symbolic(binding: SlotBinding, min_block_size: int = 1) -> SymbolicExpansion:
    """Diverse-partition expansion with slots merged through the binding.

    Identical-argument slots collapse into powers of common blocks with
    summed rational coefficients.  min_block_size=2 keeps only
    partitions whose blocks all have size >= 2 (the centered variant);
    for a single slot that index set is empty and the expansion is 0.
    Bindings of more than ENUMERATION_LIMIT slots raise SizeLimitError.
    """
    min_block_size = _min_block_size(min_block_size)
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


# typed: 2.0 and True must miss the entry of 2 and reach the check
@lru_cache(maxsize=None, typed=True)
def kappa_symbolic(n: int) -> SymbolicExpansion:
    """Joint-cumulant expansion over set partitions of {1..n}."""
    if integer(n, DomainError, "n") < 1:
        raise DomainError(f"n={n}: expected a positive integer")
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
    if integer(n, DomainError, "n") < 1:
        raise DomainError(f"n={n}: expected a positive integer")
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
