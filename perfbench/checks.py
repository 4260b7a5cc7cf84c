"""Check bookkeeping shared by the workloads: pass/fail, digits, headroom."""
from __future__ import annotations

import math
from fractions import Fraction

# Decimal digits a float64 can carry; an exact check scores this cap.
CAP = math.log10(2.0**53)


def correct_digits(value: float, reference: float) -> float:
    """-log10 of the relative error, capped; equal values score the cap."""
    gap = abs(value - reference)
    if gap == 0.0:
        return CAP
    return min(CAP, -math.log10(gap / abs(reference)))


def headroom(gap: float, tol: float) -> float:
    """log10(tol / gap), capped; a zero gap scores the cap."""
    if gap == 0.0:
        return CAP
    if tol <= 0.0:
        return -CAP
    return min(CAP, math.log10(tol / gap))


class Checks:
    """Collects the outcome of every check made on one round's outputs.

    ``digits`` gathers values compared with references computed apart
    from the program and exact far past float64 (mpmath at 40 digits,
    exact rationals); ``headroom`` gathers log10(tol/gap) of the checks
    that carry a tolerance, unless the workload takes headroom from the
    program's own report rows instead (``own_headroom=False``).  A check
    against a reference that is itself only float64-accurate (scipy's
    adaptive quadrature, good to ~1e-13) passes or fails but is not
    scored (``scored=False``): its gap would measure the reference.
    """

    def __init__(self, own_headroom: bool = True) -> None:
        self.failures: list[str] = []
        self.digits: list[float] = []
        self.headroom: list[float] = []
        self.count = 0
        self._own_headroom = own_headroom

    def _record(self, name: str, ok: bool, detail: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def close(self, name: str, value: float, reference: float, rel_tol: float, scored: bool = True) -> None:
        """value within rel_tol of an independent reference."""
        gap = abs(value - reference) / abs(reference)
        if scored:
            self.digits.append(correct_digits(value, reference))
            if self._own_headroom:
                self.headroom.append(headroom(gap, rel_tol))
        self._record(name, gap <= rel_tol, f"{value!r} vs reference {reference!r} (rel gap {gap:.3e} > {rel_tol:.0e})")

    def within(self, name: str, value: float, reference: float, abs_tol: float, scored: bool = True) -> None:
        """|value - reference| <= abs_tol against an independent reference."""
        gap = abs(value - reference)
        if scored:
            self.digits.append(correct_digits(value, reference))
            if self._own_headroom:
                self.headroom.append(headroom(gap, abs_tol))
        self._record(name, gap <= abs_tol, f"{value!r} vs reference {reference!r} (gap {gap:.3e} > {abs_tol:.0e})")

    def small(self, name: str, value: float, abs_tol: float) -> None:
        """|value| <= abs_tol for a quantity the method makes vanish."""
        if self._own_headroom:
            self.headroom.append(headroom(abs(value), abs_tol))
        self._record(name, abs(value) <= abs_tol, f"|{value!r}| > {abs_tol:.0e}")

    def exact(self, name: str, value, reference) -> None:
        """Exact (rational) equality; counts as the digit cap when it holds."""
        ok = value == reference
        if ok:
            self.digits.append(CAP)
            if self._own_headroom:
                self.headroom.append(CAP)
        else:
            ref = float(reference)
            self.digits.append(correct_digits(float(value), ref) if ref else 0.0)
        self._record(name, ok, f"{value} != {reference}")

    def holds(self, name: str, ok: bool, detail: str = "property violated") -> None:
        """A property the method must have (a bound, an identity of shapes)."""
        self._record(name, bool(ok), detail)

    def report_row(self, name: str, gap: float, tol: float) -> None:
        """A row of the program's own report: contributes its headroom."""
        self.headroom.append(headroom(gap, tol))

    def summary(self) -> dict:
        return {
            "checks": self.count,
            "failures": self.failures,
            "correct": not self.failures,
            "digits": min(self.digits) if self.digits else CAP,
            "headroom_dec": min(self.headroom) if self.headroom else CAP,
        }


def evaluate_exact(terms, moment) -> Fraction:
    """Exact value of sum(coeff * prod(moment(block))) over expansion terms.

    ``terms`` is a list of ``(blocks, Fraction)``.  ``moment(block)``
    returns ``(numerator, exponent)`` meaning numerator / D**exponent for
    one common integer D, which ``moment.denominator`` holds.  Products
    are accumulated in integers per power of D, so a 29,388-term
    expansion evaluates in milliseconds instead of seconds of Fraction
    arithmetic.
    """
    if not terms:
        return Fraction(0)
    scale = math.lcm(*(c.denominator for _, c in terms))
    acc: dict[int, int] = {}
    memo: dict[tuple, tuple[int, int]] = {}
    for blocks, coeff in terms:
        num = coeff.numerator * (scale // coeff.denominator)
        power = 0
        for block in blocks:
            key = tuple(block)
            if key not in memo:
                memo[key] = moment(key)
            m, e = memo[key]
            num *= m
            power += e
            if num == 0:
                break
        if num:
            acc[power] = acc.get(power, 0) + num
    if not acc:
        return Fraction(0)
    top = max(acc)
    d = moment.denominator
    total = sum(v * d ** (top - e) for e, v in acc.items())
    return Fraction(total, scale * d**top)
