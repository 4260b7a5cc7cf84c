"""Workload ``expansions``: exact partition combinatorics through the CLI.

Timed: ``mideriv partitions --n N --graphs --format json`` for N = 1..6,
``mideriv tau --multiplicities M --symbolic --format json`` with and
without ``--bar`` for every multiplicity pattern M of orders 1..6, and
``kappa_symbolic(n)`` for n = 1..8, in one fresh process so every
``lru_cache`` starts cold.  No quadrature runs here.

The seed draws the rational laws the checks evaluate the expansions on;
the timed work is the same for every seed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

from checks import Checks, evaluate_exact

MAX_N = 6
KAPPA_MAX = 8
BRUTE_FORCE_MAX = 5
# Known counts of diverse partitions of {1,1,...,n,n}; the brute-force
# oracle below confirms them independently for n <= 5.
DIVERSE_COUNTS = {1: 1, 2: 3, 3: 16, 4: 139, 5: 1750, 6: 29388}


def patterns(k: int, largest: int | None = None):
    """Multiplicity patterns of order k: integer partitions, largest part first."""
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in patterns(k - first, first):
            yield (first,) + rest


def commands(max_n: int = MAX_N) -> list[list[str]]:
    argv = [["partitions", "--n", str(n), "--graphs", "--format", "json"] for n in range(1, max_n + 1)]
    for k in range(1, max_n + 1):
        for pattern in patterns(k):
            base = ["tau", "--multiplicities", ",".join(map(str, pattern)), "--symbolic", "--format", "json"]
            argv.append(base)
            argv.append(base + ["--bar"])
    return argv


def setup(seed: int, scratch: Path) -> dict:
    import mideriv.cli  # noqa: F401  (the import is the set-up this workload has)

    return {"seed": seed, "commands": commands()}


def run(state: dict) -> dict:
    from mideriv import cli, forms

    texts, failed = [], []
    for argv in state["commands"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an operation that raises counts as failed
            rc, err = None, io.StringIO(repr(exc))
        if rc != 0:
            failed.append(f"{' '.join(argv)}: exit {rc} {err.getvalue().strip()}")
        texts.append(out.getvalue())
    kappas = []
    for n in range(1, KAPPA_MAX + 1):
        try:
            kappas.append(forms.kappa_symbolic(n))
        except Exception as exc:
            failed.append(f"kappa_symbolic({n}): {exc!r}")
            kappas.append(None)
    return {"texts": texts, "kappas": kappas, "attempted": len(texts) + len(kappas), "failed": failed}


def digest_material(outputs: dict):
    kappa_text = [None if k is None else [(m, str(c)) for m, c in k.terms] for k in outputs["kappas"]]
    return [outputs["texts"], kappa_text]


def output_bytes(outputs: dict) -> int:
    return sum(len(t.encode("utf-8")) for t in outputs["texts"])


# ---- independent oracles -------------------------------------------------


def _canonical(blocks) -> tuple:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: (-len(b), b)))


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_force(n: int) -> set:
    """Diverse partitions of {1,1,...,n,n} from all set partitions of 2n positions."""
    found = set()
    for part in _set_partitions(list(range(2 * n))):
        blocks = [[p // 2 + 1 for p in b] for b in part]
        if all(len(set(b)) == len(b) for b in blocks):
            found.add(_canonical(blocks))
    return found


_EDGE = re.compile(r'^\s*v(\d+) -- v(\d+) \[label="(\d+)"\];$')
_VERTEX = re.compile(r"^\s*v(\d+);$")


def graph_blocks(dot: str) -> tuple:
    """Blocks read back from a DOT multigraph: each vertex holds its edge labels."""
    vertices: dict[int, list[int]] = {}
    for line in dot.splitlines():
        if m := _VERTEX.match(line):
            vertices.setdefault(int(m.group(1)), [])
        elif m := _EDGE.match(line):
            u, v, label = int(m.group(1)), int(m.group(2)), int(m.group(3))
            if u == v:
                raise ValueError(f"loop at v{u}")
            vertices.setdefault(u, []).append(label)
            vertices.setdefault(v, []).append(label)
    return _canonical(vertices.values())


class RationalMoments:
    """Moments of a finite law with integer atoms and masses w / D.

    Called with a block of 1-based variable ids, returns (numerator,
    exponent) for numerator / D**exponent.  ``central`` centres each
    variable at its mean first.
    """

    def __init__(self, atoms, weights, central: bool = False) -> None:
        self.atoms = atoms
        self.weights = weights
        self.denominator = sum(weights)
        self.central = central
        dim = len(atoms[0])
        self.mean_num = [sum(w * a[i] for a, w in zip(atoms, weights)) for i in range(dim)]

    def __call__(self, block):
        d = self.denominator
        total = 0
        for atom, w in zip(self.atoms, self.weights):
            prod = w
            for v in block:
                prod *= (d * atom[v - 1] - self.mean_num[v - 1]) if self.central else atom[v - 1]
            total += prod
        return total, (len(block) + 1) if self.central else 1


class GaussianMoments:
    """Standard normal, every id the same variable: odd 0, even (k-1)!!."""

    denominator = 1

    def __call__(self, block):
        k = len(block)
        return (0 if k % 2 else math.prod(range(1, k, 2))), 0


class MappedMoments:
    """Moments of slot blocks, with slot s standing for variable binding[s-1]."""

    def __init__(self, base, binding) -> None:
        self.base = base
        self.binding = binding
        self.denominator = base.denominator

    def __call__(self, block):
        return self.base(tuple(sorted(self.binding[s - 1] for s in block)))


def rational_law(rng: random.Random, dim: int) -> tuple[list, list]:
    """3..6 distinct integer atoms in {-2..2}^dim with masses 1..12 (unnormalised)."""
    count = rng.randint(3, min(6, 5**dim))
    atoms: set[tuple[int, ...]] = set()
    while len(atoms) < count:
        atoms.add(tuple(rng.randint(-2, 2) for _ in range(dim)))
    ordered = sorted(atoms)
    return ordered, [rng.randint(1, 12) for _ in ordered]


def cumulant_by_recursion(n: int, moment) -> Fraction:
    """Joint cumulant of variables 1..n by the subset moment-cumulant recursion."""
    memo: dict[tuple, Fraction] = {}

    def m(block):
        num, e = moment(block)
        return Fraction(num, moment.denominator**e)

    def kappa(subset):
        if subset not in memo:
            first, rest = subset[0], subset[1:]
            value = m(subset)
            for r in range(len(rest)):
                for combo in itertools.combinations(rest, r):
                    inner = (first,) + combo
                    outer = tuple(x for x in rest if x not in combo)
                    value -= kappa(inner) * m(outer)
            memo[subset] = value
        return memo[subset]

    return kappa(tuple(range(1, n + 1)))


def _terms(expansion: dict, coefficients: dict) -> list:
    # coefficient strings repeat across terms; parse each once
    return [
        (tuple(tuple(b) for b in t["blocks"]), coefficients.get(t["coeff"]) or coefficients.setdefault(t["coeff"], Fraction(t["coeff"])))
        for t in expansion["terms"]
    ]


def check(state: dict, outputs: dict, checks: Checks) -> None:
    rng = random.Random(state["seed"])
    payloads = {}
    for argv, text in zip(state["commands"], outputs["texts"]):
        try:
            payloads[tuple(argv)] = json.loads(text)
        except json.JSONDecodeError:
            checks.holds(" ".join(argv), False, "output is not JSON")

    for n in range(1, MAX_N + 1):
        payload = payloads.get(("partitions", "--n", str(n), "--graphs", "--format", "json"))
        if payload is None:
            continue
        parts = [_canonical(p["blocks"]) for p in payload["partitions"]]
        checks.exact(f"partitions n={n} count", payload["count"], DIVERSE_COUNTS[n])
        checks.exact(f"partitions n={n} listed", len(parts), DIVERSE_COUNTS[n])
        if n <= BRUTE_FORCE_MAX:
            checks.holds(f"partitions n={n} equal the brute-force set", set(parts) == brute_force(n))
        back = [graph_blocks(dot) for dot in payload["graphs"]]
        checks.holds(f"partitions n={n} survive the graph round trip", back == parts)

    parsed: dict = {}
    coefficients: dict = {}

    def expansion(pattern, bar):
        argv = ["tau", "--multiplicities", ",".join(map(str, pattern)), "--symbolic", "--format", "json"]
        key = tuple(argv + (["--bar"] if bar else []))
        if key not in parsed:
            payload = payloads.get(key)
            parsed[key] = None if payload is None else _terms(payload["expansion"], coefficients)
        return parsed[key]

    gauss = GaussianMoments()
    for k in range(1, MAX_N + 1):
        reference = Fraction((-1) ** (k - 1) * math.factorial(k - 1), 2)
        full = expansion((k,), False)
        if full is not None:
            value = evaluate_exact(full, gauss) + (Fraction(1, 2) if k == 1 else 0)
            checks.exact(f"gaussian chain k={k}", value, reference)
        bar = expansion((k,), True)
        if k >= 2 and bar is not None:
            checks.exact(f"gaussian chain k={k} (bar)", evaluate_exact(bar, gauss), reference)

    for k in range(1, MAX_N + 1):
        for pattern in patterns(k):
            atoms, weights = rational_law(rng, len(pattern))
            raw = RationalMoments(atoms, weights)
            binding = [v for v, count in enumerate(pattern, start=1) for _ in range(count)]
            for bar in (False, True):
                bound, distinct = expansion(pattern, bar), expansion((1,) * k, bar)
                if bound is None or distinct is None:
                    continue
                checks.exact(
                    f"tau {pattern} bar={bar} equals the distinct form through the binding",
                    evaluate_exact(bound, raw),
                    evaluate_exact(distinct, MappedMoments(raw, binding)),
                )
            full, bar = expansion(pattern, False), expansion(pattern, True)
            if k >= 2 and full is not None and bar is not None:
                central = RationalMoments(atoms, weights, central=True)
                checks.exact(
                    f"tau {pattern}: full form on raw moments equals bar form on central moments",
                    evaluate_exact(full, raw),
                    evaluate_exact(bar, central),
                )

    from mideriv.forms import MomentOracle, kappa_eval, kappa_recursion_oracle

    for n, kappa in enumerate(outputs["kappas"], start=1):
        if kappa is None:
            continue
        atoms, weights = rational_law(rng, n)
        law = RationalMoments(atoms, weights)
        terms = [(mono, coeff) for mono, coeff in kappa.terms]
        checks.exact(f"kappa n={n} against the subset recursion", evaluate_exact(terms, law), cumulant_by_recursion(n, law))
        oracle = MomentOracle(lambda b, law=law: Fraction(law(b)[0], law.denominator), exact=True)
        checks.exact(f"kappa_eval n={n} equals kappa_recursion_oracle", kappa_eval(n, oracle), kappa_recursion_oracle(n, oracle))
