"""Regenerate ``references.json`` with mpmath, apart from mideriv.

Every value is computed twice at 40 significant digits:

* by mpmath's tanh-sinh quadrature (``mp.quad``) over the real line, the
  stored value, with mpmath's own error estimate;
* on a 300-node Gauss-Hermite rule whose nodes are Newton-refined here
  in mpmath (numpy only supplies the starting guesses) and whose weights
  come from the Hermite recurrence.  The gap between the two routes is
  stored as a cross-check; Gauss-Hermite converges only like
  exp(-c sqrt(order)) on these integrands, so that gap is far larger than
  the tanh-sinh error.

Quantities:

* two-point input (+-1 equiprobable): d^k I / dsnr^k at snr 0.8 for
  k = 1..4, from I(s) = s - E[log cosh(s + sqrt(s) Z)] and the Gaussian
  identity d/ds E[G(s + sqrt(s) Z)] = E[(G' + G''/2)(s + sqrt(s) Z)],
  with every derivative of log cosh a polynomial in tanh;
* a fixed panel of 1-D laws (the channel sweep's slots, drawn with
  PANEL_SEED): mutual information, mmse = E[Var(X|Y)] and
  d2 = -1/2 E[Var(X|Y)^2].

Usage: python3 perfbench/make_references.py [--out perfbench/references.json]
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
DPS = 40
GH_ORDER = 300
TWO_POINT_SNR = "0.8"
PANEL_SEED = 2303


def gauss_hermite_mp(n: int) -> tuple[list, list]:
    """Nodes and weights for E[f(Z)], Z standard normal, refined in mpmath."""
    guesses, _ = np.polynomial.hermite_e.hermegauss(n)
    nodes, weights = [], []
    for guess in guesses:
        x = mp.mpf(float(guess))
        for _ in range(20):
            prev, cur = mp.mpf(1), x
            for k in range(1, n):
                prev, cur = cur, x * cur - k * prev
            step = cur / (n * prev)  # He_n / He_n', with He_n' = n He_{n-1}
            x -= step
            if abs(step) < mp.mpf(10) ** (-DPS - 2):
                break
        prev, cur = mp.mpf(1), x
        for k in range(1, n - 1):
            prev, cur = cur, x * cur - k * prev
        he_prev = cur if n > 1 else mp.mpf(1)
        nodes.append(x)
        weights.append(mp.factorial(n) / (n * n * he_prev**2))
    total = mp.fsum(weights)
    if abs(total - 1) > mp.mpf(10) ** (-DPS + 8):
        raise RuntimeError(f"order {n}: weights sum to {total}")
    return nodes, weights


def _poly_derivative_in_u(c: list[Fraction]) -> list[Fraction]:
    """d/du of P(tanh u) as a polynomial in t = tanh u: P'(t) (1 - t^2)."""
    dp = [j * c[j] for j in range(1, len(c))] or [Fraction(0)]
    out = [Fraction(0)] * (len(dp) + 2)
    for j, v in enumerate(dp):
        out[j] += v
        out[j + 2] -= v
    return out


def two_point_polys(kmax: int) -> list[list[Fraction]]:
    """Q_k with d^k I/ds^k = [k == 1] - E[Q_k(tanh(s + sqrt(s) Z))]."""
    q = [Fraction(1, 2), Fraction(1), Fraction(-1, 2)]  # F' + F''/2 = t + (1 - t^2)/2
    polys = [q]
    for _ in range(kmax - 1):
        d1 = _poly_derivative_in_u(q)
        d2 = _poly_derivative_in_u(d1)
        width = max(len(d1), len(d2))
        q = [(d1[j] if j < len(d1) else 0) + Fraction(1, 2) * (d2[j] if j < len(d2) else 0) for j in range(width)]
        polys.append(q)
    return polys


def two_point_derivatives(nodes, weights, kmax: int = 4) -> dict[int, tuple]:
    """k -> (tanh-sinh value, its error estimate, Gauss-Hermite value)."""
    s = mp.mpf(TWO_POINT_SNR)
    r = mp.sqrt(s)
    ts = [mp.tanh(s + r * z) for z in nodes]
    out = {}
    for k, poly in enumerate(two_point_polys(kmax), start=1):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in poly][::-1]
        base = 1 if k == 1 else 0
        value, err = mp.quad(
            lambda z: mp.npdf(z) * mp.polyval(coeffs, mp.tanh(s + r * z)), [-mp.inf, -r, 0, mp.inf], error=True
        )
        gh = mp.fsum(w * mp.polyval(coeffs, t) for w, t in zip(weights, ts))
        out[k] = (base - value, err, base - gh)
    return out


def law_functionals_quad(x: list[float], p: list[float], snr: float) -> dict[str, tuple]:
    """(value, error estimate) of mi, mmse and d2 by tanh-sinh over the output y.

    mi = snr E[X^2] / 2 - KL(p_Y || N(0,1)); the three integrands share
    one memoised posterior evaluation per node.
    """
    xs = [mp.mpf(v) for v in x]
    ps = [mp.mpf(v) for v in p]
    s = mp.mpf(snr)
    r = mp.sqrt(s)
    memo = {}

    def at(y):
        if y not in memo:
            e = [pb * mp.exp(r * xb * y - s * xb * xb / 2) for xb, pb in zip(xs, ps)]
            total = mp.fsum(e)
            mean = mp.fsum(eb * xb for eb, xb in zip(e, xs)) / total
            var = mp.fsum(eb * xb * xb for eb, xb in zip(e, xs)) / total - mean * mean
            memo[y] = (mp.npdf(y) * total, mp.log(total), var)
        return memo[y]

    means = [r * v for v in xs]
    lo, hi = min(means) - 10, max(means) + 10
    cuts = [-mp.inf] + [lo + (hi - lo) * j / 48 for j in range(49)] + [mp.inf]
    second = mp.fsum(pb * xb * xb for xb, pb in zip(xs, ps))
    kl, kl_err = mp.quad(lambda y: at(y)[0] * at(y)[1], cuts, error=True)
    mm, mm_err = mp.quad(lambda y: at(y)[0] * at(y)[2], cuts, error=True)
    d2, d2_err = mp.quad(lambda y: at(y)[0] * at(y)[2] ** 2, cuts, error=True)
    return {"mi": (s * second / 2 - kl, kl_err), "mmse": (mm, mm_err), "d2": (-d2 / 2, d2_err / 2)}


def law_functionals_gh(x: list[float], p: list[float], snr: float, nodes, weights) -> dict[str, mp.mpf]:
    """mi, mmse and d2 of a 1-D law on the Gauss-Hermite rule, per mixture component."""
    xs = [mp.mpf(v) for v in x]
    ps = [mp.mpf(v) for v in p]
    s = mp.mpf(snr)
    r = mp.sqrt(s)
    mi_terms, mmse_terms, d2_terms = [], [], []
    for xa, pa in zip(xs, ps):
        for z, w in zip(nodes, weights):
            # posterior weights at y = sqrt(s) xa + z, relative to atom a
            e = [pb * mp.exp(r * (xb - xa) * z - s * (xb - xa) ** 2 / 2) for xb, pb in zip(xs, ps)]
            total = mp.fsum(e)
            mean = mp.fsum(eb * xb for eb, xb in zip(e, xs)) / total
            second = mp.fsum(eb * xb * xb for eb, xb in zip(e, xs)) / total
            var = second - mean * mean
            mi_terms.append(pa * w * mp.log(total))
            mmse_terms.append(pa * w * var)
            d2_terms.append(pa * w * var * var)
    return {"mi": -mp.fsum(mi_terms), "mmse": mp.fsum(mmse_terms), "d2": -mp.fsum(d2_terms) / 2}


def panel_laws() -> list[dict]:
    """The sweep's 1-D slots, drawn once from PANEL_SEED in pure Python."""
    sys.path.insert(0, str(HERE))
    from sweep import SLOTS_1D

    rng = random.Random(PANEL_SEED)
    laws = []
    for atoms, snr, order in SLOTS_1D:
        spacing = 2.0 / (atoms - 1)
        x = [-1.0 + j * spacing + rng.uniform(-0.3, 0.3) * spacing for j in range(atoms)]
        raw = [rng.uniform(1.0, 4.0) for _ in range(atoms)]
        p = [v / math.fsum(raw) for v in raw]
        scale = math.sqrt(math.fsum(pj * xj * xj for pj, xj in zip(p, x)))
        laws.append({"label": f"A={atoms} snr={snr} order={order}", "snr": snr, "order": order,
                     "support": [v / scale for v in x], "probs": p})
    return laws


def _digits(v: mp.mpf) -> str:
    return mp.nstr(v, DPS - 5, strip_zeros=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "references.json"))
    args = parser.parse_args(argv)
    mp.mp.dps = DPS
    start = time.perf_counter()
    rule = gauss_hermite_mp(GH_ORDER)

    derivs = two_point_derivatives(*rule)
    two_point = {
        "snr": float(TWO_POINT_SNR),
        "derivatives": {str(k): _digits(v) for k, (v, _, _) in derivs.items()},
        "error_estimate": {str(k): mp.nstr(err, 3) for k, (_, err, _) in derivs.items()},
        "gauss_hermite_gap": {str(k): mp.nstr(abs(v - gh), 3) for k, (v, _, gh) in derivs.items()},
    }
    panel = []
    for law in panel_laws():
        quad = law_functionals_quad(law["support"], law["probs"], law["snr"])
        gh = law_functionals_gh(law["support"], law["probs"], law["snr"], *rule)
        entry = dict(law)
        for key in ("mi", "mmse", "d2"):
            value, err = quad[key]
            entry[key] = _digits(value)
            entry[f"{key}_error_estimate"] = mp.nstr(err, 3)
            entry[f"{key}_gauss_hermite_gap"] = mp.nstr(abs(value - gh[key]), 3)
        panel.append(entry)
        print(f"{law['label']}: done at {time.perf_counter() - start:.1f} s", file=sys.stderr)
    payload = {
        "generator": "perfbench/make_references.py",
        "mpmath": mp.__version__,
        "dps": DPS,
        "gauss_hermite_order": GH_ORDER,
        "seconds": round(time.perf_counter() - start, 1),
        "two_point": two_point,
        "panel": panel,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out} in {payload['seconds']} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
