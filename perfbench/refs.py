"""Reference values computed apart from mideriv.

Everything here integrates over the channel output with scipy's
adaptive quadrature (QUADPACK), a different route from the program's
Gauss-Hermite grids, and uses no mideriv code.  The 1-D functionals are

    I(X;Y)  = snr E[X^2] / 2 - KL(p_Y || N(0, 1))
    mmse    = E[X^2] - E[E[X|Y]^2]
    d2      = -1/2 E[Var(X|Y)^2]      (d^2 I / dsnr^2; Guo, Wu, Shamai, Verdu 2011)

for Y = sqrt(snr) X + Z with a finitely supported X.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _quad(fn, lo, hi, **kwargs) -> float:
    with warnings.catch_warnings():
        # At the 1e-15 target QUADPACK reports roundoff; the values are still
        # accurate to a few ulps, which the mpmath panel confirms.
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(fn, lo, hi, epsabs=1e-15, epsrel=1e-14, **kwargs)
    return value


def _output_integral(x, p, snr, functional) -> float:
    """Integral over y of p_Y(y) * functional(posterior weights, log p_Y(y)/phi(y))."""
    x = np.asarray(x, dtype=float)
    logp = np.log(np.asarray(p, dtype=float))
    means = math.sqrt(snr) * x

    def integrand(y: float) -> float:
        # log of p_Y(y) / phi(y), kept small so nothing cancels at low snr
        logits = logp + means * y - 0.5 * means**2
        mx = logits.max()
        w = np.exp(logits - mx)
        total = w.sum()
        log_ratio = mx + math.log(total)
        density = math.exp(log_ratio - 0.5 * y * y - _LOG_SQRT_2PI)
        return density * functional(w / total, log_ratio)

    lo, hi = float(means.min()) - 12.0, float(means.max()) + 12.0
    breaks = np.unique(means)
    if breaks.size > 40:
        breaks = np.linspace(lo, hi, 42)[1:-1]
    return _quad(integrand, lo, hi, points=breaks, limit=2000)


def mi_1d(x, p, snr: float) -> float:
    """I(X;Y) in nats as snr E[X^2] / 2 - KL(p_Y || N(0, 1))."""
    second = float(np.asarray(p, dtype=float) @ np.asarray(x, dtype=float) ** 2)
    return 0.5 * snr * second - _output_integral(x, p, snr, lambda w, log_ratio: log_ratio)


def mmse_1d(x, p, snr: float) -> float:
    x = np.asarray(x, dtype=float)
    second = float(np.asarray(p, dtype=float) @ x**2)
    return second - _output_integral(x, p, snr, lambda w, _: float(w @ x) ** 2)


def d2_1d(x, p, snr: float) -> float:
    """Second snr-derivative of I: -1/2 E[Var(X|Y)^2]."""
    x = np.asarray(x, dtype=float)

    def var_squared(w, _):
        mean = float(w @ x)
        return (float(w @ x**2) - mean * mean) ** 2

    return -0.5 * _output_integral(x, p, snr, var_squared)


def _normal_expect(f) -> float:
    return _quad(lambda z: math.exp(-0.5 * z * z - _LOG_SQRT_2PI) * f(z), -np.inf, np.inf, limit=500)


def two_point_first(snr: float) -> float:
    """dI/dsnr for the equiprobable +-1 input: (1 - E[tanh^2(snr + sqrt(snr) Z)]) / 2."""
    r = math.sqrt(snr)
    return 0.5 * (1.0 - _normal_expect(lambda z: math.tanh(snr + r * z) ** 2))


def two_point_second(snr: float) -> float:
    """d2I/dsnr2 for the equiprobable +-1 input: -1/2 E[(1 - tanh^2)^2]."""
    r = math.sqrt(snr)
    return -0.5 * _normal_expect(lambda z: (1.0 - math.tanh(snr + r * z) ** 2) ** 2)
