"""Seeded input laws for the channel sweep (numpy only, no mideriv)."""
from __future__ import annotations

import itertools
import math

import numpy as np


def pam_law(rng: np.random.Generator, atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Jittered equispaced constellation with unit second moment.

    Atoms start on an even grid over [-1, 1] and move by up to 30 % of the
    spacing, so they stay distinct; masses are uniform on [1, 4] before
    normalisation.
    """
    spacing = 2.0 / (atoms - 1)
    x = np.linspace(-1.0, 1.0, atoms) + rng.uniform(-0.3, 0.3, atoms) * spacing
    p = rng.uniform(1.0, 4.0, atoms)
    p /= p.sum()
    return x / math.sqrt(float(p @ x**2)), p


def product_law(factors) -> tuple[np.ndarray, np.ndarray]:
    """Independent coordinates: the product of 1-D laws."""
    support, probs = [], []
    for combo in itertools.product(*(list(zip(x, p)) for x, p in factors)):
        support.append([c[0] for c in combo])
        probs.append(math.prod(c[1] for c in combo))
    probs = np.array(probs)
    return np.array(support), probs / probs.sum()


def duplicated_law(x, p, channels: int) -> tuple[np.ndarray, np.ndarray]:
    """One signal fed to every channel."""
    return np.repeat(np.asarray(x)[:, None], channels, axis=1), np.asarray(p)


def full_rank_law(rng: np.random.Generator, atoms: int, channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-scattered atoms, so the support spans every channel."""
    p = rng.uniform(1.0, 4.0, atoms)
    return rng.normal(size=(atoms, channels)), p / p.sum()
