"""The posterior pass against pure-Python loops, and symmetry properties.

The reference loops walk components, grid points and atoms one scalar
at a time, so they share no reduction order or array layout with the
vectorised pass they check.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mideriv.channel import (
    ChannelSpec,
    DiscreteJoint,
    gauss_hermite,
    mmse,
    mutual_information,
    _posterior_pass,
)
from mideriv.errors import QuadratureUnderflowError


def _pass(probs, logp, D, G, W, values=None):
    """The stacked posterior pass on one signal set: D (A, A), G (A, P)."""
    return _posterior_pass(probs, logp, D[None], G[None], W, values)[0]


def _mi_reference(probs, logp, D, G, W):
    probs, logp, D, G, W = (np.asarray(x).tolist() for x in (probs, logp, D, G, W))
    A = len(probs)
    total = 0.0
    for a in range(A):
        acc = 0.0
        for g in range(len(W)):
            mx = -math.inf
            for b in range(A):
                t = logp[b] - D[a][b] + (G[b][g] - G[a][g])
                if t > mx:
                    mx = t
            s = 0.0
            for b in range(A):
                s += math.exp(logp[b] - D[a][b] + (G[b][g] - G[a][g]) - mx)
            acc += W[g] * -(mx + math.log(s))
        total += probs[a] * acc
    return total


def _weights_reference(logp, Drow, G, a):
    logp, Drow, G = (np.asarray(x).tolist() for x in (logp, Drow, G))
    A, P = len(logp), len(G[0])
    w = [[0.0] * P for _ in range(A)]
    for g in range(P):
        mx = -math.inf
        for b in range(A):
            t = logp[b] - Drow[b] + (G[b][g] - G[a][g])
            w[b][g] = t
            if t > mx:
                mx = t
        s = 0.0
        for b in range(A):
            w[b][g] = math.exp(w[b][g] - mx)
            s += w[b][g]
        for b in range(A):
            w[b][g] /= s
    return np.array(w)


def _pass_args(seed, n, atoms, order):
    """Pass arguments for a seeded law, built straight from the layout."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(-2.0, 2.0, size=(atoms, n))
    probs = rng.dirichlet(np.ones(atoms))
    lam = rng.uniform(0.1, 2.0, size=n)
    Z, W = gauss_hermite(order).tensor(n)
    D = np.array([[0.5 * sum(lam[i] * (S[a, i] - S[b, i]) ** 2 for i in range(n)) for b in range(atoms)] for a in range(atoms)])
    G = np.array([[Z[g] @ (np.sqrt(lam) * S[b]) for g in range(len(W))] for b in range(atoms)])
    return probs, np.log(probs), D, G, W


def _pass_weights(probs, logp, D, G, W):
    """The normalised (A, P) weights the pass hands out, per component."""
    seen = []

    def keep(w):
        seen.append(w.copy())
        return np.zeros(w.shape[1])

    assert _pass(probs, logp, D, G, W, keep) == 0.0
    return seen


CASES = [(1, 1, 16), (1, 6, 20), (2, 2, 19), (2, 5, 16), (3, 3, 16), (3, 6, 17)]


@pytest.mark.parametrize("n,atoms,order", CASES)
def test_kernels_match_loop_reference(n, atoms, order):
    args = _pass_args(100 * n + atoms, n, atoms, order)
    _, logp, D, G, W = args
    assert abs(_pass(*args) - _mi_reference(*args)) < 1e-13
    weights = _pass_weights(*args)
    assert len(weights) == atoms
    for a, w in enumerate(weights):
        assert w.shape == (atoms, len(W))
        assert np.abs(w - _weights_reference(logp, D[a], G, a)).max() < 1e-13


def test_pass_raises_only_on_non_finite_average():
    # one atom 1000 below the other at one grid point: its weight there
    # underflows to 0, but max subtraction keeps every column sum at least
    # 1, so no raise and the same value as the loop (a shift of every atom
    # would cancel from the differences)
    probs, logp, D, G, W = _pass_args(5, 1, 2, 16)
    G = G.copy()
    G[0, 3] -= 1000.0
    args = (probs, logp, D, G, W)
    assert abs(_pass(*args) - _mi_reference(*args)) < 1e-13
    for a, w in enumerate(_pass_weights(*args)):
        assert np.abs(w - _weights_reference(logp, D[a], G, a)).max() < 1e-13
    G[0, 3] = math.inf
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(QuadratureUnderflowError):
            _pass(*args)


@st.composite
def laws(draw):
    n = draw(st.integers(1, 3))
    atoms = draw(st.integers(1, 5))
    coord = st.integers(-4, 4).map(lambda k: k / 2)
    support = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=atoms, max_size=atoms))
    masses = draw(st.lists(st.integers(1, 9), min_size=atoms, max_size=atoms))
    snr = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    atom_perm = draw(st.permutations(range(atoms)))
    channel_perm = draw(st.permutations(range(n)))
    probs = [m / sum(masses) for m in masses]
    return support, probs, snr, atom_perm, channel_perm


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a))


@settings(max_examples=30, deadline=None)
@given(laws())
def test_mi_and_mmse_invariant_under_atom_and_channel_permutation(law):
    support, probs, snr, atom_perm, channel_perm = law
    quad = gauss_hermite(16)
    dist = DiscreteJoint(support, probs)
    spec = ChannelSpec(snr)
    shuffled = DiscreteJoint([support[a] for a in atom_perm], [probs[a] for a in atom_perm])
    swapped = DiscreteJoint(
        [[row[i] for i in channel_perm] for row in support], probs
    )
    swapped_spec = ChannelSpec([snr[i] for i in channel_perm])

    mi = mutual_information(dist, spec, quad)
    assert _close(mutual_information(shuffled, spec, quad), mi)
    assert _close(mutual_information(swapped, swapped_spec, quad), mi)
    for j, i in enumerate(channel_perm):
        value = mmse(dist, spec, channel=i + 1, quad=quad)
        assert _close(mmse(shuffled, spec, channel=i + 1, quad=quad), value)
        assert _close(mmse(swapped, swapped_spec, channel=j + 1, quad=quad), value)
