"""Grid kernels against pure-Python loops, and symmetry properties.

The reference loops walk components, grid points and atoms one scalar
at a time, so they share no reduction order or array layout with the
vectorised kernels they check.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mideriv import _kernels
from mideriv.channel import ChannelSpec, DiscreteJoint, gauss_hermite, mmse, mutual_information

LOG_FLOOR = _kernels.LOG_FLOOR


def _mi_reference(probs, logp, M, G, c, W):
    probs, logp, M, G, c, W = (np.asarray(x).tolist() for x in (probs, logp, M, G, c, W))
    A = len(probs)
    total = 0.0
    under = False
    for a in range(A):
        acc = 0.0
        for g in range(len(W)):
            mx = -math.inf
            for b in range(A):
                t = logp[b] + M[a][b] + G[b][g] - c[b]
                if t > mx:
                    mx = t
            if mx < LOG_FLOOR:
                under = True
            s = 0.0
            for b in range(A):
                s += math.exp(logp[b] + M[a][b] + G[b][g] - c[b] - mx)
            lse = mx + math.log(s)
            acc += W[g] * ((M[a][a] + G[a][g] - c[a]) - lse)
        total += probs[a] * acc
    return total, under


def _weights_reference(logp, Mrow, G, c):
    logp, Mrow, G, c = (np.asarray(x).tolist() for x in (logp, Mrow, G, c))
    A, P = len(logp), len(G[0])
    w = [[0.0] * P for _ in range(A)]
    under = False
    for g in range(P):
        mx = -math.inf
        for b in range(A):
            t = logp[b] + Mrow[b] + G[b][g] - c[b]
            w[b][g] = t
            if t > mx:
                mx = t
        if mx < LOG_FLOOR:
            under = True
        s = 0.0
        for b in range(A):
            w[b][g] = math.exp(w[b][g] - mx)
            s += w[b][g]
        for b in range(A):
            w[b][g] /= s
    return np.array(w), under


def _kernel_args(seed, n, atoms, order):
    """Kernel arguments for a seeded law, built straight from the layout."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(-2.0, 2.0, size=(atoms, n))
    probs = rng.dirichlet(np.ones(atoms))
    lam = rng.uniform(0.1, 2.0, size=n)
    Z, W = gauss_hermite(order).tensor(n)
    M = np.array([[sum(lam[i] * S[a, i] * S[b, i] for i in range(n)) for b in range(atoms)] for a in range(atoms)])
    G = np.array([[Z[g] @ (np.sqrt(lam) * S[b]) for g in range(len(W))] for b in range(atoms)])
    c = np.array([0.5 * sum(lam[i] * S[b, i] ** 2 for i in range(n)) for b in range(atoms)])
    return probs, np.log(probs), M, G, c, W


CASES = [(1, 1, 16), (1, 6, 20), (2, 2, 19), (2, 5, 16), (3, 3, 16), (3, 6, 17)]


@pytest.mark.parametrize("n,atoms,order", CASES)
def test_kernels_match_loop_reference(n, atoms, order):
    probs, logp, M, G, c, W = _kernel_args(100 * n + atoms, n, atoms, order)
    value, under = _kernels.mi_accumulate(probs, logp, M, G, c, W)
    ref, ref_under = _mi_reference(probs, logp, M, G, c, W)
    assert under is ref_under is False
    assert abs(value - ref) < 1e-13
    for a in range(atoms):
        w, under = _kernels.posterior_weights(logp, M[a], G, c)
        ref_w, ref_under = _weights_reference(logp, M[a], G, c)
        assert w.shape == (atoms, len(W))
        assert under is ref_under is False
        assert np.abs(w - ref_w).max() < 1e-13


def test_kernel_underflow_flags_match_loop_reference():
    probs, logp, M, G, c, W = _kernel_args(5, 1, 2, 16)
    G = G.copy()
    G[:, 3] -= 1000.0
    assert _kernels.mi_accumulate(probs, logp, M, G, c, W)[1] is True
    assert _mi_reference(probs, logp, M, G, c, W)[1] is True
    assert _kernels.posterior_weights(logp, M[0], G, c)[1] is True
    assert _weights_reference(logp, M[0], G, c)[1] is True


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
