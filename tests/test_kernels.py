"""The posterior pass against pure-Python loops, and symmetry properties.

The reference loops walk components, grid points and atoms one scalar
at a time, so they share no reduction order or array layout with the
vectorised pass they check: they take one max-subtracted log-sum-exp per
component and grid point, while the pass multiplies factors and falls
back to that log-sum-exp only where a component's own-atom term
underflows.  A long-double evaluation of the same grid sum pins the
pass's rounding error.
"""
from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mideriv import channel
from mideriv.channel import (
    OWN_TERM_FLOOR,
    ChannelSpec,
    DiscreteJoint,
    gauss_hermite,
    mmse,
    mutual_information,
    mutual_information_many,
    _grid_parts,
    _posterior_pass,
)
from mideriv.errors import QuadratureUnderflowError
from mideriv.verify import correlated_pair_input, random_triple_input, two_point_input


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


def _own_terms(logp, D, G):
    """(A, P) own-atom terms K[a, a] * F[a, g] of one set, in one exp each."""
    c = logp - D
    return np.exp(logp[:, None] - c.max(axis=1)[:, None] + (G - G.max(axis=0)))


def _partly_underflowing_args():
    """A seeded 1-D law with three grid terms moved 1e3 off their column.

    Atom 1 raised at point 3 leaves every other component's own-atom term
    there near exp(-1e3); atom 2 lowered at point 7 and atom 0 at point 11
    leave only their own.
    """
    probs, logp, D, G, W = _pass_args(11, 1, 5, 20)
    G = G.copy()
    G[1, 3] += 1e3
    G[2, 7] -= 1e3
    G[0, 11] -= 1e3
    return probs, logp, D, G, W


def test_fallback_entries_match_the_loop_reference():
    args = _partly_underflowing_args()
    probs, logp, D, G, W = args
    low = _own_terms(logp, D, G) < OWN_TERM_FLOOR
    assert low.sum() == 6 and low[:, 3].sum() == 4 and low[2, 7] and low[0, 11]
    assert abs(_pass(*args) - _mi_reference(*args)) < 1e-13
    weights = _pass_weights(*args)
    for a, w in enumerate(weights):
        assert np.abs(w - _weights_reference(logp, D[a], G, a)).max() < 1e-13
        # every column is a distribution, on fallback entries and others
        assert np.abs(w.sum(axis=0) - 1.0).max() < 1e-14
        assert (w >= 0.0).all()


def test_fallback_entries_keep_the_bits_of_their_set_in_a_stack():
    # the fallback gathers its entries across the stack: a set with some
    # next to one with none must still get the bits of its stack of one
    probs, logp, D, G, W = _partly_underflowing_args()
    _, _, D0, G0, _ = _pass_args(11, 1, 5, 20)
    for sets in ((D, G), (D0, G0)), ((D0, G0), (D, G)):
        Ds, Gs = (np.stack(x) for x in zip(*sets))
        stacked = _posterior_pass(probs, logp, Ds, Gs, W)
        single = [_pass(probs, logp, d, g, W) for d, g in sets]
        assert stacked.tolist() == single


def test_grid_blocks_and_fallback_blocks_keep_the_values(monkeypatch):
    # a stack cap of 8 floats makes every block one grid column of the
    # mi's sums and one entry of the fallback
    args = _partly_underflowing_args()
    probs, logp, D, G, W = args
    whole = _pass(*args)
    weights = _pass_weights(*args)
    monkeypatch.setattr(channel, "MAX_STACK_ELEMENTS", 8)
    assert _pass(*args) == whole
    assert abs(whole - _mi_reference(*args)) < 1e-13
    for w, v in zip(_pass_weights(*args), weights):
        assert np.array_equal(w, v)


def test_fallback_holds_no_grid_sized_gather():
    # an 8 x 8 lattice at snr 1e4 on both channels: two thirds of the
    # own-atom terms underflow.  Besides G the pass holds F and, for the
    # weights, one buffer of G's shape; the fallback goes in blocks of
    # MAX_STACK_ELEMENTS logits, a few of them alive at once, where one
    # gather of all its entries would take about 40 times G
    x = np.array([(i, j) for i in range(8) for j in range(8)], dtype=float)
    lattice = DiscreteJoint(x - 3.5, [1.0 / 64] * 64)
    ((_, logp, D, G, W),) = _grid_parts(lattice, [(1e4, 1e4)], gauss_hermite(64))
    assert (_own_terms(logp, D[0], G[0]) < OWN_TERM_FLOOR).mean() > 0.6
    bound = 2 * G.nbytes + 8 * 8 * channel.MAX_STACK_ELEMENTS
    for values in (None, lambda w: w[0]):
        tracemalloc.start()
        try:
            _posterior_pass(lattice.probs, logp, D, G, W, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def _pam(levels):
    """Equiprobable unit-power PAM on one channel."""
    x = np.arange(levels) * 2.0 - (levels - 1)
    return DiscreteJoint((x / math.sqrt((levels * levels - 1) / 3.0))[:, None], [1.0 / levels] * levels)


def test_high_snr_pam_reaches_the_entropy():
    # at snr 1e4 neighbouring 16-PAM atoms sit 21.7 apart, so the own-atom
    # terms of the outer components underflow on much of the grid and
    # their entries go through the fallback.  There every weight but the
    # own atom's is far below roundoff, so mi is the entropy, which the
    # W-weighted sum can round one ulp (4.4e-16) above, and the own
    # weight divides to exactly 1, so mmse is the 1e-28 of the exact
    # integral rather than the roundoff of x_a**2 - x_a**2
    pam = _pam(16)
    quad = gauss_hermite(128)
    for lam in (1e2, 1e3, 1e4):
        spec = ChannelSpec((lam,))
        mi = mutual_information(pam, spec, quad)
        ((_, logp, D, G, W),) = _grid_parts(pam, [spec.snr], quad)
        assert abs(mi - _mi_reference(pam.probs, logp, D[0], G[0], W)) < 1e-13
        assert 0.0 <= mi <= math.log(16) + 1e-15
        assert 0.0 <= mmse(pam, spec, quad=quad) <= 1.0
    assert (_own_terms(logp, D[0], G[0]) < OWN_TERM_FLOOR).any()
    assert abs(mi - math.log(16)) < 1e-15
    assert mmse(pam, spec, quad=quad) < 1e-25


def _long_double_mi(probs, logp, D, G, W):
    """(S,) grid sums of the pass's mi, every operation in np.longdouble."""
    probs, logp, D, G, W = (np.asarray(x, dtype=np.longdouble) for x in (probs, logp, D, G, W))
    # (S, a, b, P) logits of atom b in component a
    e = (G[:, None, :, :] - G[:, :, None, :]) + (logp - D)[..., None]
    mx = e.max(axis=2)
    llr = -(mx + np.log(np.exp(e - mx[:, :, None]).sum(axis=2)))
    return (probs[:, None] * llr).sum(axis=1) @ W


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-3 * np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)
@pytest.mark.parametrize(
    "dist,point,order",
    [
        (two_point_input(), (0.8,), 128),
        (correlated_pair_input(), (0.5, 0.9), 64),
        (random_triple_input(random.Random(7)), (0.3, 0.5, 0.7), 128),
    ],
    ids=["two-point", "pair", "triple"],
)
def test_mi_rounding_error_is_pinned_against_long_double(dist, point, order):
    # the battery laws at 20 multiples of their battery point, on their
    # battery orders; rms of the pass's float64 rounding error
    rows = [tuple(t * x for x in point) for t in np.linspace(0.1, 4.0, 20)]
    quad = gauss_hermite(order)
    mi = mutual_information_many(dist, rows, quad)
    exact = np.empty(len(rows), dtype=np.longdouble)
    for stack, logp, D, G, W in _grid_parts(dist, rows, quad):
        exact[stack] = _long_double_mi(dist.probs, logp, D, G, W)
    assert float(np.sqrt(np.mean((mi - exact) ** 2))) < 2e-16


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
