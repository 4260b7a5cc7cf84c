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
    expected_conditional_tau,
    gauss_hermite,
    mmse,
    mutual_information,
    mutual_information_many,
    _grid_parts,
    _moment_form,
    _posterior_pass,
)
from mideriv.errors import QuadratureUnderflowError
from mideriv.forms import MomentOracle, SlotBinding, SymbolicExpansion, tau_symbolic
from mideriv.verify import correlated_pair_input, random_triple_input, two_point_input


def _pass(probs, logp, D, G, W, moments=None):
    """The stacked posterior pass on one signal set: D (A, A), G (A, P)."""
    return _posterior_pass(probs, logp, D[None], G[None], W, moments)[0]


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


def _atom_functions(seed, atoms):
    """(atoms + 3, A, A) atom functions phi[t, a, b] of seeded coordinates x.

    The indicator of each atom t, whose conditional moment is its
    posterior weight; a row of ones, the total weight; then x_b - x_a on
    one axis and the product of the shifts on two.
    """
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(atoms, 2))
    shift = x[None, :, :] - x[:, None, :]
    indicators = np.broadcast_to(np.eye(atoms)[:, None, :], (atoms, atoms, atoms))
    more = [np.ones((atoms, atoms)), shift[..., 0], shift[..., 0] * shift[..., 1]]
    return np.concatenate([indicators, np.stack(more)])


def _pass_moments(probs, logp, D, G, W, phi):
    """The (m, A, P) conditional moments of phi the pass forms, per component."""
    seen = []

    def keep(M):
        seen.append(M[:, 0].copy())
        return np.zeros(M.shape[2:])

    assert _pass(probs, logp, D, G, W, (phi, keep)) == 0.0
    return np.concatenate(seen, axis=2)


def _moments_reference(logp, D, G, phi):
    """The loop's normalised weights contracted with phi: (m, A, P)."""
    return np.stack([phi[:, a] @ _weights_reference(logp, D[a], G, a) for a in range(len(logp))], axis=1)


CASES = [(1, 1, 16), (1, 6, 20), (2, 2, 19), (2, 5, 16), (3, 3, 16), (3, 6, 17)]


@pytest.mark.parametrize("n,atoms,order", CASES)
def test_kernels_match_loop_reference(n, atoms, order):
    args = _pass_args(100 * n + atoms, n, atoms, order)
    _, logp, D, G, W = args
    assert abs(_pass(*args) - _mi_reference(*args)) < 1e-13
    phi = _atom_functions(n + atoms, atoms)
    moments = _pass_moments(*args, phi)
    assert moments.shape == (atoms + 3, atoms, len(W))
    assert np.abs(moments - _moments_reference(logp, D, G, phi)).max() < 1e-13


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
    phi = _atom_functions(5, 2)
    assert np.abs(_pass_moments(*args, phi) - _moments_reference(logp, D, G, phi)).max() < 1e-13
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
    phi = _atom_functions(11, 5)
    moments = _pass_moments(*args, phi)
    assert np.abs(moments - _moments_reference(logp, D, G, phi)).max() < 1e-13
    # the weights at every point are a distribution, on fallback entries
    # and others, and the row of ones reads their total
    weights = moments[:5]
    assert np.abs(weights.sum(axis=0) - 1.0).max() < 1e-14
    assert np.abs(moments[5] - 1.0).max() < 1e-14
    assert (weights >= 0.0).all()


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
    # sums and one entry of the fallback.  The fallback's entries keep
    # their bits; a one-column matmul takes BLAS's edge kernel, whose
    # sums may differ from a wide block's in the last bit, so the
    # blocked moments are held to the loop reference
    args = _partly_underflowing_args()
    probs, logp, D, G, W = args
    phi = _atom_functions(11, 5)
    low = _own_terms(logp, D, G) < OWN_TERM_FLOOR
    whole = _pass(*args)
    moments = _pass_moments(*args, phi)
    monkeypatch.setattr(channel, "MAX_STACK_ELEMENTS", 8)
    assert _pass(*args) == whole
    assert abs(whole - _mi_reference(*args)) < 1e-13
    blocked = _pass_moments(*args, phi)
    assert np.array_equal(blocked[:, low], moments[:, low])
    assert np.abs(blocked - _moments_reference(logp, D, G, phi)).max() < 1e-13


def test_fallback_holds_no_grid_sized_gather():
    # an 8 x 8 lattice at snr 1e4 on both channels: two thirds of the
    # own-atom terms underflow.  Besides G the pass holds F, which takes
    # the llr or the moments' per-point term, and blocks of at most
    # MAX_STACK_ELEMENTS floats: the sums over atoms by grid columns, the
    # fallback by entries, a few of them alive at once, where one gather
    # of all the fallback's entries would take about 40 times G.  The
    # moments of mmse and of a centred three-slot form get the mi's bound
    x = np.array([(i, j) for i in range(8) for j in range(8)], dtype=float)
    lattice = DiscreteJoint(x - 3.5, [1.0 / 64] * 64)
    ((_, logp, D, G, W),) = _grid_parts(lattice, [(1e4, 1e4)], gauss_hermite(64))
    assert (_own_terms(logp, D[0], G[0]) < OWN_TERM_FLOOR).mean() > 0.6
    bound = 2 * G.nbytes + 8 * 8 * channel.MAX_STACK_ELEMENTS
    forms = [
        _moment_form(lattice.support, SymbolicExpansion(((((1, 1),), 1),)), True),
        _moment_form(lattice.support, tau_symbolic(SlotBinding((1, 1, 2)), 2), True),
    ]
    for moments in [None] + forms:
        tracemalloc.start()
        try:
            _posterior_pass(lattice.probs, logp, D, G, W, moments)
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


wide_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-3 * np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)


@wide_long_double
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


def _long_double_variances(probs, logp, D, G, W, x):
    """Grid sums of E[Var(X|Y)] and -E[Var(X|Y)**2] / 2 of one set, in np.longdouble.

    The weights are normalised per component and point, and each
    variance is centred on its own posterior mean, atom by atom.
    """
    probs, logp, D, G, W, x = (np.asarray(v, dtype=np.longdouble) for v in (probs, logp, D, G, W, x))
    # (a, b, P) weights of atom b in component a
    e = (G[None, :, :] - G[:, None, :]) + (logp - D)[..., None]
    w = np.exp(e - e.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    mu = (w * x[:, None]).sum(axis=1)
    var = (w * (x[:, None] - mu[:, None, :]) ** 2).sum(axis=1)
    return probs @ var @ W, probs @ (-0.5 * var * var) @ W


@wide_long_double
@pytest.mark.parametrize("lam", [1e2, 1e3])
def test_high_snr_moments_are_pinned_against_long_double(lam):
    # neighbouring 16-PAM atoms sit 2.2 and 6.9 apart: the posterior sits
    # on the component's own atom, and the moments, shifted by it, carry
    # the small spread without cancelling it
    pam = _pam(16)
    quad = gauss_hermite(128)
    spec = ChannelSpec((lam,))
    ((_, logp, D, G, W),) = _grid_parts(pam, [spec.snr], quad)
    variance, squared = _long_double_variances(pam.probs, logp, D[0], G[0], W, pam.support[:, 0])
    assert abs(mmse(pam, spec, quad=quad) - variance) <= 1e-14 * abs(variance)
    tau = expected_conditional_tau(pam, spec, SlotBinding((1, 1)), quad=quad)
    assert abs(tau - squared) <= 1e-14 * abs(squared)


def _form_reference(dist, weights, W, binding, centered):
    """The form averaged over the loop's weights, component by component.

    Each block moment is centred on the posterior means atom by atom
    (or taken raw), with no shift and no binomial expansion.
    """
    expansion = tau_symbolic(binding, 2 if centered else 1)
    X = dist.support
    total = 0.0
    for p, w in zip(dist.probs, weights):
        mu = X.T @ w

        def moment(block):
            prod = w
            for i in block:
                prod = prod * (X[:, i - 1][:, None] - mu[i - 1] if centered else X[:, i - 1][:, None])
            return prod.sum(axis=0)

        total += p * float(W @ expansion.evaluate(MomentOracle(moment)))
    return total


def test_binomial_centring_matches_the_loop_form():
    # the centred form is built from moments shifted by each component's
    # own atom; it must agree with the uncentred form, on unshifted
    # moments, and both with the loop's weights
    rng = np.random.default_rng(29)
    rank3 = DiscreteJoint(rng.uniform(-1.0, 1.0, size=(5, 3)), rng.dirichlet(np.ones(5)))
    laws = [
        (correlated_pair_input(), (0.5, 0.9), 64),
        (rank3, (0.4, 0.7, 0.3), 16),
    ]
    for dist, snr, order in laws:
        quad = gauss_hermite(order)
        spec = ChannelSpec(snr)
        ((_, logp, D, G, W),) = _grid_parts(dist, [snr], quad)
        weights = [_weights_reference(logp, D[0, a], G[0], a) for a in range(dist.atom_count)]
        for variables in [(1, 1, 2), (1, 2, 3), (1, 1, 2, 2), (1, 2, 2, 2)]:
            if max(variables) > dist.n:
                continue
            binding = SlotBinding(variables)
            centred = expected_conditional_tau(dist, spec, binding, True, quad)
            raw = expected_conditional_tau(dist, spec, binding, False, quad)
            assert abs(centred - raw) < 1e-11, (variables, centred, raw)
            assert abs(centred - _form_reference(dist, weights, W, binding, True)) < 1e-12
            assert abs(raw - _form_reference(dist, weights, W, binding, False)) < 1e-12


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
