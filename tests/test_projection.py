"""Projected quadrature against the full tensor grid.

The oracle rebuilds the pass arguments from the support on the full
n-axis tensor grid of the rule, with no projection, and runs them
through the same posterior pass.  Rank-deficient laws must agree with
it at converged orders; full-rank laws, which keep the coordinate axes,
must agree bit for bit.  Symmetric laws, whose principal axes tie, check that
the projected grid does not turn with the order of atoms or channels.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mideriv.channel import (
    ChannelSpec,
    DiscreteJoint,
    expected_conditional_tau,
    gauss_hermite,
    mmse,
    mutual_information,
    _posterior_pass,
)
from mideriv.forms import SlotBinding


def _full_tensor(dist, spec, quad):
    v = dist.support * np.sqrt(spec.snr)
    D = 0.5 * ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
    Z, W = quad.tensor(dist.n)
    return dist.probs, np.log(dist.probs), D, (v - v.mean(axis=0)) @ Z.T, W


def oracle_mi(dist, spec, quad):
    return _posterior_pass(*_full_tensor(dist, spec, quad))


def _oracle_average(dist, spec, quad, values):
    return _posterior_pass(*_full_tensor(dist, spec, quad), values)


def oracle_mmse(dist, spec, quad, channel):
    col = dist.support[:, channel - 1]
    col2 = col * col

    def spread(w):
        mu = col @ w
        return col2 @ w - mu * mu

    return _oracle_average(dist, spec, quad, spread)


def oracle_tau2(dist, spec, quad, i, j):
    """-E[Cov(X_i, X_j | Y)**2] / 2, the centered order-2 form."""
    S = dist.support

    def form(w):
        mu = S.T @ w
        cov = ((S[:, i - 1][:, None] - mu[i - 1]) * (S[:, j - 1][:, None] - mu[j - 1]) * w).sum(axis=0)
        return -0.5 * cov * cov

    return _oracle_average(dist, spec, quad, form)


def _rank(support, snr):
    v = np.asarray(support) * np.sqrt(snr)
    return np.linalg.matrix_rank(v[1:] - v[0]) if len(v) > 1 else 0


COORD = st.integers(-2, 2).map(lambda k: k / 2)


def _rows(draw, atoms, width):
    return draw(st.lists(st.lists(COORD, min_size=width, max_size=width), min_size=atoms, max_size=atoms))


def _masses(draw, atoms):
    masses = draw(st.lists(st.integers(1, 9), min_size=atoms, max_size=atoms))
    return [m / sum(masses) for m in masses]


@st.composite
def deficient_laws(draw):
    """n = 2, 3 with at most n atoms, or with duplicated channel columns."""
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        atoms = draw(st.integers(1, n))
        support = _rows(draw, atoms, n)
    else:
        atoms = draw(st.integers(2, 5))
        width = draw(st.integers(1, n - 1))
        columns = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
        support = [[row[k] for k in columns] for row in _rows(draw, atoms, width)]
    snr = draw(st.lists(st.floats(0.05, 0.5), min_size=n, max_size=n))
    pair = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2)))
    return support, _masses(draw, atoms), snr, pair


@st.composite
def full_rank_laws(draw):
    n = draw(st.integers(1, 3))
    atoms = draw(st.integers(n + 1, 6))
    support = _rows(draw, atoms, n)
    snr = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    pair = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2)))
    return support, _masses(draw, atoms), snr, pair


@settings(max_examples=20, deadline=None)
@given(deficient_laws())
def test_rank_deficient_laws_match_full_tensor(law):
    # the projected axes carry the summed snr of the channels they merge,
    # so they need a higher order than the per-channel axes of the oracle;
    # both orders hold the worst law drawn here to about 2e-12
    support, probs, snr, (i, j) = law
    dist = DiscreteJoint(support, probs)
    spec = ChannelSpec(snr)
    assert _rank(dist.support, snr) < dist.n
    quad, full = gauss_hermite(128), gauss_hermite(64 if dist.n == 3 else 96)
    assert abs(mutual_information(dist, spec, quad) - oracle_mi(dist, spec, full)) < 1e-10
    for k in range(1, dist.n + 1):
        assert abs(mmse(dist, spec, channel=k, quad=quad) - oracle_mmse(dist, spec, full, k)) < 1e-10
    tau = expected_conditional_tau(dist, spec, SlotBinding((i, j)), quad=quad)
    assert abs(tau - oracle_tau2(dist, spec, full, i, j)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(full_rank_laws())
def test_full_rank_laws_are_bit_identical_to_full_tensor(law):
    support, probs, snr, (i, j) = law
    dist = DiscreteJoint(support, probs)
    assume(_rank(dist.support, snr) == dist.n)
    spec = ChannelSpec(snr)
    quad = gauss_hermite(16)
    assert mutual_information(dist, spec, quad) == oracle_mi(dist, spec, quad)
    for k in range(1, dist.n + 1):
        assert mmse(dist, spec, channel=k, quad=quad) == oracle_mmse(dist, spec, quad, k)
    tau = expected_conditional_tau(dist, spec, SlotBinding((i, j)), quad=quad)
    assert tau == oracle_tau2(dist, spec, quad, i, j)


SYMMETRIC_LAWS = [
    # a centered square (rank 2): its two principal axes tie, so the
    # atoms set them
    ([[0, 0, 0], [0, 1, 0], [0.5, 0.5, 0], [1, 0, 0], [1, 1, 0]], [0.2] * 5, (1.0, 1.0, 1.0)),
    # a regular tetrahedron on four channels (rank 3, three tied axes)
    ([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], [0.25] * 4, (1.0,) * 4),
    # an equilateral triangle (rank 2) with equal masses
    ([[0, 0, 0], [0, 1, 1], [1, 0, 1]], [1 / 3] * 3, (1.0, 1.0, 1.0)),
    # rank 3 on four channels: every axis projects the atoms symmetrically,
    # so only the joint sign pattern orients the turned 3-D grid
    ([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 1]], [0.25] * 4, (1.0,) * 4),
]


@pytest.mark.parametrize("support,probs,snr", SYMMETRIC_LAWS)
def test_projected_values_ignore_atom_and_channel_order(support, probs, snr):
    # order 16 leaves quadrature error near 1e-10, so a grid that turned
    # with the stored order of atoms or channels would show
    quad = gauss_hermite(16)
    base = mutual_information(DiscreteJoint(support, probs), ChannelSpec(snr), quad)
    atoms = len(support)
    atom_orders = [list(range(atoms)), list(range(atoms))[::-1], list(range(1, atoms)) + [0]]
    for perm in itertools.permutations(range(len(snr))):
        for order in atom_orders:
            dist = DiscreteJoint([[support[a][i] for i in perm] for a in order], [probs[a] for a in order])
            value = mutual_information(dist, ChannelSpec([snr[i] for i in perm]), quad)
            assert abs(value - base) <= 1e-12 * max(1.0, base)
