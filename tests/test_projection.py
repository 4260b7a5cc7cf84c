"""Projected quadrature against the full tensor grid.

The oracle rebuilds the pass arguments from the support on the rule's
n-axis tensor grid (`_full_tensor`), with no projection, and runs them
through the same posterior pass; that grid is pruned to the points
above the weight floor like every grid of the rule.  Rank-deficient laws must agree with
it at converged orders; full-rank laws, which keep the coordinate axes,
must agree bit for bit.  Symmetric laws, whose principal axes tie, check that
the projected grid does not turn with the order of atoms or channels.  A batch
of snr rows, grouped by rank and stacked, must give each row the bits of its
one-row call.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mideriv import channel
from mideriv.channel import (
    MAX_STACK_ELEMENTS,
    ChannelSpec,
    DiscreteJoint,
    expected_conditional_tau,
    gauss_hermite,
    mmse,
    mutual_information,
    mutual_information_many,
    _moment_form,
    _posterior_pass,
)
from mideriv.fd import fd_partial
from mideriv.forms import SlotBinding, SymbolicExpansion, tau_symbolic
from mideriv.verify import correlated_pair_input, default_derivative_cases


def _full_tensor(dist, spec, quad):
    v = dist.support * np.sqrt(spec.snr)
    D = 0.5 * ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
    Z, W = quad.tensor(dist.n)
    return dist.probs, np.log(dist.probs), D[None], ((v - v.mean(axis=0)) @ Z.T)[None], W


def oracle_mi(dist, spec, quad):
    return _posterior_pass(*_full_tensor(dist, spec, quad))[0]


def _oracle_average(dist, spec, quad, expansion, centered=True):
    """The pass of an expansion's conditional moments on the full tensor grid."""
    moments = _moment_form(dist.support, expansion, centered)
    return _posterior_pass(*_full_tensor(dist, spec, quad), moments)[0]


def oracle_mmse(dist, spec, quad, channel):
    """The centred (channel, channel) block: the conditional variance."""
    return _oracle_average(dist, spec, quad, SymbolicExpansion(((((channel, channel),), 1),)))


def oracle_tau2(dist, spec, quad, i, j):
    """-E[Cov(X_i, X_j | Y)**2] / 2, the centered order-2 form."""
    return _oracle_average(dist, spec, quad, tau_symbolic(SlotBinding((i, j)), 2))


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


def _stencil_points(orders, point):
    """The distinct snr points that fd_partial asks for at a partial."""
    points = []
    fd_partial(lambda xs: points.extend(xs) or [0.0] * len(xs), orders, point)
    return points


def _batch_laws():
    """(law, snr rows, quadrature order): every grid rank and row mix."""
    pair = correlated_pair_input()
    triple = next(case.dist for case in default_derivative_cases(7) if case.name == "triple")
    line = DiscreteJoint([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [0.5, 0.5, 0.5]], [0.3, 0.3, 0.4])
    cases = [
        # rank 0: one atom, and any law at zero snr
        (DiscreteJoint([[0.3, -1.2]], [1.0]), [(0.5, 0.9), (0.0, 0.0), (2.0, 0.1)], 16),
        (pair, [(0.0, 0.0), (0.0, 0.0)], 16),
        # rank 1: duplicated coordinates
        (line, [(0.1, 0.2, 0.3), (0.3, 0.2, 0.1), (1.0, 0.0, 0.5)], 16),
        # rank 2: the seed-7 triple law of the battery, on its rule, at
        # every 16th point of its d(1,1,1) stencil
        (triple, _stencil_points((1, 1, 1), (0.3, 0.5, 0.7))[::16], 128),
        # rank 2: three atoms on two channels, the triple law's grid shape
        # on the coordinate axes
        (DiscreteJoint([[1.0, 0.5], [-0.5, 1.0], [-0.5, -1.5]], [0.25, 0.35, 0.4]), [(0.4, 0.8), (1.5, 0.3)], 64),
        # rank 3 on three and on four channels
        (DiscreteJoint([[0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 1], [1, 1, 1]], [0.1, 0.2, 0.3, 0.15, 0.25]),
         [(0.2, 0.4, 0.6), (1.0, 0.5, 0.25)], 16),
        (DiscreteJoint([[0, 0, 0, 1], [1, 0, 0, 1], [0, 2, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]], [0.1, 0.2, 0.3, 0.15, 0.25]),
         [(0.2, 0.4, 0.6, 0.8), (1.0, 0.5, 0.25, 0.0)], 16),
        # rows of different ranks: the pair law at (0.5, 0.0) is rank 1
        (pair, [(0.5, 0.0), (0.5, 0.9), (0.0, 0.0), (0.0, 0.9), (0.5, 0.9)], 64),
    ]
    # the tied-axis laws, at their snr, doubled, and reversed
    for support, probs, snr in SYMMETRIC_LAWS:
        rows = [tuple(snr), tuple(2 * x for x in snr), tuple(0.1 * (i + 1) for i in range(len(snr)))[::-1]]
        cases.append((DiscreteJoint(support, probs), rows, 16))
    return cases


@pytest.mark.parametrize("budget", [1, MAX_STACK_ELEMENTS, 2**24])
def test_batches_give_the_bits_of_one_row_calls(budget, monkeypatch):
    # a budget of 1 puts every row in a stack of its own, 2**24 puts
    # each rank's rows in one stack
    monkeypatch.setattr(channel, "MAX_STACK_ELEMENTS", budget)
    for dist, rows, order in _batch_laws():
        quad = gauss_hermite(order)
        batch = mutual_information_many(dist, rows, quad)
        single = np.array([mutual_information(dist, ChannelSpec(snr), quad) for snr in rows])
        assert batch.shape == (len(rows),)
        assert batch.tobytes() == single.tobytes()
