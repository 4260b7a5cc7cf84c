"""Property tests of mutual information on small laws.

Laws have up to 2 channels and up to 4 atoms on the half-integer
coordinates of [-1, 1], with snr in [0.05, 1.5], on the order-64 rule
(the snr-derivative on the order-128 rule); the duplicated-signal laws have 2 to 6 atoms on those of [-2, 2], fed to
2 or 3 channels at snr in [0.05, 1] each; the translated laws have
their atoms on the integer coordinates of [-2, 2], on the order-32
rule.  Each property states its allowance next to the check.
"""
from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from mideriv.channel import (
    ChannelSpec,
    DiscreteJoint,
    expected_conditional_tau,
    gauss_hermite,
    mmse,
    mutual_information,
    _grid_parts,
    _posterior_pass,
)
from mideriv.forms import SlotBinding

QUAD = gauss_hermite(64)
FD_QUAD = gauss_hermite(128)
# float64 roundoff of an mi value of order 1 summed over a few thousand
# grid points
ROUNDOFF = 1e-12
# central difference step in snr; its truncation error (h**2 / 6 times
# the third snr-derivative) stays near 1e-10 on these laws
STEP = 1e-4
# both sides run on the order-128 rule.  Its mmse / 2 is off by up to
# about 2.1e-10 on these laws (against order 300), and the two sides
# differ by at most 4.7e-10 over 400 random laws, 2.2e-10 on the
# two-atom law of the example; the truncation error and the
# roundoff / STEP (about 1e-12) are of that size or less.  The order-64
# mmse is 1.8e-7 off on that law, more than this allowance.
FD_ALLOWANCE = 1e-7
# a duplicated signal and its one-channel law differ only in the rounding
# of the summed snr, the distances and the grid axis: 6.5e-15 relative at
# worst over 400 seeded laws
LEMMA2_RELATIVE = 1e-13
# a translation by up to 10 per coordinate moves each value only by the
# rounding of the shifted atoms: at most 4.0e-14 (relative, the
# uncentred form) over 1,200 seeded laws; moments about 0 once moved
# the uncentred form by 4.2e-9
TRANSLATION_RELATIVE = 1e-12


@st.composite
def small_laws(draw):
    n = draw(st.integers(1, 2))
    atoms = draw(st.integers(1, 4))
    coord = st.integers(-2, 2).map(lambda k: k / 2)
    support = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=atoms, max_size=atoms))
    masses = draw(st.lists(st.integers(1, 9), min_size=atoms, max_size=atoms))
    snr = draw(st.lists(st.floats(0.05, 1.5), min_size=n, max_size=n))
    return DiscreteJoint(support, [m / sum(masses) for m in masses]), snr


def _mi(dist, snr):
    return mutual_information(dist, ChannelSpec(snr), QUAD)


@settings(max_examples=40, deadline=None)
@given(small_laws())
def test_mi_lies_between_zero_and_input_entropy(law):
    dist, snr = law
    mi = _mi(dist, snr)
    assert -ROUNDOFF <= mi <= dist.entropy() + ROUNDOFF


@settings(max_examples=40, deadline=None)
@given(small_laws(), st.floats(0.01, 1.0))
def test_mi_never_decreases_in_any_snr(law, step):
    dist, snr = law
    mi = _mi(dist, snr)
    for i in range(len(snr)):
        raised = list(snr)
        raised[i] += step
        assert _mi(dist, raised) >= mi - ROUNDOFF


@settings(max_examples=40, deadline=None)
@given(small_laws())
@example(law=(DiscreteJoint([[1, -1], [-1, 1]], [0.5, 0.5]), [1.0, 1.0]))
def test_mi_snr_derivative_is_half_mmse(law):
    dist, snr = law
    for i in range(len(snr)):
        up, down = list(snr), list(snr)
        up[i] += STEP
        down[i] -= STEP
        mi_up = mutual_information(dist, ChannelSpec(up), FD_QUAD)
        mi_down = mutual_information(dist, ChannelSpec(down), FD_QUAD)
        slope = (mi_up - mi_down) / (2 * STEP)
        half_mmse = mmse(dist, ChannelSpec(snr), channel=i + 1, quad=FD_QUAD) / 2
        assert abs(slope - half_mmse) <= FD_ALLOWANCE


@st.composite
def duplicated_laws(draw):
    """A 1-D law fed to 2-3 channels at a random snr split."""
    coord = st.integers(-4, 4).map(lambda k: k / 2)
    xs = draw(st.lists(coord, min_size=2, max_size=6, unique=True))
    masses = draw(st.lists(st.integers(1, 9), min_size=len(xs), max_size=len(xs)))
    parts = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3))
    return xs, [m / sum(masses) for m in masses], parts


@settings(max_examples=40, deadline=None)
@given(duplicated_laws())
def test_duplicated_signal_is_one_channel_at_summed_snr(law):
    # Lemma 2: channels that carry one signal add their snrs
    xs, probs, parts = law
    dup = DiscreteJoint([[x] * len(parts) for x in xs], probs)
    one = DiscreteJoint([[x] for x in xs], probs)
    spec, summed = ChannelSpec(parts), ChannelSpec((sum(parts),))
    for value, reference in (
        (mutual_information(dup, spec, QUAD), mutual_information(one, summed, QUAD)),
        (mmse(dup, spec, channel=1, quad=QUAD), mmse(one, summed, channel=1, quad=QUAD)),
    ):
        assert abs(value - reference) <= LEMMA2_RELATIVE * reference


@settings(max_examples=40, deadline=None)
@given(small_laws(), st.integers(0, 3), st.integers(1, 9))
def test_mi_ignores_an_atom_split_into_identical_rows(law, pick, share):
    dist, snr = law
    k = pick % dist.atom_count
    p = dist.probs[k]
    support = np.vstack([dist.support, dist.support[k]])
    probs = np.append(dist.probs, p * (1 - share / 10))
    probs[k] = p * share / 10
    mi = _mi(dist, snr)
    # DiscreteJoint merges the two rows back into one atom
    assert abs(_mi(DiscreteJoint(support, probs), snr) - mi) <= ROUNDOFF
    # the posterior pass, handed both rows, weighs them as one atom
    ((_, logp, D, G, W),) = _grid_parts(dist, [snr], QUAD)
    rows = np.append(np.arange(dist.atom_count), k)
    (split,) = _posterior_pass(probs, np.log(probs), D[:, rows][:, :, rows], G[:, rows], W)
    assert abs(split - mi) <= ROUNDOFF


@st.composite
def translated_laws(draw):
    """A law on integer coordinates, a translation of it, and a 2-3 slot binding."""
    n = draw(st.integers(1, 2))
    atoms = draw(st.integers(1, 4))
    coord = st.integers(-2, 2)
    support = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=atoms, max_size=atoms))
    masses = draw(st.lists(st.integers(1, 9), min_size=atoms, max_size=atoms))
    snr = draw(st.lists(st.floats(0.05, 1.5), min_size=n, max_size=n))
    shift = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    variables = draw(st.lists(st.integers(1, n), min_size=2, max_size=3))
    probs = [m / sum(masses) for m in masses]
    moved = [[x + c for x, c in zip(atom, shift)] for atom in support]
    return DiscreteJoint(support, probs), DiscreteJoint(moved, probs), snr, SlotBinding(tuple(variables))


@settings(max_examples=40, deadline=None)
@given(translated_laws())
def test_values_ignore_a_translation_of_the_law(law):
    # mi and mmse read only differences and spreads; a conditional form of
    # two slots or more is translation-invariant like a cumulant
    dist, moved, snr, binding = law
    quad = gauss_hermite(32)
    spec = ChannelSpec(snr)
    for value in (
        lambda d: mutual_information(d, spec, quad),
        lambda d: mmse(d, spec, channel=1, quad=quad),
        lambda d: expected_conditional_tau(d, spec, binding, centered=True, quad=quad),
        lambda d: expected_conditional_tau(d, spec, binding, centered=False, quad=quad),
    ):
        reference = value(dist)
        assert abs(value(moved) - reference) <= TRANSLATION_RELATIVE * max(1.0, abs(reference))
