"""Property tests of mutual information on small laws.

Laws have up to 2 channels and up to 4 atoms on the half-integer
coordinates of [-1, 1], with snr in [0.05, 1.5], on the order-64 rule.
Each property states its allowance next to the check.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from mideriv.channel import ChannelSpec, DiscreteJoint, gauss_hermite, mmse, mutual_information

QUAD = gauss_hermite(64)
# float64 roundoff of an mi value of order 1 summed over a few thousand
# grid points
ROUNDOFF = 1e-12
# central difference step in snr; its truncation error (h**2 / 6 times
# the third snr-derivative) stays near 1e-10 on these laws
STEP = 1e-4
# the order-64 mmse is off by up to about 1.4e-8 on these laws (against
# order 300), which dominates the difference between the two sides; the
# truncation error and the roundoff / STEP (about 1e-12) add far less
FD_ALLOWANCE = 1e-7


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
def test_mi_snr_derivative_is_half_mmse(law):
    dist, snr = law
    for i in range(len(snr)):
        up, down = list(snr), list(snr)
        up[i] += STEP
        down[i] -= STEP
        slope = (_mi(dist, up) - _mi(dist, down)) / (2 * STEP)
        half_mmse = mmse(dist, ChannelSpec(snr), channel=i + 1, quad=QUAD) / 2
        assert abs(slope - half_mmse) <= FD_ALLOWANCE
