"""Quadrature, input laws, mutual information, and conditional forms."""
from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from mideriv import channel, closedform
from mideriv.channel import (
    DEFAULT_QUAD_ORDER,
    GRID_WEIGHT_FLOOR,
    MAX_ATOMS,
    MAX_GRID_ATOM_POINTS,
    MAX_QUAD_ORDER,
    MIN_QUAD_ORDER,
    ChannelSpec,
    DiscreteJoint,
    QuadratureRule,
    expected_conditional_tau,
    gauss_hermite,
    mmse,
    mutual_information,
    mutual_information_many,
    _difference_basis,
    _grid_parts,
    _orientation,
    _posterior_pass,
)
from mideriv.errors import DomainError, QuadratureUnderflowError, SizeLimitError, ValidationError
from mideriv.forms import SlotBinding, atoms_moment_oracle, tau_eval

TWO_POINT = DiscreteJoint([[1.0], [-1.0]], [0.5, 0.5])
PAIR = DiscreteJoint(
    [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
    [0.35, 0.15, 0.15, 0.35],
)


def test_rule_moments_and_bounds():
    for order in (16, 64, 129):
        rule = gauss_hermite(order)
        assert abs(rule.weights.sum() - 1.0) < 1e-13
        assert abs(rule.weights @ rule.nodes) < 1e-13
        assert abs(rule.weights @ rule.nodes**2 - 1.0) < 1e-12
        assert abs(rule.weights @ rule.nodes**3) < 1e-12
    with pytest.raises(DomainError):
        gauss_hermite(MIN_QUAD_ORDER - 1)
    with pytest.raises(DomainError):
        gauss_hermite(MAX_QUAD_ORDER + 1)


def test_rule_order_is_read_as_an_integer():
    # numpy integers are integers and share the cached rule; booleans
    # and floats are refused, not converted
    assert gauss_hermite(np.int64(64)) is gauss_hermite(64)
    assert gauss_hermite(np.int32(16)).order == 16
    for order in (True, 64.0, "64"):
        with pytest.raises(DomainError, match="^order: expected an integer"):
            gauss_hermite(order)


def _rule_parts(order=16):
    nodes, weights = hermegauss(order)
    return nodes, weights / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda x, w: (x[:-1], w[:-1]), "^nodes: expected 16 nodes and weights"),
        (lambda x, w: (x, np.where(np.arange(16) == 3, np.nan, w)), "^weights: non-finite entries"),
        (lambda x, w: (x, 2.0 * w), "^weights: sum"),
        (lambda x, w: (x + 0.1, w), "^nodes: odd moment of order 1"),
        (lambda x, w: (1.1 * x, w), "^nodes: second moment"),
    ],
    ids=["shape", "non-finite", "weight-sum", "odd-moment", "second-moment"],
)
def test_rule_refuses_what_does_not_integrate_like_a_standard_normal(change, message):
    nodes, weights = _rule_parts()
    QuadratureRule(16, nodes, weights)
    with pytest.raises(ValidationError, match=message):
        QuadratureRule(16, *change(nodes, weights))


def test_rules_and_grids_are_cached():
    assert gauss_hermite(64) is gauss_hermite(64)
    rule = gauss_hermite(32)
    assert rule.tensor(2)[0] is rule.tensor(2)[0]


def test_tensor_grid_is_lexicographic_with_product_weights():
    rule = gauss_hermite(16)
    Z, W = rule.tensor(2)
    order = len(rule.nodes)
    assert Z.shape == (order * order, 2)
    # first axis varies slowest
    assert np.allclose(Z[:order, 0], rule.nodes[0])
    assert np.allclose(Z[:order, 1], rule.nodes)
    assert abs(W.sum() - 1.0) < 1e-12
    with pytest.raises(SizeLimitError):
        rule.tensor(4)


def _unpruned_product_weights(weights, dim):
    """len(weights)**dim product weights, first axis varying slowest."""
    mesh = np.meshgrid(*([weights] * dim), indexing="ij")
    w = mesh[0]
    for m in mesh[1:]:
        w = w * m
    return w.ravel()


PRUNED_GRIDS = [
    (order, dim) for order in (16, 40, 64, 128, 300) for dim in (1, 2, 3) if order**dim <= 2**21
]


@pytest.mark.parametrize("order,dim", PRUNED_GRIDS)
def test_tensor_grid_keeps_exactly_the_points_above_the_weight_floor(order, dim):
    rule = gauss_hermite(order)
    Z, W = rule.tensor(dim)
    full = _unpruned_product_weights(rule.weights, dim)
    kept = full >= GRID_WEIGHT_FLOOR * full.max()
    # recover each point's per-axis indices: the kept set, in lexicographic order
    index = np.searchsorted(rule.nodes, Z)
    assert np.array_equal(rule.nodes[index], Z)
    flat = np.ravel_multi_index(tuple(index.T), (order,) * dim)
    assert np.array_equal(flat, np.flatnonzero(kept))
    assert np.array_equal(W, full[kept])
    if order == MIN_QUAD_ORDER:
        assert len(W) == order**dim
    assert full[~kept].sum() <= 1e-28
    assert abs(W.sum() - 1.0) <= 1e-13
    for axis in range(dim):
        assert abs(W @ Z[:, axis] ** 2 - 1.0) <= 1e-12


def _unpruned_pass(dist, spec, order, moments=None):
    """The posterior pass on the unpruned tensor rule over the same axes."""
    nodes, weights = hermegauss(order)
    ((_, logp, D, _, _),) = _grid_parts(dist, [spec.snr], gauss_hermite(order))
    v = dist.support * np.sqrt(spec.snr)
    ((_, U),) = _difference_basis(v[None], dist.probs)
    dim = U.shape[2]
    T = np.stack([m.ravel() for m in np.meshgrid(*([nodes] * dim), indexing="ij")], axis=1)
    W = _unpruned_product_weights(weights / math.sqrt(2.0 * math.pi), dim)
    return _posterior_pass(dist.probs, logp, D, ((v - v.mean(axis=0)) @ U[0] @ T.T)[None], W, moments)[0]


def _shifted(dist, *ids):
    """(A, A) atom function: the product of x_{b,i} - x_{a,i} over ids, at [a, b]."""
    S = dist.support
    f = np.ones((len(S), len(S)))
    for i in ids:
        f = f * (S[None, :, i - 1] - S[:, None, i - 1])
    return f


def test_pruned_grid_values_match_the_unpruned_rule():
    # the dropped points carry under 1e-29 of the weight, so only the
    # roundoff of the shorter sum separates the two rules
    for seed in range(24):
        rng = random.Random(seed)
        n = 1 + seed % 3
        atoms, probs = closedform.random_rational_joint(rng, n)
        dist = DiscreteJoint([[float(x) for x in a] for a in atoms], [float(p) for p in probs])
        spec = ChannelSpec([rng.uniform(0.1, 2.0) for _ in range(n)])
        # keep the unpruned rank-3 grid at order 64 (262,144 points)
        order = (16, 64, 128)[seed // 3 % 3]
        if n == 3 and len(atoms) > 3:
            order = min(order, 64)
        quad = gauss_hermite(order)
        # the conditional variance of X_1, and -Cov(X_i, X_j | Y)**2 / 2,
        # on moments shifted by each component's own atom
        spread = (np.stack([_shifted(dist, 1), _shifted(dist, 1, 1)]), lambda M: M[1] - M[0] * M[0])

        def tau2(i, j):
            phi = np.stack([_shifted(dist, i), _shifted(dist, j), _shifted(dist, i, j)])
            return phi, lambda M: -0.5 * (M[2] - M[0] * M[1]) ** 2

        checks = [
            (mutual_information(dist, spec, quad), _unpruned_pass(dist, spec, order)),
            (mmse(dist, spec, channel=1, quad=quad), _unpruned_pass(dist, spec, order, spread)),
        ]
        for i, j in ((1, 1), (1, 2))[:n]:
            checks.append(
                (
                    expected_conditional_tau(dist, spec, SlotBinding((i, j)), quad=quad),
                    _unpruned_pass(dist, spec, order, tau2(i, j)),
                )
            )
        for value, reference in checks:
            assert abs(value - reference) <= 4e-15 * abs(reference) + 1e-18


def test_joint_validation_names_fields():
    with pytest.raises(ValidationError, match="probs"):
        DiscreteJoint([[1.0], [-1.0]], [0.6, 0.6])
    with pytest.raises(ValidationError, match="probs"):
        DiscreteJoint([[1.0], [-1.0]], [1.5, -0.5])
    with pytest.raises(ValidationError, match="probs"):
        DiscreteJoint([[1.0], [-1.0]], [0.5])
    with pytest.raises(ValidationError, match="support"):
        DiscreteJoint([[1.0], [float("nan")]], [0.5, 0.5])
    with pytest.raises(ValidationError, match="support"):
        DiscreteJoint([], [])
    for support, probs, message in [
        ([[], []], [0.5, 0.5], "^support: points need at least one coordinate"),
        ([1.0, -1.0], [0.5, 0.5], r"^support: expected a 2-D array of points, got shape \(2,\)"),
        # ragged rows: numpy holds them as the entries of an object array
        ([[1.0], [1.0, 2.0]], [0.5, 0.5], r"^support: not a rectangular numeric array \(entry \[1\.0\]"),
        ([[1.0], [-1.0]], [0.5, [0.5]], "^probs: not a rectangular numeric array"),
        # nested arrays of unequal shapes: numpy cannot even hold them as objects
        ([np.zeros((2, 1)), np.zeros((2, 2))], [0.5, 0.5], "^support: not a rectangular numeric array"),
        ([[1.0], [-1.0]], [float("nan"), 0.5], "^probs: non-finite entries"),
        ([[1.0], [-1.0]], [0.5, float("inf")], "^probs: non-finite entries"),
        # refused by the unit-sum rule before the mass is looked at
        ([[1.0], [-1.0]], [0.0, 0.0], "^probs: sum 0.0 is not 1"),
    ]:
        with pytest.raises(ValidationError, match=message):
            DiscreteJoint(support, probs)


def test_joint_drops_zero_atoms_and_merges_duplicates():
    dist = DiscreteJoint([[1.0], [2.0], [1.0]], [0.25, 0.0, 0.75])
    assert dist.atom_count == 1
    assert dist.probs[0] == 1.0


def test_joint_merges_signed_zeros():
    dist = DiscreteJoint([[0.0], [-0.0], [1.0]], [0.25, 0.25, 0.5])
    assert dist.atom_count == 2
    assert abs(dist.entropy() - math.log(2)) < 1e-15


def test_joint_atom_limit():
    with pytest.raises(ValidationError, match="support"):
        DiscreteJoint([[float(i)] for i in range(65)], [1.0 / 65] * 65)


def test_joint_entropy_and_round_trip():
    assert abs(TWO_POINT.entropy() - math.log(2)) < 1e-15
    data = {"n": 2, "support": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], "probs": [0.35, 0.15, 0.15, 0.35]}
    dist = DiscreteJoint.from_dict(data)
    assert dist.n == 2
    assert dist.support.tolist() == data["support"]
    assert dist.probs.tolist() == data["probs"]
    data["n"] = 3
    with pytest.raises(ValidationError, match="^n: declared 3"):
        DiscreteJoint.from_dict(data)


def test_joint_from_dict_names_the_offending_field():
    good = {"n": 1, "support": [[1], [2]], "probs": [0.5, 0.5]}
    for key, value, field in [
        ("probs", ["a", "b"], "probs"),
        ("probs", [[0.5], [0.5, 0.0]], "probs"),
        ("probs", {"a": 1}, "probs"),
        ("support", [[1], [2, 3]], "support"),
        ("support", [["x"], [2]], "support"),
        ("n", True, "n"),
        ("n", 1.0, "n"),
        ("n", "1", "n"),
    ]:
        with pytest.raises(ValidationError, match=f"^{field}: "):
            DiscreteJoint.from_dict({**good, key: value})
    assert DiscreteJoint.from_dict(good).n == 1
    with pytest.raises(ValidationError, match="^distribution: expected a JSON object"):
        DiscreteJoint.from_dict([good])
    for key in good:
        with pytest.raises(ValidationError, match=f"^{key}: missing"):
            DiscreteJoint.from_dict({k: v for k, v in good.items() if k != key})


def test_channel_spec_validation():
    assert ChannelSpec((0.0, 1.5)).snr == (0.0, 1.5)
    with pytest.raises(ValidationError, match="snr"):
        ChannelSpec((-0.1,))
    with pytest.raises(ValidationError, match="snr"):
        ChannelSpec((float("inf"),))


def test_channel_spec_takes_real_numbers_only():
    # "12" once read as two channels (1.0, 2.0), and ("0.5", True) as (0.5, 1.0)
    for bad, entry in [("12", "1"), (("0.5", True), "0.5"), ((0.5, True), True), ((np.True_,), np.True_)]:
        with pytest.raises(ValidationError, match=rf"^snr: expected a real number, got {re.escape(repr(entry))}$"):
            ChannelSpec(bad)
    with pytest.raises(ValidationError, match="^snr: not a sequence of numbers"):
        ChannelSpec(0.5)
    spec = ChannelSpec((np.float64(0.5), np.int64(2), Fraction(1, 4)))
    assert spec.snr == (0.5, 2.0, 0.25)
    assert all(type(x) is float for x in spec.snr)


def test_joint_takes_real_numbers_only():
    # [["1"], ["-1"]] with ["0.5", "0.5"] once parsed to the two-point law,
    # and [[True], [False]] read as [[1.0], [0.0]]
    good_support, good_probs = [[1.0], [-1.0]], [0.5, 0.5]
    for support, probs, field in [
        ([["1"], ["-1"]], ["0.5", "0.5"], "support"),
        (good_support, ["0.5", "0.5"], "probs"),
        ([[True], [False]], good_probs, "support"),
        ([[1.0], [True]], good_probs, "support"),
        (np.array([[True], [False]]), good_probs, "support"),
        (good_support, [True, False], "probs"),
        (good_support, np.array(["0.5", "0.5"]), "probs"),
    ]:
        with pytest.raises(ValidationError, match=f"^{field}: expected a real number"):
            DiscreteJoint(support, probs)
        with pytest.raises(ValidationError, match=f"^{field}: expected a real number"):
            DiscreteJoint.from_dict({"n": 1, "support": support, "probs": probs})
    with pytest.raises(ValidationError, match="^support: "):
        DiscreteJoint([[1.0, 2.0], [1.0]], good_probs)
    exact = DiscreteJoint([[Fraction(1)], [np.int64(-1)]], [Fraction(1, 2), np.float64(0.5)])
    assert exact.support.tolist() == good_support and exact.probs.tolist() == good_probs


def test_tensor_cap_is_the_largest_turned_rank():
    # a rank with a turn onto the grid diagonals is a rank the grids take
    assert channel.MAX_TENSOR_DIM == max(channel._DIAGONALS) == 3


def test_mi_zero_snr_and_single_atom_are_zero():
    assert mutual_information(TWO_POINT, ChannelSpec((0.0,))) == 0.0
    point = DiscreteJoint([[2.0, -1.0]], [1.0])
    assert mutual_information(point, ChannelSpec((1.0, 2.0))) == 0.0


def test_mi_matches_closed_form_two_point():
    for lam, order, tol in [(0.25, 128, 1e-12), (1.0, 128, 1e-12), (4.0, 256, 1e-11)]:
        value = mutual_information(TWO_POINT, ChannelSpec((lam,)), gauss_hermite(order))
        assert abs(value - closedform.two_point_mi(lam)) < tol


def test_mi_is_monotone_and_bounded_by_entropy():
    quad = gauss_hermite(96)
    values = [
        mutual_information(TWO_POINT, ChannelSpec((lam,)), quad)
        for lam in (0.0, 0.3, 0.8, 1.5, 3.0)
    ]
    assert values == sorted(values)
    assert values[-1] < TWO_POINT.entropy()
    joint = mutual_information(PAIR, ChannelSpec((1.0, 2.0)), gauss_hermite(64))
    assert joint < PAIR.entropy()


def test_mi_additive_over_independent_channels():
    product = DiscreteJoint(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4
    )
    quad = gauss_hermite(64)
    joint = mutual_information(product, ChannelSpec((0.5, 0.9)), quad)
    split = mutual_information(TWO_POINT, ChannelSpec((0.5,)), quad) + mutual_information(
        TWO_POINT, ChannelSpec((0.9,)), quad
    )
    assert abs(joint - split) < 1e-12


def test_mi_dimension_guards():
    with pytest.raises(DomainError):
        mutual_information(PAIR, ChannelSpec((1.0,)))
    # five atoms in general position span four difference directions
    rank4 = DiscreteJoint(np.vstack([np.zeros(4), np.eye(4)]), [0.2] * 5)
    with pytest.raises(SizeLimitError):
        mutual_information(rank4, ChannelSpec((1.0,) * 4))
    # a duplicated signal spans one direction on any number of channels
    quad = gauss_hermite(128)
    for n in (4, 5):
        wide = DiscreteJoint([[1.0] * n, [-1.0] * n], [0.5, 0.5])
        spec = ChannelSpec(tuple(0.1 * (i + 1) for i in range(n)))
        value = mutual_information(wide, spec, quad)
        assert abs(value - closedform.two_point_mi(sum(spec.snr))) < 1e-12


def _orientation_reference(Y, probs):
    """The sign rule on one set: the first pattern whose sorted rows compare last."""
    Y = np.round(Y / np.abs(Y).max(), 10)
    best_key = best = None
    for signs in itertools.product((1.0, -1.0), repeat=Y.shape[1]):
        key = sorted(zip(map(tuple, Y * signs), probs))
        if best_key is None or key > best_key:
            best_key, best = key, signs
    return best


def test_stacked_orientation_is_the_sorted_key_rule():
    # half-integer coordinates and two masses make tied rows and tied
    # patterns common; the stacked rule must pick what the per-set loop picks
    rng = np.random.default_rng(3)
    for trial in range(200):
        atoms, r, sets = (int(k) for k in rng.integers(1, (9, 4, 6)))
        Y = rng.integers(-2, 3, size=(sets, atoms, r)) / 2
        Y[np.abs(Y).max(axis=(1, 2)) == 0] = 1.0
        probs = rng.integers(1, 3, size=atoms) / 1.0
        probs /= probs.sum()
        signs = _orientation(Y, probs)
        assert signs.shape == (sets, r)
        for y, got in zip(Y, signs):
            assert tuple(got) == _orientation_reference(y, probs)


def test_grid_size_limit_is_joint():
    # 64 atoms on a rank-3 span: 64 * 300**3 atom-points at order 300
    levels = np.array([-1.5, -0.5, 0.5, 1.5])
    cube = DiscreteJoint(np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1).T, [1 / 64] * 64)
    assert cube.atom_count == MAX_ATOMS
    quad = gauss_hermite(MAX_QUAD_ORDER)
    spec = ChannelSpec((0.1, 0.2, 0.3))
    for call in (
        lambda: mutual_information(cube, spec, quad),
        lambda: mmse(cube, spec, 1, quad),
        lambda: expected_conditional_tau(cube, spec, SlotBinding((1, 2)), quad=quad),
    ):
        with pytest.raises(SizeLimitError, match="atom-points"):
            call()
    assert 3 not in quad._grids  # raised before the grid was built
    # the limit still admits every atom count on a rank-3 span at the default order
    assert MAX_ATOMS * DEFAULT_QUAD_ORDER**3 <= MAX_GRID_ATOM_POINTS


def test_posterior_mean_matches_tanh():
    # the pass's conditional moment of x_b, the posterior mean, of the
    # two-point law at the output points y = sqrt(l) x_a + z of each
    # component, against tanh
    lam = 0.7
    quad = gauss_hermite(16)
    spec = ChannelSpec((lam,))
    col = TWO_POINT.support[:, 0]
    means = []

    def keep(M):
        means.append(M[0, 0].copy())
        return np.zeros(M.shape[2:])

    phi = np.broadcast_to(col, (1, 2, 2))
    ((_, *parts),) = _grid_parts(TWO_POINT, [spec.snr], quad)
    assert _posterior_pass(TWO_POINT.probs, *parts, (phi, keep)) == [0.0]
    for x, mu in zip(col, np.concatenate(means, axis=1)):
        y = math.sqrt(lam) * x + quad.nodes
        expected = [closedform.two_point_posterior_mean(lam, t) for t in y]
        assert np.abs(mu - expected).max() < 1e-14


def test_far_apart_atoms_keep_mi_at_entropy():
    # at GH 300 some grid points sit so far out that every logit there is
    # below -745, where exp underflows; max subtraction keeps them finite
    # and their product weight is 0.0, so mi is log 3 to roundoff
    far = DiscreteJoint([[40.0, 0.0], [0.0, 40.0], [-40.0, -40.0]], [1 / 3, 1 / 3, 1 / 3])
    spec = ChannelSpec((1.0, 1.0))
    for order in (64, 128, MAX_QUAD_ORDER):
        assert abs(mutual_information(far, spec, gauss_hermite(order)) - math.log(3)) < 1e-15
    assert 0.0 <= mmse(far, spec, 1, gauss_hermite(MAX_QUAD_ORDER)) < 1e-150
    # only differences of signals enter the pass: signals of 1e10, whose
    # energy 1e20 would round away the log masses, and atoms 2e200 apart,
    # whose half squared distance is +inf (the exact limit), give log 2
    # without a floating-point warning
    for support, lam in ((1e160, 1e-300), (1e200, 1.0)):
        dist = DiscreteJoint([[support], [-support]], [0.5, 0.5])
        assert abs(mutual_information(dist, ChannelSpec((lam,))) - math.log(2)) < 1e-15


def test_common_offset_leaves_mi_unchanged():
    # a shift shared by every atom cancels in the posterior; the grid
    # terms are built from centered signals, so it does not even round
    spec = ChannelSpec((1.0,))
    base = mutual_information(DiscreteJoint([[0.0], [1.0]], [0.5, 0.5]), spec)
    for off in (1e6, 1e8, 1e10, 1e14):
        shifted = DiscreteJoint([[off], [off + 1.0]], [0.5, 0.5])
        assert mutual_information(shifted, spec) == base


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_average_raises_underflow():
    huge = DiscreteJoint([[1e200], [-1e200]], [0.5, 0.5])
    assert abs(mutual_information(huge, ChannelSpec((1.0,))) - math.log(2)) < 1e-15
    # at snr 1e300 the signal sqrt(l) x overflows float64; at snr 1 mmse
    # still squares x, and x**2 overflows
    overflowing = ChannelSpec((1e300,))
    for call in (
        lambda: mutual_information(huge, overflowing),
        lambda: mmse(huge, ChannelSpec((1.0,))),
        lambda: expected_conditional_tau(huge, overflowing, SlotBinding((1, 1))),
    ):
        with pytest.raises(QuadratureUnderflowError, match="overflows float64"):
            call()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_batch_raises_what_its_one_point_call_raises():
    # the last row fails alone; with good rows of other ranks before it
    # the batch raises the same error, and the size limits fire before
    # any grid or stack is built
    nodes, weights = hermegauss(MAX_QUAD_ORDER)
    fresh = QuadratureRule(MAX_QUAD_ORDER, nodes, weights / math.sqrt(2.0 * math.pi))
    levels = np.array([-1.5, -0.5, 0.5, 1.5])
    cube = DiscreteJoint(np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1).T, [1 / 64] * 64)
    rank4 = DiscreteJoint(np.vstack([np.zeros(4), np.eye(4)]), [0.2] * 5)
    huge = DiscreteJoint([[1e200], [-1e200]], [0.5, 0.5])
    cases = [
        (rank4, [(0.0,) * 4, (1.0, 0.0, 0.0, 0.0), (1.0,) * 4], fresh, SizeLimitError, "4 dimensions"),
        (cube, [(0.1, 0.0, 0.0), (0.1, 0.2, 0.3)], fresh, SizeLimitError, "atom-points"),
        (huge, [(1.0,), (1e300,)], None, QuadratureUnderflowError, "overflows float64"),
        (PAIR, [(0.5, 0.9), (0.5, -1.0)], None, ValidationError, "entry 1"),
        (PAIR, [(0.5, 0.9), (0.5,)], None, DomainError, "1 channels"),
    ]
    for dist, rows, quad, error, match in cases:
        with pytest.raises(error, match=match) as one:
            mutual_information(dist, ChannelSpec(rows[-1]), quad)
        with pytest.raises(error) as many:
            mutual_information_many(dist, rows, quad)
        assert str(many.value) == str(one.value)
        assert fresh._grids == {}


def test_mmse_zero_snr_is_prior_variance():
    assert abs(mmse(TWO_POINT, ChannelSpec((0.0,))) - 1.0) < 1e-14
    tri = DiscreteJoint([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]], [0.25, 0.5, 0.25])
    value = mmse(tri, ChannelSpec((0.0, 0.0)), channel=2, quad=gauss_hermite(64))
    col = tri.support[:, 1]
    variance = tri.probs @ col**2 - (tri.probs @ col) ** 2
    assert abs(value - variance) < 1e-12


def test_mmse_matches_closed_form_and_decreases():
    # higher snr concentrates the integrand; 256 nodes covers lam=2
    quad = gauss_hermite(256)
    values = []
    for lam in (0.25, 0.5, 1.0, 2.0):
        value = mmse(TWO_POINT, ChannelSpec((lam,)), quad=quad)
        assert abs(value - closedform.two_point_mmse(lam)) < 1e-11
        values.append(value)
    assert values == sorted(values, reverse=True)


def test_posterior_pass_checks_its_inputs_once():
    # 8 nodes integrate like a standard normal, but sit below the minimum
    nodes, weights = hermegauss(8)
    coarse = QuadratureRule(8, nodes, weights / math.sqrt(2.0 * math.pi))
    calls = [
        lambda spec, quad: mutual_information(PAIR, spec, quad),
        lambda spec, quad: mmse(PAIR, spec, channel=2, quad=quad),
        lambda spec, quad: expected_conditional_tau(PAIR, spec, SlotBinding((1, 2)), quad=quad),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="snr has 1 channels but the distribution has 2"):
            call(ChannelSpec((1.0,)), None)
        with pytest.raises(DomainError, match="quadrature order 8 is below the minimum 16"):
            call(ChannelSpec((0.5, 0.9)), coarse)
        spec = ChannelSpec((0.5, 0.9))
        assert call(spec, None) == call(spec, gauss_hermite(DEFAULT_QUAD_ORDER))


def test_mmse_channel_index_guard():
    with pytest.raises(DomainError):
        mmse(PAIR, ChannelSpec((0.5, 0.9)), channel=3)
    with pytest.raises(DomainError):
        mmse(PAIR, ChannelSpec((0.5, 0.9)), channel=0)
    # checked as an integer, never indexed with or read as 1
    for bad in (1.5, "1", True):
        with pytest.raises(DomainError, match="channel"):
            mmse(PAIR, ChannelSpec((0.5, 0.9)), channel=bad)


def test_conditional_tau_refuses_one_slot_and_foreign_variables():
    # the one-slot full form -E[X|y]**2 / 2 is not translation-invariant,
    # so neither route, both taken about the own atom, evaluates it
    spec = ChannelSpec((0.5,))
    for centered in (True, False):
        with pytest.raises(DomainError, match="^conditional forms need at least two slots"):
            expected_conditional_tau(TWO_POINT, spec, SlotBinding((1,)), centered=centered)
        with pytest.raises(DomainError, match="^binding uses variable 2"):
            expected_conditional_tau(TWO_POINT, spec, SlotBinding((1, 2)), centered=centered)


def test_conditional_tau_matches_direct_second_moment_form():
    # E over Y of the 2-slot centered form must equal -1/2 E[M2^2],
    # with M2 the posterior central second moment; for +-1 inputs
    # M2 = 1 - tanh(sqrt(l) y)**2, on the same quadrature grid.
    spec = ChannelSpec((0.8,))
    quad = gauss_hermite(96)
    value = expected_conditional_tau(
        TWO_POINT, spec, SlotBinding((1, 1)), centered=True, quad=quad
    )
    sqrt_lam = math.sqrt(0.8)
    total = 0.0
    for x, px in ((1.0, 0.5), (-1.0, 0.5)):
        for z, w in zip(quad.nodes, quad.weights):
            mu = closedform.two_point_posterior_mean(0.8, sqrt_lam * x + z)
            m2 = 1.0 - mu * mu
            total += px * w * (-0.5) * m2 * m2
    assert abs(value - total) < 1e-12


def test_conditional_tau_at_zero_snr_is_the_exact_prior_form():
    # at snr 0 the posterior is the prior, so the grid evaluation must
    # match the exact rational form on the (centred) prior moments
    rng = random.Random(43)
    quad = gauss_hermite(16)
    bindings = [(1, 1), (1, 2), (1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)]
    for _ in range(20):
        atoms, probs = closedform.random_rational_joint(rng, 2)
        mean = [sum(p * a[i] for a, p in zip(atoms, probs)) for i in range(2)]
        centred = [tuple(a[i] - mean[i] for i in range(2)) for a in atoms]
        dist = DiscreteJoint([[float(x) for x in a] for a in atoms], [float(p) for p in probs])
        for variables in bindings:
            binding = SlotBinding(variables)
            for centered, support, mbs in ((True, centred, 2), (False, atoms, 1)):
                ref = float(tau_eval(binding, atoms_moment_oracle(support, probs), mbs))
                value = expected_conditional_tau(dist, ChannelSpec((0.0, 0.0)), binding, centered, quad)
                assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref)), (variables, centered)


def test_conditional_tau_centered_vs_uncentered():
    spec = ChannelSpec((0.5, 0.9))
    quad = gauss_hermite(64)
    binding = SlotBinding((1, 1, 2))
    a = expected_conditional_tau(PAIR, spec, binding, centered=True, quad=quad)
    b = expected_conditional_tau(PAIR, spec, binding, centered=False, quad=quad)
    assert abs(a - b) < 1e-11


def test_random_joints_have_exact_unit_mass():
    rng = random.Random(41)
    for _ in range(20):
        atoms, probs = closedform.random_rational_joint(rng, rng.randint(1, 3))
        assert sum(probs) == 1
        assert 1 <= len(atoms) <= 5
        assert all(-2 <= v <= 2 for atom in atoms for v in atom)
