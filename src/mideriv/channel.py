"""Discrete-input parallel Gaussian channels evaluated by quadrature.

Channel i carries Y_i = sqrt(l_i) X_i + Z_i with independent standard
Gaussian noise Z_i and signal-to-noise ratio l_i >= 0.  Information is
measured in nats.  With signals v_b = sqrt(l) * x_b, the output of the
mixture component of atom a is y = v_a + z, and there the posterior
weight of atom b is proportional to

    p_b * exp(-|v_a - v_b|**2 / 2 + (v_b - v_a) . z)

so the posterior reads the signals only through their differences.  The
output enters only through the projections (v_b - v_a) . z, so every
integral against the standard Gaussian z runs on a tensor Gauss-Hermite
grid over an orthonormal basis of span{v_b - v_0}: r axes, r = rank <=
min(n, atoms - 1), whatever the channel count.  A full-rank span keeps
the n coordinate axes; otherwise the axes are the principal axes of the
atoms turned onto the grid diagonals.  A duplicated signal (r = 1) is
one channel at the summed snr.

Every value is one posterior pass, _posterior_pass: per mixture
component it builds the (A, P) logits of every atom at every grid
point, max-subtracts and exponentiates them once, and averages either
the log-likelihood ratio (mutual information) or a function of the
normalised posterior weights (mmse, conditional tau).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import (
    DomainError,
    QuadratureUnderflowError,
    SizeLimitError,
    ValidationError,
)
from .forms import MomentOracle, SlotBinding, tau_symbolic

MIN_QUAD_ORDER = 16
# hermegauss's weight recurrence overflows around order 320 and returns
# NaN weights; 300 is verified clean.
MAX_QUAD_ORDER = 300
DEFAULT_QUAD_ORDER = 64
MAX_ATOMS = 64
MAX_TENSOR_DIM = 3
# Joint cap on atoms * order**rank: G holds one float per atom and grid
# point.  2**24 (128 MB for G) still admits 64 atoms on a rank-3 span at
# the default order 64; 64 atoms on a rank-3 span at order 300 would
# need a 648 MB grid and a 13.8 GB G.
MAX_GRID_ATOM_POINTS = 2**24

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights integrating against the standard normal.

    Construct through :func:`gauss_hermite`; the initializer checks that
    the rule actually integrates like a standard normal (weights sum to
    1, odd moments vanish, unit second moment).
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    _grids: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValidationError(
                f"nodes: expected {self.order} nodes and weights, "
                f"got {nodes.shape} and {weights.shape}"
            )
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ValidationError("weights: non-finite entries")
        if abs(weights.sum() - 1.0) > 1e-13:
            raise ValidationError(f"weights: sum {weights.sum()!r} is not 1 within 1e-13")
        for k in (1, 3, 5):
            moment = float(weights @ nodes**k)
            if abs(moment) > 1e-13:
                raise ValidationError(f"nodes: odd moment of order {k} is {moment!r}")
        second = float(weights @ nodes**2)
        if abs(second - 1.0) > 1e-12:
            raise ValidationError(f"nodes: second moment {second!r} is not 1 within 1e-12")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def tensor(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Tensor grid: (order**dim, dim) points and product weights.

        Points run in lexicographic order of the per-axis indices; the
        grid is cached on the rule.
        """
        if not 1 <= dim <= MAX_TENSOR_DIM:
            raise SizeLimitError(f"dim={dim}: tensor grids support 1..{MAX_TENSOR_DIM}")
        if dim not in self._grids:
            mesh = np.meshgrid(*([self.nodes] * dim), indexing="ij")
            points = np.stack([m.ravel() for m in mesh], axis=1)
            w = self.weights
            for _ in range(dim - 1):
                w = (w[:, None] * self.weights[None, :]).ravel()
            points.flags.writeable = False
            w.flags.writeable = False
            self._grids[dim] = (points, w)
        return self._grids[dim]


_RULES: dict[int, QuadratureRule] = {}


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule renormalized to the standard normal weight."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise DomainError(f"order={order!r}: expected an integer")
    if not MIN_QUAD_ORDER <= order <= MAX_QUAD_ORDER:
        raise DomainError(
            f"order={order}: supported range is {MIN_QUAD_ORDER}..{MAX_QUAD_ORDER}"
        )
    if order not in _RULES:
        nodes, weights = hermegauss(order)
        _RULES[order] = QuadratureRule(order, nodes, weights / _SQRT_2PI)
    return _RULES[order]


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Finitely supported joint law of the channel input vector.

    Zero-probability atoms are dropped and duplicate support points are
    merged (masses summed) at construction; probabilities must be
    nonnegative and sum to 1 within 1e-12.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if support.ndim != 2:
            raise ValidationError(f"support: expected a 2-D array of points, got shape {support.shape}")
        if support.shape[1] < 1:
            raise ValidationError("support: points need at least one coordinate")
        if probs.ndim != 1 or probs.shape[0] != support.shape[0]:
            raise ValidationError(
                f"probs: length {probs.shape if probs.ndim != 1 else probs.shape[0]} "
                f"does not match {support.shape[0]} support points"
            )
        if not np.isfinite(support).all():
            raise ValidationError("support: non-finite entries")
        if not np.isfinite(probs).all():
            raise ValidationError("probs: non-finite entries")
        if (probs < 0).any():
            bad = int(np.argmin(probs))
            raise ValidationError(f"probs: negative mass {probs[bad]!r} at index {bad}")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probs: sum {total!r} is not 1 within 1e-12")
        merged: dict[bytes, int] = {}
        rows: list[np.ndarray] = []
        masses: list[float] = []
        # + 0.0 turns -0.0 into 0.0, so the byte keys merge signed zeros
        for row, p in zip(support + 0.0, probs):
            if p == 0.0:
                continue
            key = row.tobytes()
            if key in merged:
                masses[merged[key]] += p
            else:
                merged[key] = len(rows)
                rows.append(row)
                masses.append(float(p))
        if not rows:
            raise ValidationError("probs: all atoms have zero mass")
        if len(rows) > MAX_ATOMS:
            raise ValidationError(f"support: {len(rows)} atoms exceed the limit of {MAX_ATOMS}")
        support = np.array(rows)
        probs = np.array(masses)
        support.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        """Coordinate count (number of channels fed)."""
        return self.support.shape[1]

    @property
    def atom_count(self) -> int:
        return self.support.shape[0]

    def entropy(self) -> float:
        """Discrete entropy in nats, an upper bound for any channel output."""
        return float(-(self.probs * np.log(self.probs)).sum())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "support": [[float(x) for x in row] for row in self.support],
            "probs": [float(p) for p in self.probs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteJoint":
        if not isinstance(data, dict):
            raise ValidationError("distribution: expected a JSON object")
        for key in ("n", "support", "probs"):
            if key not in data:
                raise ValidationError(f"{key}: missing")
        try:
            dist = cls(np.asarray(data["support"], dtype=float), np.asarray(data["probs"], dtype=float))
        except ValueError as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"support: not a rectangular numeric array ({exc})") from exc
        declared = data["n"]
        if declared != dist.n:
            raise ValidationError(f"n: declared {declared} but support points have {dist.n} coordinates")
        return dist


@dataclass(frozen=True)
class ChannelSpec:
    """Per-channel signal-to-noise ratios."""

    snr: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            snr = tuple(float(x) for x in self.snr)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"snr: not a sequence of numbers ({exc})") from exc
        if not snr:
            raise ValidationError("snr: needs at least one channel")
        for i, lam in enumerate(snr):
            if not math.isfinite(lam) or lam < 0:
                raise ValidationError(f"snr: entry {i} is {lam!r}, expected a finite value >= 0")
        object.__setattr__(self, "snr", snr)

    @property
    def n(self) -> int:
        return len(self.snr)


def _check_dims(dist: DiscreteJoint, spec: ChannelSpec) -> None:
    if dist.n != spec.n:
        raise DomainError(
            f"snr has {spec.n} channels but the distribution has {dist.n} coordinates"
        )


def _resolve_quad(quad: QuadratureRule | None) -> QuadratureRule:
    if quad is None:
        return gauss_hermite(DEFAULT_QUAD_ORDER)
    if quad.order < MIN_QUAD_ORDER:
        raise DomainError(f"quadrature order {quad.order} is below the minimum {MIN_QUAD_ORDER}")
    return quad


# Inside the span the grid axes are the principal axes of the atoms,
# turned onto the diagonals of the grid: a tensor Gauss-Hermite rule
# converges fastest on a posterior transition that runs across all of
# its axes and slowest on one that runs along an axis.  Row k of a turn
# gives principal axis k in grid coordinates; for two and three axes
# every entry has a size between 1/3 and 1/sqrt(2).
_DIAGONALS = {
    1: np.ones((1, 1)),
    2: np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    3: np.array([[-1.0, 2.0, 2.0], [2.0, -1.0, 2.0], [2.0, 2.0, -1.0]]) / 3.0,
}
# Principal axes whose singular values are closer than this (relative to
# the largest) are the SVD's arbitrary choice, so they are set from the
# atoms instead.
_TIED_AXES = 1e-8


def _atom_frame(Y: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """(k, k) orthonormal frame for atoms with coordinates Y (A, k).

    Gram-Schmidt over the atoms taken farthest first, heavier first
    among equal distances, and in stored order after that.
    """
    dist2 = (Y * Y).sum(axis=1)
    order = np.lexsort((-probs, -np.round(dist2 / dist2.max(), 10)))
    frame: list[np.ndarray] = []
    for b in order:
        y = Y[b]
        for _ in range(2):
            for f in frame:
                y = y - (f @ y) * f
        norm = math.sqrt(y @ y)
        if norm > _TIED_AXES * math.sqrt(dist2.max()):
            frame.append(y / norm)
        if len(frame) == Y.shape[1]:
            break
    return np.array(frame).T


def _orientation(Y: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Axis signs (r,) for atom coordinates Y (A, r).

    Picks the sign pattern under which the atoms' (coordinates, mass)
    rows sort last; patterns that tie map the law onto itself.
    """
    Y = np.round(Y / np.abs(Y).max(), 10)
    best_key, best = None, None
    for signs in itertools.product((1.0, -1.0), repeat=Y.shape[1]):
        key = sorted(zip(map(tuple, Y * signs), probs))
        if best_key is None or key > best_key:
            best_key, best = key, np.array(signs)
    return best


def _difference_basis(v: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Orthonormal (n, r) grid axes spanning span{v_b - v_0}, r its rank.

    The rank and the span come from the SVD of v[1:] - v[0], at the
    default tolerance of np.linalg.matrix_rank; a rank above
    MAX_TENSOR_DIM raises SizeLimitError.  Rank n keeps the coordinate
    axes, and rank 0 (one atom, or zero snr) gets one null axis, on
    which every logit is flat.  Otherwise the axes are the principal
    axes of the centered atoms, with ties settled by _atom_frame and
    signs by _orientation, turned by _DIAGONALS.  They depend on the law, not on
    the order of its atoms or channels, so permuting either leaves every
    projected value unchanged.
    """
    n = v.shape[1]
    rank = 0
    if v.shape[0] > 1:
        diff = v[1:] - v[0]
        _, s, vt = np.linalg.svd(diff, full_matrices=False)
        rank = int((s > s.max() * max(diff.shape) * np.finfo(float).eps).sum())
    if rank > MAX_TENSOR_DIM:
        raise SizeLimitError(
            f"support differences span {rank} dimensions: "
            f"quadrature paths support rank 0..{MAX_TENSOR_DIM}"
        )
    if rank == 0:
        return np.zeros((n, 1))
    if rank == n:
        return np.eye(n)
    span = vt[:rank].T
    Y = (v - v.mean(axis=0)) @ span
    _, s, rt = np.linalg.svd(Y, full_matrices=False)
    R = rt.T
    start = 0
    for end in range(1, rank + 1):
        if end == rank or s[end - 1] - s[end] > _TIED_AXES * s[0]:
            if end - start > 1:
                R[:, start:end] = R[:, start:end] @ _atom_frame(Y @ R[:, start:end], probs)
            start = end
    R *= _orientation(Y @ R, probs)
    return span @ R @ _DIAGONALS[rank]


def _grid_parts(dist: DiscreteJoint, spec: ChannelSpec, quad: QuadratureRule):
    """Arguments of _posterior_pass on the projected grid: logp, D, G, W.

    With v = sqrt(l) * x, D[a, b] = |v_a - v_b|**2 / 2 and (v_b - v_a) . z
    are all the component of atom a needs; splitting z = U t + z_perp over
    the grid axes U of the difference span, z_perp drops out of every
    difference, so G = ((v - mean v) @ U) @ T.T on the tensor grid T with
    one axis per column of U; the mean cancels in G[b] - G[a], and taking
    it out keeps atoms far from 0 from rounding away their spread.  More
    than MAX_GRID_ATOM_POINTS atoms times grid points raise SizeLimitError
    before any grid is built.
    """
    v = dist.support * np.sqrt(spec.snr)
    # D reaches +inf only for atoms more than about 1e154 apart, and +inf
    # is then the exact limit: such atoms have posterior weight 0
    with np.errstate(over="ignore"):
        D = 0.5 * ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
    U = _difference_basis(v, dist.probs)
    axes = U.shape[1]
    size = dist.atom_count * quad.order**axes
    if size > MAX_GRID_ATOM_POINTS:
        raise SizeLimitError(
            f"{dist.atom_count} atoms on a rank-{axes} order-{quad.order} grid make "
            f"{size} atom-points: the limit is {MAX_GRID_ATOM_POINTS}"
        )
    T, W = quad.tensor(axes)
    return np.log(dist.probs), D, ((v - v.mean(axis=0)) @ U) @ T.T, W


def _posterior_pass(probs, logp, D, G, W, values=None) -> float:
    """Mixture average over the grid of one (P,) array per component.

    Layout, for A atoms on a P-point grid: probs and logp (A,) are the
    atom masses and their logs, D (A, A) the half squared distances
    |v_a - v_b|**2 / 2 between signals, G (A, P) the atom-grid terms
    v_b . z less any shift shared by all b, W (P,) the product weights.
    At grid point g of component a, where y = v_a + z, atom b has the
    log posterior weight logp[b] - D[a, b] + (G[b, g] - G[a, g]), up to
    normalisation: only differences of signals enter, so no term grows
    like |v|**2.
    G[b] - G[a] is formed before logp and D are added, so a large signal
    does not round away the log masses.  The logits are max-subtracted
    before exp, so every column sums to at least 1.

    With values None the array is the log-likelihood ratio
    log p(y|x_a) - log p(y) = -log sum_b exp(logit_b); otherwise it is
    values(w) for the (A, P) normalised posterior weights w.  Components
    are accumulated in atom order, so results are bit-stable run to run.

    Raises QuadratureUnderflowError when the average is not finite.
    """
    total = 0.0
    for a in range(probs.shape[0]):
        e = G - G[a]
        e += (logp - D[a])[:, None]
        mx = e.max(axis=0)
        e -= mx
        np.exp(e, out=e)
        s = e.sum(axis=0)
        if values is None:
            term = -(mx + np.log(s))
        else:
            e /= s
            term = values(e)
        total += probs[a] * float(W @ term)
    total = float(total)
    if not math.isfinite(total):
        raise QuadratureUnderflowError(
            f"posterior average is {total!r}: the support or snr overflows float64"
        )
    return total


def mutual_information(
    dist: DiscreteJoint, spec: ChannelSpec, quad: QuadratureRule | None = None
) -> float:
    """I(X; Y) in nats for the discrete input over the parallel channels.

    Averages log p(Y|x) - log p(Y) over the exact output mixture: for
    each atom the output law is a shifted copy of the base Gaussian, so
    the projected grid plus shift integrates it.  Likelihoods stay in log
    space through a max-subtracted log-sum-exp.

    Raises QuadratureUnderflowError when the average is not finite (a
    signal sqrt(l) x that overflows float64), and SizeLimitError when
    the support differences span more than MAX_TENSOR_DIM dimensions or
    the grid exceeds MAX_GRID_ATOM_POINTS.
    """
    _check_dims(dist, spec)
    return _posterior_pass(dist.probs, *_grid_parts(dist, spec, _resolve_quad(quad)))


def mmse(
    dist: DiscreteJoint,
    spec: ChannelSpec,
    channel: int = 1,
    quad: QuadratureRule | None = None,
) -> float:
    """E[(X_i - E[X_i|Y])**2] over the output mixture, i = channel.

    Lies in [0, Var(X_i)]; at zero snr the best estimate is the prior
    mean and the value is the prior variance.  A non-finite average
    raises QuadratureUnderflowError, as in mutual_information; here that
    also happens when x_i**2 overflows float64.
    """
    _check_dims(dist, spec)
    if not 1 <= channel <= dist.n:
        raise DomainError(f"channel {channel} leaves 1..{dist.n}")
    col = dist.support[:, channel - 1]
    col2 = col * col

    def spread(w):
        mu = col @ w
        return col2 @ w - mu * mu

    return _posterior_pass(dist.probs, *_grid_parts(dist, spec, _resolve_quad(quad)), spread)


def expected_conditional_tau(
    dist: DiscreteJoint,
    spec: ChannelSpec,
    binding: SlotBinding,
    centered: bool = True,
    quad: QuadratureRule | None = None,
) -> float:
    """Output average of the diverse-partition form of the posterior.

    With centered=True, evaluates the blocks-of-size->=-2 expansion on
    the conditionally centered coordinates X_i - E[X_i|Y]; with
    centered=False, the full expansion on raw coordinates.  The two
    agree (conditionally applied centering identity) whenever the slot
    count is at least 2; the centered path rejects a single slot, whose
    first-derivative content is carried by mmse/2 instead.

    Binding variable ids index channel coordinates.  At zero snr the
    posterior is the prior and the value is the unconditional form.  A
    non-finite average raises QuadratureUnderflowError, as in
    mutual_information.
    """
    _check_dims(dist, spec)
    if centered and binding.n < 2:
        raise DomainError(
            "centered path needs at least two slots; first-order content goes through mmse"
        )
    if max(binding.variables) > dist.n:
        raise DomainError(
            f"binding uses variable {max(binding.variables)} but the distribution has {dist.n} coordinates"
        )
    expansion = tau_symbolic(binding, 2 if centered else 1)
    S = dist.support
    blocks = sorted({b for mono, _ in expansion.terms for b in mono})
    if not centered:
        # (blocks, A) raw block products; raw @ w are the uncentered moments
        raw = np.ones((len(blocks), dist.atom_count))
        for bi, b in enumerate(blocks):
            for i in b:
                raw[bi] *= S[:, i - 1]

    def form(w):
        if centered:
            mu = S.T @ w  # (n, P) posterior means
            moments = {}
            for b in blocks:
                prod = np.ones_like(w)
                for i in b:
                    prod *= S[:, i - 1][:, None] - mu[i - 1]
                prod *= w
                moments[b] = prod.sum(axis=0)
        else:
            moments = dict(zip(blocks, raw @ w))
        return expansion.evaluate(MomentOracle(moments.__getitem__))

    return _posterior_pass(dist.probs, *_grid_parts(dist, spec, _resolve_quad(quad)), form)

