"""Discrete-input parallel Gaussian channels evaluated by quadrature.

Channel i carries Y_i = sqrt(l_i) X_i + Z_i with independent standard
Gaussian noise Z_i and signal-to-noise ratio l_i >= 0.  All output
integrals are taken against the standard Gaussian base measure on a
tensor Gauss-Hermite grid, under which the log likelihood of input atom
x at output y is

    sum_i sqrt(l_i) y_i x_i - l_i x_i**2 / 2

up to an x-free term that cancels from every posterior and every
likelihood ratio.  Information is measured in nats.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from ._kernels import LOG_FLOOR, mi_accumulate, posterior_weights
from .errors import (
    DomainError,
    QuadratureUnderflowError,
    SizeLimitError,
    ValidationError,
)
from .forms import SlotBinding, tau_symbolic

MIN_QUAD_ORDER = 16
# hermegauss's weight recurrence overflows around order 320 and returns
# NaN weights; 300 is verified clean.
MAX_QUAD_ORDER = 300
DEFAULT_QUAD_ORDER = 64
QUAD_ORDER_ENV = "MIDERIV_QUAD_ORDER"
MAX_ATOMS = 64
MAX_TENSOR_DIM = 3

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def default_quad_order() -> int:
    """Default per-axis order, overridable via MIDERIV_QUAD_ORDER."""
    raw = os.environ.get(QUAD_ORDER_ENV)
    if raw is None or raw.strip() == "":
        return DEFAULT_QUAD_ORDER
    try:
        order = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{QUAD_ORDER_ENV}: {raw!r} is not an integer") from exc
    if not MIN_QUAD_ORDER <= order <= MAX_QUAD_ORDER:
        raise ValidationError(
            f"{QUAD_ORDER_ENV}: {order} outside {MIN_QUAD_ORDER}..{MAX_QUAD_ORDER}"
        )
    return order


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

    def prior_moment(self, block) -> float:
        """E of the product over block (1-based coordinate ids, repeats ok)."""
        ids = tuple(sorted(int(i) for i in block))
        if not ids:
            return 1.0
        if ids[0] < 1 or ids[-1] > self.n:
            raise DomainError(f"block {ids} leaves coordinates 1..{self.n}")
        prod = np.ones(self.atom_count)
        for i in ids:
            prod = prod * self.support[:, i - 1]
        return float(self.probs @ prod)

    def variance(self, channel: int) -> float:
        m1 = self.prior_moment((channel,))
        return self.prior_moment((channel, channel)) - m1 * m1

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
    if dist.n > MAX_TENSOR_DIM:
        raise SizeLimitError(
            f"{dist.n} coordinates: quadrature paths support 1..{MAX_TENSOR_DIM}"
        )


def _resolve_quad(quad: QuadratureRule | None) -> QuadratureRule:
    if quad is None:
        return gauss_hermite(default_quad_order())
    if quad.order < MIN_QUAD_ORDER:
        raise DomainError(f"quadrature order {quad.order} is below the minimum {MIN_QUAD_ORDER}")
    return quad


def _lik_parts(dist: DiscreteJoint, spec: ChannelSpec):
    lam = np.array(spec.snr)
    S = dist.support
    M = S @ (lam * S).T
    v = S * np.sqrt(lam)
    c = 0.5 * (lam * S**2).sum(axis=1)
    logp = np.log(dist.probs)
    return S, M, v, c, logp


_UNDERFLOW = f"all posterior terms below exp({LOG_FLOOR}) at some grid point"


def _grid_parts(dist: DiscreteJoint, spec: ChannelSpec, quad: QuadratureRule):
    """Kernel arguments on the tensor grid: M, (A, P) G, c, logp, W."""
    _, M, v, c, logp = _lik_parts(dist, spec)
    Z, W = quad.tensor(dist.n)
    return M, v @ Z.T, c, logp, W


def _posterior_average(dist: DiscreteJoint, spec: ChannelSpec, quad: QuadratureRule, values) -> float:
    """Output average of values(w), a (P,) array per mixture component.

    w holds the (A, P) posterior atom weights on the grid shifted to the
    component's atom; components are averaged with their masses.
    """
    M, G, c, logp, W = _grid_parts(dist, spec, quad)
    total = 0.0
    for a in range(dist.atom_count):
        w, under = posterior_weights(logp, M[a], G, c)
        if under:
            raise QuadratureUnderflowError(_UNDERFLOW)
        total += dist.probs[a] * float(W @ values(w))
    return float(total)


def mutual_information(
    dist: DiscreteJoint, spec: ChannelSpec, quad: QuadratureRule | None = None
) -> float:
    """I(X; Y) in nats for the discrete input over the parallel channels.

    Averages log p(Y|x) - log p(Y) over the exact output mixture: for
    each atom the output law is a shifted copy of the base Gaussian, so
    the tensor grid plus shift integrates it.  Likelihoods stay in log
    space through a max-subtracted log-sum-exp.

    Raises QuadratureUnderflowError when some grid point has every
    posterior term below the log floor (exp underflows to zero).
    """
    _check_dims(dist, spec)
    M, G, c, logp, W = _grid_parts(dist, spec, _resolve_quad(quad))
    value, under = mi_accumulate(dist.probs, logp, M, G, c, W)
    if under:
        raise QuadratureUnderflowError(_UNDERFLOW)
    return float(value)


def posterior_moment(dist: DiscreteJoint, spec: ChannelSpec, y, block) -> float:
    """E of the product over block given the output vector y.

    block holds 1-based coordinate ids with repeats; the empty block is
    1 for every y.  Weights are computed in log space and normalized
    after subtracting the largest logit, so they cannot all underflow;
    a non-finite result (from a non-finite y) raises
    QuadratureUnderflowError.
    """
    _check_dims(dist, spec)
    y = np.asarray(y, dtype=float)
    if y.shape != (dist.n,):
        raise DomainError(f"y has shape {y.shape}, expected ({dist.n},)")
    ids = tuple(sorted(int(i) for i in block))
    if ids and (ids[0] < 1 or ids[-1] > dist.n):
        raise DomainError(f"block {ids} leaves coordinates 1..{dist.n}")
    if not ids:
        return 1.0
    S, _, v, c, logp = _lik_parts(dist, spec)
    logits = logp + v @ y - c
    with np.errstate(invalid="ignore"):
        w = np.exp(logits - logits.max())
        w /= w.sum()
    prod = np.ones(dist.atom_count)
    for i in ids:
        prod = prod * S[:, i - 1]
    value = float(w @ prod)
    if not math.isfinite(value):
        raise QuadratureUnderflowError(f"posterior weights are not finite at y={y.tolist()}")
    return value


def mmse(
    dist: DiscreteJoint,
    spec: ChannelSpec,
    channel: int = 1,
    quad: QuadratureRule | None = None,
) -> float:
    """E[(X_i - E[X_i|Y])**2] over the output mixture, i = channel.

    Lies in [0, Var(X_i)]; at zero snr the best estimate is the prior
    mean and the value is the prior variance.
    """
    _check_dims(dist, spec)
    if not 1 <= channel <= dist.n:
        raise DomainError(f"channel {channel} leaves 1..{dist.n}")
    col = dist.support[:, channel - 1]
    col2 = col * col

    def spread(w):
        mu = col @ w
        return col2 @ w - mu * mu

    return _posterior_average(dist, spec, _resolve_quad(quad), spread)


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
    posterior is the prior and the value is the unconditional form.
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
    if not expansion.terms:
        return 0.0
    S = dist.support
    blocks = sorted({b for mono, _ in expansion.terms for b in mono})
    bindex = {b: i for i, b in enumerate(blocks)}
    # (blocks, A) raw block products; raw @ w are the uncentered moments
    raw = np.ones((len(blocks), dist.atom_count))
    for bi, b in enumerate(blocks):
        for i in b:
            raw[bi] *= S[:, i - 1]

    def form(w):
        if centered:
            mu = S.T @ w  # (n, P) posterior means
            moments = np.empty((len(blocks), w.shape[1]))
            for bi, b in enumerate(blocks):
                prod = np.ones_like(w)
                for i in b:
                    prod *= S[:, i - 1][:, None] - mu[i - 1]
                prod *= w
                moments[bi] = prod.sum(axis=0)
        else:
            moments = raw @ w
        values = np.zeros(w.shape[1])
        for mono, coeff in expansion.terms:
            term = np.full(w.shape[1], float(coeff))
            for b in mono:
                term *= moments[bindex[b]]
            values += term
        return values

    return _posterior_average(dist, spec, _resolve_quad(quad), form)


def combine_channels(
    dist: DiscreteJoint, spec: ChannelSpec, groups: list[list[int]] | None = None
) -> tuple[DiscreteJoint, ChannelSpec]:
    """Merge coordinates declared to carry the same signal; sum their snrs.

    groups lists 1-based coordinate ids; ids absent from every group stay
    as singleton channels.  Coordinates inside one group must have
    identical support columns (this is what "same signal" means), else a
    DomainError.  Passing no groups returns an equivalent single-channel
    grouping of nothing, i.e. the identity.

    The reduced problem carries the same mutual information: the output
    family only enters through the sufficient statistic
    sum_i sqrt(l_i) Y_i per group, a single Gaussian channel at the
    summed snr.
    """
    _check_dims(dist, spec)
    if groups is None:
        groups = []
    seen: set[int] = set()
    norm_groups: list[list[int]] = []
    for gi, group in enumerate(groups):
        ids = [int(i) for i in group]
        if not ids:
            raise ValidationError(f"groups[{gi}]: empty group")
        for i in ids:
            if not 1 <= i <= dist.n:
                raise ValidationError(f"groups[{gi}]: coordinate {i} leaves 1..{dist.n}")
            if i in seen:
                raise ValidationError(f"groups[{gi}]: coordinate {i} appears twice")
            seen.add(i)
        norm_groups.append(sorted(ids))
    for i in range(1, dist.n + 1):
        if i not in seen:
            norm_groups.append([i])
    norm_groups.sort(key=lambda g: g[0])
    for group in norm_groups:
        first = dist.support[:, group[0] - 1]
        for i in group[1:]:
            if not np.array_equal(first, dist.support[:, i - 1]):
                raise DomainError(
                    f"coordinates {group} declared duplicate but columns "
                    f"{group[0]} and {i} differ in the support"
                )
    cols = [g[0] - 1 for g in norm_groups]
    new_support = dist.support[:, cols]
    new_snr = tuple(sum(spec.snr[i - 1] for i in g) for g in norm_groups)
    return DiscreteJoint(new_support, dist.probs), ChannelSpec(new_snr)
