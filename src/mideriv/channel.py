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
one channel at the summed snr.  The grid is pruned: it keeps only the
points whose product weight is at least GRID_WEIGHT_FLOOR = 1e-30 times
the largest, and the points it drops carry less than 1e-29 of the
weight.

Every value is one posterior pass, _posterior_pass: per mixture
component it builds the (A, P) logits of every atom at every grid
point, max-subtracts and exponentiates them once, and averages either
the log-likelihood ratio (mutual information) or a function of the
normalised posterior weights (mmse, conditional tau).

The pass runs on stacks of signal sets, one set per snr row of one law.
mutual_information_many takes many rows at once: their grid axes come
from batched SVDs, rows of one rank share a grid, and each stack of at
most MAX_STACK_ELEMENTS floats per array goes through the pass together.
Every row's value has the bits of its one-row call, which is what
mutual_information, mmse and expected_conditional_tau make.
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
    integer,
)
from .forms import MomentOracle, SlotBinding, tau_symbolic

MIN_QUAD_ORDER = 16
# hermegauss's weight recurrence overflows around order 320 and returns
# NaN weights; 300 is verified clean.
MAX_QUAD_ORDER = 300
DEFAULT_QUAD_ORDER = 64
MAX_ATOMS = 64
MAX_TENSOR_DIM = 3
# Joint cap on atoms * order**rank, counted on the unpruned grid so the
# limits do not depend on GRID_WEIGHT_FLOOR: G holds one float per atom
# and grid point.  2**24 (128 MB for G) still admits 64 atoms on a
# rank-3 span at the default order 64; 64 atoms on a rank-3 span at
# order 300 would need a 648 MB grid and a 13.8 GB G.
MAX_GRID_ATOM_POINTS = 2**24
# A batch of snr rows goes through the posterior pass in stacks of at
# most this many floats per (S, A, P) grid array and (S, A, A, n)
# distance array; a row over the cap is a stack of its own.
MAX_STACK_ELEMENTS = 2**15
# Tensor grids keep only points whose product weight is at least this
# times the largest (a pruned Gauss-Hermite rule).  On every grid the
# size guard admits the dropped points carry less than 1e-29 of the
# weight (8.7e-30 at worst, order 131 on three axes), and on any grid
# point |llr| <= max(|z|**2 / 2, log 1/p_min), so an mi value moves by
# at most that bound times the dropped weight: far below float64
# roundoff of the kept sum.
GRID_WEIGHT_FLOOR = 1e-30

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
        """Pruned tensor grid: (P, dim) points and product weights.

        Of the order**dim tensor points only those whose product weight
        is at least GRID_WEIGHT_FLOOR times the largest are kept, still
        in lexicographic order of the per-axis indices; the dropped
        points carry less than 1e-29 of the weight on every grid the
        size guard admits.  The grid is cached on the rule.
        """
        if not 1 <= dim <= MAX_TENSOR_DIM:
            raise SizeLimitError(f"dim={dim}: tensor grids support 1..{MAX_TENSOR_DIM}")
        if dim not in self._grids:
            w = self.weights
            for _ in range(dim - 1):
                w = (w[:, None] * self.weights[None, :]).ravel()
            keep = np.flatnonzero(w >= GRID_WEIGHT_FLOOR * w.max())
            axes = np.unravel_index(keep, (self.order,) * dim)
            points = np.stack([self.nodes[i] for i in axes], axis=1)
            w = w[keep]
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
        keep = probs != 0.0
        if not keep.any():
            raise ValidationError("probs: all atoms have zero mass")
        # + 0.0 turns -0.0 into 0.0, so signed zeros merge; merged points
        # keep the order of their first occurrence and add their masses
        # in input order
        rows, first, inverse = np.unique(
            support[keep] + 0.0, axis=0, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        if len(order) > MAX_ATOMS:
            raise ValidationError(f"support: {len(order)} atoms exceed the limit of {MAX_ATOMS}")
        support = rows[order]
        probs = np.bincount(inverse, weights=probs[keep])[order]
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

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteJoint":
        if not isinstance(data, dict):
            raise ValidationError("distribution: expected a JSON object")
        for key in ("n", "support", "probs"):
            if key not in data:
                raise ValidationError(f"{key}: missing")
        declared = integer(data["n"], ValidationError, "n")
        try:
            support = np.asarray(data["support"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"support: not a rectangular numeric array ({exc})") from exc
        try:
            probs = np.asarray(data["probs"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"probs: not a numeric array ({exc})") from exc
        dist = cls(support, probs)
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
# Every sign pattern of r grid axes, in itertools.product order.
_SIGN_PATTERNS = {r: np.array(list(itertools.product((1.0, -1.0), repeat=r))) for r in _DIAGONALS}
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
    """Axis signs (S, r) for stacked atom coordinates Y (S, A, r).

    Per set, picks the sign pattern under which the atoms' (coordinates,
    mass) rows sort last, the first such pattern in
    itertools.product((1, -1), ...) order; patterns that tie map the law
    onto itself.
    """
    S, A, r = Y.shape
    Y = np.round(Y / np.abs(Y).max(axis=(1, 2), keepdims=True), 10)
    signs = _SIGN_PATTERNS[r]
    K = len(signs)
    # (S, K, A, r + 1): each atom's (coordinates, mass) row under every
    # pattern; lexsort takes its last key as the first, so the columns go
    # in reversed
    rows = np.concatenate(
        [Y[:, None] * signs[:, None, :], np.broadcast_to(probs[:, None], (S, K, A, 1))], axis=3
    )
    order = np.lexsort(rows[..., ::-1].transpose(3, 0, 1, 2), axis=-1)
    # (S, K, A * (r + 1)): each pattern's rows in ascending order, flattened
    keys = np.take_along_axis(rows, order[..., None], axis=2).reshape(S, K, -1)
    # sorted last on the keys, then on -k so the first of a tie wins
    first = np.broadcast_to(-np.arange(K), (S, K))
    best = np.lexsort(np.concatenate([first[None], keys[..., ::-1].transpose(2, 0, 1)]), axis=-1)[:, -1]
    return signs[best]


def _difference_basis(v: np.ndarray, probs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Grid axes of a stack v (S, A, n) of signal sets, grouped by rank.

    Returns [(rows, U)], one entry per rank r present in ascending order:
    the indices of the sets of that rank and their orthonormal axes U
    (len(rows), n, max(r, 1)) spanning span{v_b - v_0}.  The rank and
    the span come from the SVD of v[1:] - v[0], at the default tolerance
    of np.linalg.matrix_rank; a rank above MAX_TENSOR_DIM raises
    SizeLimitError.  Rank n keeps the coordinate axes, and rank 0 (one
    atom, or zero snr) gets one null axis, on which every logit is flat.
    Otherwise the axes are the principal axes of the centered atoms, with
    ties settled by _atom_frame and signs by _orientation, turned by
    _DIAGONALS.  They depend on the law, not on the order of its atoms
    or channels, so permuting either leaves every projected value
    unchanged.  Every set gets the axes it would get alone.
    """
    S, A, n = v.shape
    ranks = np.zeros(S, dtype=int)
    if A > 1:
        diff = v[:, 1:] - v[:, :1]
        _, s, vt = np.linalg.svd(diff, full_matrices=False)
        ranks = (s > s.max(axis=1, keepdims=True) * max(A - 1, n) * np.finfo(float).eps).sum(axis=1)
    over = np.flatnonzero(ranks > MAX_TENSOR_DIM)
    if len(over):
        raise SizeLimitError(
            f"support differences span {ranks[over[0]]} dimensions: "
            f"quadrature paths support rank 0..{MAX_TENSOR_DIM}"
        )
    groups = []
    for rank in np.unique(ranks).tolist():
        rows = np.flatnonzero(ranks == rank)
        if rank == 0:
            U = np.zeros((len(rows), n, 1))
        elif rank == n:
            U = np.broadcast_to(np.eye(n), (len(rows), n, n))
        else:
            span = vt[rows, :rank].transpose(0, 2, 1)
            w = v[rows]
            Y = (w - w.mean(axis=1, keepdims=True)) @ span
            _, s, rt = np.linalg.svd(Y, full_matrices=False)
            R = rt.transpose(0, 2, 1)
            tied = ~(s[:, :-1] - s[:, 1:] > _TIED_AXES * s[:, :1])
            for i in np.flatnonzero(tied.any(axis=1)):
                Ri, start = R[i], 0
                for end in range(1, rank + 1):
                    if end == rank or not tied[i, end - 1]:
                        if end - start > 1:
                            Ri[:, start:end] = Ri[:, start:end] @ _atom_frame(Y[i] @ Ri[:, start:end], probs)
                        start = end
            R *= _orientation(Y @ R, probs)[:, None, :]
            U = span @ R @ _DIAGONALS[rank]
        groups.append((rows, U))
    return groups


def _grid_parts(dist: DiscreteJoint, snrs, quad: QuadratureRule | None):
    """Stacks of _posterior_pass arguments: (rows, logp, D, G, W) each.

    The one input check of the posterior pass: every snr row must have
    one entry per coordinate of dist, and quad None means
    gauss_hermite(DEFAULT_QUAD_ORDER); a rule below MIN_QUAD_ORDER, or a
    mismatch, raises DomainError before anything is built.

    With v = sqrt(l) * x, D[a, b] = |v_a - v_b|**2 / 2 and (v_b - v_a) . z
    are all the component of atom a needs; splitting z = U t + z_perp over
    the grid axes U of the difference span, z_perp drops out of every
    difference, so G = ((v - mean v) @ U) @ T.T on the tensor grid T with
    one axis per column of U; the mean cancels in G[b] - G[a], and taking
    it out keeps atoms far from 0 from rounding away their spread.  A
    rank above MAX_TENSOR_DIM, or more than MAX_GRID_ATOM_POINTS atoms
    times grid points at any row, raises SizeLimitError before any grid
    or stack is built.

    Rows of one rank share a grid; they go out in stacks (S, A, A) of D
    and (S, A, P) of G, S as large as MAX_STACK_ELEMENTS allows, and
    rows[i] is the snr row of stack entry i.
    """
    for snr in snrs:
        if len(snr) != dist.n:
            raise DomainError(
                f"snr has {len(snr)} channels but the distribution has {dist.n} coordinates"
            )
    if quad is None:
        quad = gauss_hermite(DEFAULT_QUAD_ORDER)
    elif quad.order < MIN_QUAD_ORDER:
        raise DomainError(f"quadrature order {quad.order} is below the minimum {MIN_QUAD_ORDER}")
    A, n = dist.support.shape
    v = dist.support * np.sqrt(np.array(snrs, dtype=float).reshape(-1, n))[:, None, :]
    groups = _difference_basis(v, dist.probs)
    for _, U in groups:
        axes = U.shape[2]
        size = A * quad.order**axes
        if size > MAX_GRID_ATOM_POINTS:
            raise SizeLimitError(
                f"{A} atoms on a rank-{axes} order-{quad.order} grid make "
                f"{size} atom-points: the limit is {MAX_GRID_ATOM_POINTS}"
            )
    logp = np.log(dist.probs)
    for rows, U in groups:
        T, W = quad.tensor(U.shape[2])
        step = max(1, MAX_STACK_ELEMENTS // (A * max(len(W), A * n)))
        for lo in range(0, len(rows), step):
            x = v[rows[lo : lo + step]]
            # D reaches +inf only for atoms more than about 1e154 apart,
            # and +inf is then the exact limit: such atoms have posterior
            # weight 0
            with np.errstate(over="ignore"):
                D = 0.5 * ((x[:, :, None, :] - x[:, None, :, :]) ** 2).sum(axis=3)
            G = ((x - x.mean(axis=1, keepdims=True)) @ U[lo : lo + step]) @ T.T
            yield rows[lo : lo + step], logp, D, G, W


def _posterior_pass(probs, logp, D, G, W, values=None) -> np.ndarray:
    """Mixture averages over the grid of one (P,) array per component.

    Layout, for S stacked signal sets of A atoms on a P-point grid: probs
    and logp (A,) are the atom masses and their logs, D (S, A, A) the half
    squared distances |v_a - v_b|**2 / 2 between signals, G (S, A, P) the
    atom-grid terms v_b . z less any shift shared by all b, W (P,) the
    product weights.  At grid point g of component a, where y = v_a + z,
    atom b has the log posterior weight logp[b] - D[a, b] + (G[b, g] -
    G[a, g]), up to normalisation: only differences of signals enter, so
    no term grows like |v|**2.
    G[b] - G[a] is formed before logp and D are added, so a large signal
    does not round away the log masses.  The logits are max-subtracted
    before exp, so every column sums to at least 1.

    With values None the array is the log-likelihood ratio
    log p(y|x_a) - log p(y) = -log sum_b exp(logit_b); otherwise it is
    values(w) for each set's (A, P) normalised posterior weights w.
    Components are accumulated in atom order and each set's array is
    reduced by its own W @ term dot, so every set's average has the bits
    it has in a stack of one, run to run.

    Returns the (S,) averages; raises QuadratureUnderflowError when one
    is not finite.
    """
    totals = [0.0] * G.shape[0]
    for a in range(probs.shape[0]):
        e = G - G[:, a, None]
        e += (logp - D[:, a])[:, :, None]
        mx = e.max(axis=1)
        e -= mx[:, None]
        np.exp(e, out=e)
        s = e.sum(axis=1)
        if values is None:
            terms = -(mx + np.log(s))
        else:
            e /= s[:, None]
            terms = map(values, e)
        for i, term in enumerate(terms):
            totals[i] += probs[a] * float(W @ term)
    for total in totals:
        if not math.isfinite(total):
            raise QuadratureUnderflowError(
                f"posterior average is {float(total)!r}: the support or snr overflows float64"
            )
    return np.array(totals, dtype=float)


def _posterior_average(dist: DiscreteJoint, snrs, quad: QuadratureRule | None, values=None) -> np.ndarray:
    """The posterior pass at every snr row, stack by stack: (len(snrs),)."""
    out = np.empty(len(snrs))
    for rows, *parts in _grid_parts(dist, snrs, quad):
        out[rows] = _posterior_pass(dist.probs, *parts, values)
    return out


def mutual_information_many(dist: DiscreteJoint, snrs, quad: QuadratureRule | None = None) -> np.ndarray:
    """I(X; Y) in nats at each row of snrs, one value per row.

    Each row is a per-channel snr vector, checked as ChannelSpec checks
    it.  Rows of one grid rank are evaluated together in stacks, and
    every value has the bits that mutual_information gives for its row
    alone.  Raises what mutual_information raises for any one row.
    """
    return _posterior_average(dist, [ChannelSpec(snr).snr for snr in snrs], quad)


def mutual_information(
    dist: DiscreteJoint, spec: ChannelSpec, quad: QuadratureRule | None = None
) -> float:
    """I(X; Y) in nats for the discrete input over the parallel channels.

    Averages log p(Y|x) - log p(Y) over the exact output mixture: for
    each atom the output law is a shifted copy of the base Gaussian, so
    the projected grid plus shift integrates it.  Likelihoods stay in log
    space through a max-subtracted log-sum-exp.  The one-row case of
    mutual_information_many.

    Raises QuadratureUnderflowError when the average is not finite (a
    signal sqrt(l) x that overflows float64), and SizeLimitError when
    the support differences span more than MAX_TENSOR_DIM dimensions or
    the grid exceeds MAX_GRID_ATOM_POINTS.
    """
    return float(mutual_information_many(dist, [spec.snr], quad)[0])


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
    if not 1 <= channel <= dist.n:
        raise DomainError(f"channel {channel} leaves 1..{dist.n}")
    col = dist.support[:, channel - 1]
    col2 = col * col

    def spread(w):
        mu = col @ w
        return col2 @ w - mu * mu

    return float(_posterior_average(dist, [spec.snr], quad, spread)[0])


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

    return float(_posterior_average(dist, [spec.snr], quad, form)[0])

