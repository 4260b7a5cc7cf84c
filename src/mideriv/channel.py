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
grid over span{v_b - v_a}: r axes, r = rank <= min(n, atoms - 1),
whatever the channel count, set by one SVD of the centred signals.  A
full-rank span keeps the n coordinate axes; otherwise the axes are the
principal axes of the atoms turned onto the grid diagonals.  A
duplicated signal (r = 1) is one channel at the summed snr.  The grid is
pruned: it keeps only the points whose product weight is at least
GRID_WEIGHT_FLOOR = 1e-30 times the largest, and the points it drops
carry less than 1e-29 of the weight.

Every value is one posterior pass, _posterior_pass.  The logit of atom
b in the component of atom a splits into an atom-pair part and an
atom-by-grid-point part, so the pass takes one exp per atom pair, K, and
one per atom and grid point, F, and forms every component's sums over
the atoms as matmuls of the two factors.  It averages either the
log-likelihood ratio against each component's own-atom term (mutual
information), or a form of conditional moments (mmse, conditional tau):
each moment is the matmul of K times an atom function with F over that
of K with F.  Every conditional form, centred or not, is taken about
the own atom: its atom functions are on coordinates shifted by the
component's own atom, which contributes exactly 0, so neither a
concentrated posterior nor a law far from 0 cancels its spread.  Forms
of two slots or more are translation-invariant (one slot is refused).
Each block moment, its centring or the shifted moment itself, and the
form go through the one evaluator, SymbolicExpansion.evaluate.  Entries
whose own-atom term falls below OWN_TERM_FLOOR, where far-apart atoms
leave the factors underflowing, are recomputed exactly by a
max-subtracted log-sum-exp of their logits; a block of grid columns
with no such entry never enters that fallback.  Besides G the pass
holds F, which takes the per-point terms, and blocks of at most
MAX_STACK_ELEMENTS floats.  Each rule holds its tensor grid as a
C-ordered (r, P) array, so the atom-grid terms are one matmul onto
contiguous rows.

The pass runs on stacks of signal sets, one set per snr row of one law.
mutual_information_many takes many rows at once: their grid axes come
from one batched SVD, rows of one rank share a grid, and each stack of at
most MAX_STACK_ELEMENTS floats per array goes through the pass together.
Every row's value has the bits of its one-row call, which is what
mutual_information, mmse and expected_conditional_tau make.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .constants import DEFAULT_QUAD_ORDER
from .errors import (
    DomainError,
    QuadratureUnderflowError,
    SizeLimitError,
    ValidationError,
    integer,
    real,
)
from .forms import MomentOracle, SlotBinding, SymbolicExpansion, tau_symbolic

MIN_QUAD_ORDER = 16
# hermegauss's weight recurrence overflows around order 320 and returns
# NaN weights; 300 is verified clean.
MAX_QUAD_ORDER = 300
MAX_ATOMS = 64
# Joint cap on atoms * order**rank, counted on the unpruned grid so the
# limits do not depend on GRID_WEIGHT_FLOOR: G holds one float per atom
# and grid point.  2**24 (128 MB for G, and for F, the one array of its
# shape the posterior pass holds) still admits 64 atoms on a rank-3
# span at the default order 64; 64 atoms on a rank-3 span at order 300
# would need a 648 MB grid and a 13.8 GB G.
MAX_GRID_ATOM_POINTS = 2**24
# A batch of snr rows goes through the posterior pass in stacks of at
# most this many floats per (S, A, P) grid array and (S, A, A, n)
# distance array; a row over the cap is a stack of its own.  Inside the
# pass, the sums over atoms go in blocks of grid columns, and the
# fallback in blocks of entries, of at most this many floats per set.
MAX_STACK_ELEMENTS = 2**15
# Tensor grids keep only points whose product weight is at least this
# times the largest (a pruned Gauss-Hermite rule).  On every grid the
# size guard admits the dropped points carry less than 1e-29 of the
# weight (8.7e-30 at worst, order 131 on three axes), and on any grid
# point |llr| <= max(|z|**2 / 2, log 1/p_min), so an mi value moves by
# at most that bound times the dropped weight: far below float64
# roundoff of the kept sum.
GRID_WEIGHT_FLOOR = 1e-30
# The posterior pass sums a component's terms as products K * F of
# factors at most 1, against its own-atom term T.  Where T is at least
# this floor, a product that underflows to 0 or to a subnormal is below
# 1e-28 of T, so it cannot move the sum; an entry whose T falls below
# the floor is recomputed by a log-sum-exp of its logits.
OWN_TERM_FLOOR = 1e-280

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A rule is its nodes and weights, each read by errors.real, integrating
    against the standard normal; its order is the node count, at least
    MIN_QUAD_ORDER.  Construct through :func:`gauss_hermite`; the initializer
    checks these, one weight per node, and that the rule integrates like a
    standard normal (weights sum to 1, odd moments vanish, unit second moment).
    """

    nodes: np.ndarray
    weights: np.ndarray
    _grids: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = _real_array(self.nodes, "nodes")
        weights = _real_array(self.weights, "weights")
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValidationError(f"nodes: expected one weight per node, got {nodes.shape} and {weights.shape}")
        if len(nodes) < MIN_QUAD_ORDER:
            raise ValidationError(f"nodes: {len(nodes)} nodes are below the minimum {MIN_QUAD_ORDER}")
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

    @property
    def order(self) -> int:
        return len(self.nodes)

    def tensor(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Pruned tensor grid: (P, dim) points and product weights.

        Of the order**dim tensor points only those whose product weight
        is at least GRID_WEIGHT_FLOOR times the largest are kept, still
        in lexicographic order of the per-axis indices; the dropped
        points carry less than 1e-29 of the weight on every grid the
        size guard admits.  The grid is cached on the rule, held as a
        C-ordered (dim, P) array whose transposed view is the points.
        """
        if not 1 <= dim <= MAX_TENSOR_DIM:
            raise SizeLimitError(f"dim={dim}: tensor grids support 1..{MAX_TENSOR_DIM}")
        if dim not in self._grids:
            w = self.weights
            for _ in range(dim - 1):
                w = (w[:, None] * self.weights[None, :]).ravel()
            keep = np.flatnonzero(w >= GRID_WEIGHT_FLOOR * w.max())
            axes = np.unravel_index(keep, (self.order,) * dim)
            # held as (dim, P), C-ordered, so the matmul onto the grid
            # reads contiguous rows; the (P, dim) points are its view
            columns = np.stack([self.nodes[i] for i in axes])
            w = w[keep]
            columns.flags.writeable = False
            w.flags.writeable = False
            self._grids[dim] = (columns.T, w)
        return self._grids[dim]


_RULES: dict[int, QuadratureRule] = {}


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule renormalized to the standard normal weight.

    order is read by errors.integer: numpy integers pass, and booleans
    and floats raise DomainError.
    """
    order = integer(order, DomainError, "order")
    if not MIN_QUAD_ORDER <= order <= MAX_QUAD_ORDER:
        raise DomainError(
            f"order={order}: supported range is {MIN_QUAD_ORDER}..{MAX_QUAD_ORDER}"
        )
    if order not in _RULES:
        nodes, weights = hermegauss(order)
        _RULES[order] = QuadratureRule(nodes, weights / _SQRT_2PI)
    return _RULES[order]


def _real_array(value, field: str) -> np.ndarray:
    """value as a float array whose every entry passed errors.real.

    A ragged value is not rectangular: numpy holds its rows as the
    entries of an object array, so an entry that is itself a sequence
    is refused as such.
    """
    try:
        entries = np.asarray(value, dtype=object)
    except ValueError as exc:
        raise ValidationError(f"{field}: not a rectangular numeric array ({exc})") from exc
    values = []
    for x in entries.flat:
        if isinstance(x, (list, tuple, np.ndarray)):
            raise ValidationError(f"{field}: not a rectangular numeric array (entry {x!r} is a sequence)")
        values.append(real(x, ValidationError, field))
    return np.array(values).reshape(entries.shape)


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Finitely supported joint law of the channel input vector.

    Zero-probability atoms are dropped and duplicate support points are
    merged (masses summed) at construction; probabilities must be
    nonnegative and sum to 1 within 1e-12.  Every entry is read by
    errors.real: strings, booleans, NaN and infinities are refused, not parsed.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        support = _real_array(self.support, "support")
        probs = _real_array(self.probs, "probs")
        if support.ndim != 2:
            raise ValidationError(f"support: expected a 2-D array of points, got shape {support.shape}")
        if support.shape[1] < 1:
            raise ValidationError("support: points need at least one coordinate")
        if probs.ndim != 1 or probs.shape[0] != support.shape[0]:
            raise ValidationError(
                f"probs: length {probs.shape if probs.ndim != 1 else probs.shape[0]} "
                f"does not match {support.shape[0]} support points"
            )
        if (probs < 0).any():
            bad = int(np.argmin(probs))
            raise ValidationError(f"probs: negative mass {probs[bad]!r} at index {bad}")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probs: sum {total!r} is not 1 within 1e-12")
        # the unit sum leaves at least one atom with mass
        keep = probs != 0.0
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
        dist = cls(data["support"], data["probs"])
        if declared != dist.n:
            raise ValidationError(f"n: declared {declared} but support points have {dist.n} coordinates")
        return dist


@dataclass(frozen=True)
class ChannelSpec:
    """Per-channel signal-to-noise ratios: at least one, each a finite
    real number (errors.real) >= 0."""

    snr: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            snr = tuple(real(x, ValidationError, "snr") for x in self.snr)
        except TypeError as exc:
            raise ValidationError(f"snr: not a sequence of numbers ({exc})") from exc
        if not snr:
            raise ValidationError("snr: needs at least one channel")
        for i, lam in enumerate(snr):
            if lam < 0:
                raise ValidationError(f"snr: entry {i} is {lam!r}, expected a value >= 0")
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
# Quadrature paths support the spans a turn is given for.
MAX_TENSOR_DIM = max(_DIAGONALS)
# Every sign pattern of r grid axes, in itertools.product order.
_SIGN_PATTERNS = {r: np.array(list(itertools.product((1.0, -1.0), repeat=r))) for r in _DIAGONALS}
# Principal axes whose singular values are closer than this (relative to
# the largest) are the SVD's arbitrary choice, so they are set from the
# atoms instead.
_TIED_AXES = 1e-8


def _atom_frame(Y: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """(k, k) orthonormal frame for atoms with coordinates Y (A, k).

    Gram-Schmidt over the atoms taken farthest first, heavier first
    among equal distances, then by each atom's sorted (distance, mass)
    pairs to the atoms, so the order reads the law alone.  Atoms that
    all of these keys tie go in stored order; in the laws tried, a
    symmetry of the law maps each such atom onto the others.
    """
    dist2 = (Y * Y).sum(axis=1)
    pair2 = np.round(((Y[:, None] - Y[None]) ** 2).sum(axis=2) / dist2.max(), 10)
    # row a: atom a's (distance, mass) pairs to every atom, ascending
    near = np.lexsort((np.broadcast_to(probs, pair2.shape), pair2), axis=1)
    pairs = np.stack([np.take_along_axis(pair2, near, 1), probs[near]], axis=2).reshape(len(Y), -1)
    # lexsort takes its last key first
    order = np.lexsort((*pairs.T[::-1], -probs, -np.round(dist2 / dist2.max(), 10)))
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


def _grid_coordinates(v: np.ndarray, probs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Centred signals of a stack v (S, A, n) of sets in grid coordinates.

    Returns [(rows, Y)], one entry per rank r present in ascending order:
    the indices of the sets of that rank and Y (len(rows), A, max(r, 1)).
    One SVD gives the rank, the span of the differences and its
    principal axes; a singular value counts if it is above max(A, n) *
    eps times the larger of the largest one and sqrt(A) * max|v|, the
    size the rounding of the signals gives it.  Non-finite centred
    signals raise QuadratureUnderflowError, a rank above MAX_TENSOR_DIM
    SizeLimitError.  Rank n keeps the coordinate axes, and rank 0 (one
    atom, or zero snr) gets one null axis, on which every logit is flat.
    Otherwise Y holds the principal coordinates, ties settled by
    _atom_frame and signs by _orientation, turned by _DIAGONALS.  The
    axes do not depend on the channel order, nor on the atom order.  A
    set gets the Y it gets alone.
    """
    A, n = v.shape[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        # 64, a power of two at least MAX_ATOMS, keeps the sum finite and
        # the bits of v.mean wherever v / 64 is a normal float
        c = v - (v / 64).mean(axis=1, keepdims=True) * 64
    if not np.isfinite(c).all():
        raise QuadratureUnderflowError("centred signals are not finite: the support or snr overflows float64")
    _, s, vt = np.linalg.svd(c, full_matrices=False)
    # the matrix_rank rule, with the rounding of the signals themselves,
    # about eps * |v| per entry, counted as noise too
    eps = max(A, n) * np.finfo(float).eps
    tol = np.maximum(eps * s[:, 0], eps * math.sqrt(A) * np.abs(v).max(axis=(1, 2)))
    ranks = (s > tol[:, None]).sum(axis=1)
    over = np.flatnonzero(ranks > MAX_TENSOR_DIM)
    if len(over):
        raise SizeLimitError(
            f"support differences span {ranks[over[0]]} dimensions: "
            f"quadrature paths support rank 0..{MAX_TENSOR_DIM}"
        )
    groups = []
    # not np.unique: numpy's _unique1d imports numpy.ma on first use
    for rank in sorted(set(ranks.tolist())):
        rows = np.flatnonzero(ranks == rank)
        if rank == 0:
            Y = np.zeros((len(rows), A, 1))
        elif rank == n:
            Y = c[rows]
        else:
            Y = c[rows] @ vt[rows, :rank].transpose(0, 2, 1)
            tied = ~(s[rows, : rank - 1] - s[rows, 1:rank] > _TIED_AXES * s[rows, :1])
            for i in np.flatnonzero(tied.any(axis=1)):
                start = 0
                for end in range(1, rank + 1):
                    if end == rank or not tied[i, end - 1]:
                        if end - start > 1:
                            Y[i, :, start:end] = Y[i, :, start:end] @ _atom_frame(Y[i, :, start:end], probs)
                        start = end
            Y *= _orientation(Y, probs)[:, None, :]
            Y = Y @ _DIAGONALS[rank]
        groups.append((rows, Y))
    return groups


def _grid_parts(dist: DiscreteJoint, snrs, quad: QuadratureRule | None):
    """Stacks of _posterior_pass arguments: (rows, logp, D, G, W) each.

    The one input check of the posterior pass, of what needs the law: every
    snr row must have one entry per coordinate of dist, else DomainError
    before anything is built; each entry is a finite real already
    (errors.real), and quad None means gauss_hermite(DEFAULT_QUAD_ORDER).

    With v = sqrt(l) * x, D[a, b] = |v_a - v_b|**2 / 2 and (v_b - v_a) . z
    are all the component of atom a needs.  The part of z off the span of
    the differences drops out of them, so G = Y @ Z, with Y the centred
    signals in grid coordinates (_grid_coordinates) and Z the tensor grid,
    held by the rule as a C-ordered (r, P) array; the mean cancels in
    G[b] - G[a], and taking it out keeps atoms far from 0 from rounding
    away their spread.  Non-finite centred signals, a rank above
    MAX_TENSOR_DIM, or more than MAX_GRID_ATOM_POINTS atoms times grid
    points at any row raise before any grid or stack is built.

    Rows of one rank share a grid; they go out in stacks (S, A, A) of D
    and (S, A, P) of G, S as large as MAX_STACK_ELEMENTS allows, and
    rows[i] is the snr row of stack entry i.
    """
    for snr in snrs:
        if len(snr) != dist.n:
            raise DomainError(f"snr has {len(snr)} channels but the distribution has {dist.n} coordinates")
    if quad is None:
        quad = gauss_hermite(DEFAULT_QUAD_ORDER)
    A, n = dist.support.shape
    v = dist.support * np.sqrt(np.array(snrs, dtype=float).reshape(-1, n))[:, None, :]
    groups = _grid_coordinates(v, dist.probs)
    for _, Y in groups:
        size = A * quad.order ** Y.shape[2]
        if size > MAX_GRID_ATOM_POINTS:
            raise SizeLimitError(
                f"{A} atoms on a rank-{Y.shape[2]} order-{quad.order} grid make "
                f"{size} atom-points: the limit is {MAX_GRID_ATOM_POINTS}"
            )
    logp = np.log(dist.probs)
    for rows, Y in groups:
        points, W = quad.tensor(Y.shape[2])
        step = max(1, MAX_STACK_ELEMENTS // (A * max(len(W), A * n)))
        for lo in range(0, len(rows), step):
            x = v[rows[lo : lo + step]]
            # D reaches +inf only for atoms more than about 1e154 apart,
            # and +inf is then the exact limit: such atoms have posterior
            # weight 0
            with np.errstate(over="ignore"):
                D = 0.5 * ((x[:, :, None, :] - x[:, None, :, :]) ** 2).sum(axis=3)
            # points.T is the rule's C-ordered (r, P) array, not a copy
            yield rows[lo : lo + step], logp, D, Y[lo : lo + step] @ points.T, W


def _exact_entries(logp, D, G, low, out, phi=None) -> None:
    """Recompute the entries of the posterior pass where low is set, exactly.

    low (S, A, C) marks the grid points of each set and component whose
    own-atom term fell below OWN_TERM_FLOOR, on the C grid columns of G
    (S, A, C); the pass calls this only when low has a set entry.  Their
    logits are formed as the loops take them, G[b] - G[a] before
    logp[b] - D[a, b] is added so that a large signal does not round
    away the log masses, and max-subtracted before exp.  With
    phi None, out is the llr (S, A, C); otherwise out holds the moments
    (m, S, A, C), and each is the exact weights contracted with its atom
    function phi[t, a] (m, A, A).  out is overwritten at those entries
    only.  The entries go in blocks whose logits, and whose gathered atom
    functions, hold at most MAX_STACK_ELEMENTS floats, so the fallback
    holds no grid-sized array.
    """
    s_all, a_all, g_all = np.nonzero(low)
    A = len(logp)
    c = logp - D
    step = max(1, MAX_STACK_ELEMENTS // (A if phi is None else A * len(phi)))
    for lo in range(0, len(s_all), step):
        s, a, g = s_all[lo : lo + step], a_all[lo : lo + step], g_all[lo : lo + step]
        e = G[s, :, g]
        e -= G[s, a, g][:, None]
        e += c[s, a]
        mx = e.max(axis=1)
        e -= mx[:, None]
        np.exp(e, out=e)
        sums = e.sum(axis=1)
        if phi is None:
            out[s, a, g] = -(mx + np.log(sums))
        else:
            e /= sums[:, None]
            out[:, s, a, g] = (phi[:, a] * e).sum(axis=2)


def _posterior_pass(probs, logp, D, G, W, moments=None) -> np.ndarray:
    """Mixture averages over the grid of one per-point term per component.

    Layout, for S stacked signal sets of A atoms on a P-point grid: probs
    and logp (A,) are the atom masses and their logs, D (S, A, A) the half
    squared distances |v_a - v_b|**2 / 2 between signals, G (S, A, P) the
    atom-grid terms v_b . z less any shift shared by all b, W (P,) the
    product weights.  At grid point g of component a, where y = v_a + z,
    atom b has the log posterior weight logp[b] - D[a, b] + (G[b, g] -
    G[a, g]), up to normalisation: only differences of signals enter, so
    no term grows like |v|**2.

    The logit splits into an atom-pair part c[a, b] = logp[b] - D[a, b]
    and an atom-grid part G[b, g] - G[a, g], so the pass takes one exp
    per atom pair, K = exp(c - max_b c), and one per atom and grid point,
    F = exp(G - max_b G), and forms the sums over atoms as matmuls of
    the two factors.  The component's own-atom term is
    T[a, g] = K[a, a] * F[a, g], whose logit is exactly logp[a].

    With moments None the term is the log-likelihood ratio
    log p(y|x_a) - log p(y) = -(logp[a] + log1p(R / T)), with the sums
    over the other atoms R = K_off @ F (the diagonal of K zeroed) taken
    for all components at once.  Otherwise moments is (phi, term): phi
    (m, A, A) holds m atom functions, and the conditional moment of
    atom function t in component a is
    M[t, a] = ((K * phi[t]) @ F)[a] / (K @ F)[a], one batched matmul of
    the stacked rows [K, K * phi[0], ...] for all of them; term maps the
    (m, S, A, C) moments of C grid columns to their (S, A, C) per-point
    term.  Where T is at least OWN_TERM_FLOOR, a product K * F that
    underflows is below 1e-28 of T; the entries whose T falls below it
    are recomputed, and only they, by _exact_entries.  Atoms however far
    apart so keep exact weights.  A block of grid columns is tested for
    such entries once: only when it has one are the stand-ins written
    and _exact_entries called.

    Besides its arguments the pass holds only F, whose buffer takes the
    per-point terms: the sums and moments go in blocks of grid columns
    of at most MAX_STACK_ELEMENTS floats per set, the fallback in blocks
    of entries.  Each set's terms are reduced by one W @ term dot per
    component, and the dots are accumulated per set in atom order, so
    every set's average has the bits it has in a stack of one, run to
    run.

    Returns the (S,) averages; raises QuadratureUnderflowError when one
    is not finite.
    """
    S, A = D.shape[:2]
    own = np.arange(A)
    K = logp - D
    K -= K.max(axis=2, keepdims=True)
    np.exp(K, out=K)
    F = G - G.max(axis=1, keepdims=True)
    np.exp(F, out=F)
    K_own = K[:, own, own, None]
    if moments is None:
        K[:, own, own] = 0.0
        rows = K
    else:
        phi, term = moments
        # (S, (m + 1) * A, A): the normaliser's rows, then each moment's
        rows = np.concatenate([K[:, None], K[:, None] * phi], axis=1).reshape(S, -1, A)
    step = max(1, MAX_STACK_ELEMENTS // rows.shape[1])
    for lo in range(0, F.shape[2], step):
        # F's buffer takes the terms one block of grid columns at a time,
        # so the sums never fill a grid-sized array
        T = F[:, :, lo : lo + step]
        R = rows @ T
        np.multiply(K_own, T, out=T)
        under = T < OWN_TERM_FLOOR
        fallback = under.any()
        if moments is None:
            if fallback:
                # a stand-in that keeps the division finite where the
                # fallback overwrites the llr
                T[under] = 1.0
            R /= T
            np.log1p(R, out=R)
            np.subtract(-logp[:, None], R, out=T)
            if fallback:
                _exact_entries(logp, D, G[:, :, lo : lo + step], under, T)
        else:
            R = R.reshape(S, -1, A, T.shape[2])
            sums = R[:, 0]
            if fallback:
                sums[under] = 1.0
            M = R[:, 1:].transpose(1, 0, 2, 3)
            M /= sums
            if fallback:
                _exact_entries(logp, D, G[:, :, lo : lo + step], under, M, phi)
            T[...] = term(M)
    # one dot per set and component, accumulated per set in atom order
    dots = [float(W @ f) for f in F.reshape(S * A, -1)]
    p = probs.tolist()
    totals = [0.0] * S
    for i in range(S):
        for a in range(A):
            totals[i] += p[a] * dots[i * A + a]
    for total in totals:
        if not math.isfinite(total):
            raise QuadratureUnderflowError(
                f"posterior average is {float(total)!r}: the support or snr overflows float64"
            )
    return np.array(totals, dtype=float)


def _posterior_average(dist: DiscreteJoint, snrs, quad: QuadratureRule | None, moments=None) -> np.ndarray:
    """The posterior pass at every snr row, stack by stack: (len(snrs),)."""
    out = np.empty(len(snrs))
    for rows, *parts in _grid_parts(dist, snrs, quad):
        out[rows] = _posterior_pass(dist.probs, *parts, moments)
    return out


@lru_cache(maxsize=None)
def _centring(block) -> SymbolicExpansion:
    """The centred moment of block as a SymbolicExpansion on shifted moments.

    With Y_i = X_i - x_{a,i} shifted by the component's own atom and
    d_i = E[Y_i | y], X_i - E[X_i | y] = Y_i - d_i, so the centred moment
    is the sum over sub-multisets T of block of prod_j C(k_j, t_j) *
    (-d_j)**(k_j - t_j) times the shifted raw moment of T: the monomial
    of T and one block (i,) per d_i.  As d_i is the shifted moment of
    (i,), the constructor merges the terms with |T| < 2.  Cached per block.
    """
    counts = {i: block.count(i) for i in sorted(set(block))}
    terms = []
    for taken in itertools.product(*(range(k + 1) for k in counts.values())):
        sub = tuple(i for i, t in zip(counts, taken) for _ in range(t))
        means = tuple((i,) for i, t in zip(counts, taken) for _ in range(counts[i] - t))
        coeff = (-1) ** len(means) * math.prod(map(math.comb, counts.values(), taken))
        terms.append(((sub,) + means, coeff))
    return SymbolicExpansion(tuple(terms))


def _moment_form(support: np.ndarray, expansion: SymbolicExpansion, centered: bool):
    """(phi, term) for _posterior_pass: an expansion on conditional moments.

    phi (m, A, A) holds one atom function per raw moment the expansion
    needs, on either route: phi[t, a, b] is the product over the ids i
    of block t of x_{b,i} - x_{a,i}, coordinates shifted by component a's
    own atom, which contributes exactly 0, so the moments of a posterior
    concentrated on its own atom do not cancel.  centered selects the
    block moments: each block's centring (_centring) or its shifted moment.
    term evaluates them, then the (translation-invariant) expansion on
    them, all by SymbolicExpansion.evaluate, elementwise on the grid.
    """
    blocks = sorted({b for mono, _ in expansion.terms for b in mono})
    maps = {b: _centring(b) if centered else SymbolicExpansion((((b,), 1),)) for b in blocks}
    raw = sorted({f for c in maps.values() for mono, _ in c.terms for f in mono})
    # (n, A, A): x_{b,i} - x_{a,i} at [i - 1, a, b]
    coords = support.T[:, None, :] - support.T[:, :, None]
    A = support.shape[0]
    phi = np.empty((len(raw), A, A))
    for t, block in enumerate(raw):
        phi[t] = math.prod(coords[i - 1] for i in block)
    index = {block: t for t, block in enumerate(raw)}

    def term(M):
        raw_moment = MomentOracle(lambda block: M[index[block]])
        moments = {block: c.evaluate(raw_moment) for block, c in maps.items()}
        return expansion.evaluate(MomentOracle(moments.__getitem__))

    return phi, term


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
    the projected grid plus shift integrates it.  Likelihoods are
    max-subtracted factors against each component's own-atom term, with
    a log-sum-exp where that term underflows (_posterior_pass).  The
    one-row case of mutual_information_many.

    Raises QuadratureUnderflowError when a centred signal or the average
    is not finite (a signal sqrt(l) x, or their mean, that overflows
    float64), and SizeLimitError when the support differences span more
    than MAX_TENSOR_DIM dimensions or the grid exceeds MAX_GRID_ATOM_POINTS.
    """
    return float(mutual_information_many(dist, [spec.snr], quad)[0])


def mmse(
    dist: DiscreteJoint,
    spec: ChannelSpec,
    channel: int = 1,
    quad: QuadratureRule | None = None,
) -> float:
    """E[(X_i - E[X_i|Y])**2] over the output mixture, i = channel.

    The centred (i, i) block of the posterior pass's moments, an
    expansion on moments shifted by each component's own atom
    (_moment_form).  Lies in [0, Var(X_i)]; at zero snr the best
    estimate is the prior mean and the value is the prior variance.  A
    non-finite average raises QuadratureUnderflowError, as in
    mutual_information; here that also happens when a squared coordinate
    difference overflows float64.
    """
    channel = integer(channel, DomainError, "channel")
    if not 1 <= channel <= dist.n:
        raise DomainError(f"channel {channel} leaves 1..{dist.n}")
    block = SymbolicExpansion(((((channel, channel),), 1),))
    return float(_posterior_average(dist, [spec.snr], quad, _moment_form(dist.support, block, True))[0])


def expected_conditional_tau(
    dist: DiscreteJoint,
    spec: ChannelSpec,
    binding: SlotBinding,
    centered: bool = True,
    quad: QuadratureRule | None = None,
) -> float:
    """Output average of the diverse-partition form of the posterior.

    With centered=True, evaluates the blocks-of-size->=-2 expansion on
    the conditionally centered coordinates X_i - E[X_i|Y] (_centring),
    with centered=False the full expansion, both on moments about each
    component's own atom (_moment_form).  For two slots or more the forms
    are translation-invariant, like cumulants, and agree (conditionally
    applied centering identity); a single slot, whose full form
    -E[X|y]**2 / 2 is not, is refused on both routes: mmse/2 carries it.

    Binding variable ids index channel coordinates.  At zero snr the
    posterior is the prior and the value is the unconditional form.  A
    non-finite average raises QuadratureUnderflowError, as in
    mutual_information.
    """
    if binding.n < 2:
        raise DomainError(
            "conditional forms need at least two slots; first-order content goes through mmse"
        )
    if max(binding.variables) > dist.n:
        raise DomainError(
            f"binding uses variable {max(binding.variables)} but the distribution has {dist.n} coordinates"
        )
    expansion = tau_symbolic(binding, 2 if centered else 1)
    return float(_posterior_average(dist, [spec.snr], quad, _moment_form(dist.support, expansion, centered))[0])
