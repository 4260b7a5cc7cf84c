"""Cross-checking suites and machine-readable verification reports.

The central suite finite-differences the directly computed mutual information
and compares against the partition-form right-hand sides (first order through
mmse/2, higher orders through the conditional form, centered and uncentered);
both take one DerivativeRequest, and fd_mi_partial checks the range finite
differences cover.  The remaining suites check the algebraic identities
(multiquadratic behavior, snr additivity under signal duplication, the Gaussian
zero-snr chain, and the two moment-cumulant routes), mostly in exact rational
arithmetic.

Reports are deterministic for a given (seed, config): no
timestamps, fixed case order, fixed serialization.
"""
from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import closedform
from .channel import (
    ChannelSpec,
    DiscreteJoint,
    QuadratureRule,
    expected_conditional_tau,
    gauss_hermite,
    mmse,
    mutual_information,
    mutual_information_many,
)
from .constants import SCHEMA_VERSION, SUITE_NAMES
from .errors import DomainError, ValidationError
from .fd import BASE_STEP, RICHARDSON_LEVELS, STEP_FRACTION, check_partial, fd_partial
from .forms import (
    SlotBinding,
    atoms_moment_oracle,
    gaussian_moment_oracle,
    kappa_eval,
    kappa_recursion_oracle,
    tau_eval,
    univariate_moment_oracle,
)

# Gap budget per total order finite differences cover (at snr up to FD_MAX_SNR);
# the fd error estimate must also stay below the same figure for a case to pass.
TOLERANCE_BY_ORDER = {1: 1e-8, 2: 1e-7, 3: 1e-5, 4: 1e-3}
FD_MAX_SNR = 4.0
CENTERING_TOL = 1e-11
COMBINE_TOL = 1e-10
LEMMA2_QUAD_ORDER = 64
ADJUDICATION_TOL = 1e-8
LEMMA1_TRIALS = 100
CUMULANT_TRIALS = 50
GAUSSIAN_MAX_ORDER = 6

ADOPTED_CONVENTION = "dI/dsnr_i = E[(X_i - E[X_i|Y])^2] / 2"


@dataclass(frozen=True)
class DerivativeRequest:
    """One mixed partial of I: orders (fd.check_partial) at an snr point (ChannelSpec)."""

    orders: tuple[int, ...]
    point: tuple[float, ...]

    def __post_init__(self) -> None:
        orders, point = check_partial(self.orders, ChannelSpec(self.point).snr)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "point", point)

    @property
    def total_order(self) -> int:
        return sum(self.orders)

    def label(self) -> str:
        o = ",".join(str(k) for k in self.orders)
        p = ",".join(str(x) for x in self.point)
        return f"d({o})@({p})"


@dataclass(frozen=True)
class DerivativeCase:
    """A request bound to an input law and a quadrature order."""

    name: str
    dist: DiscreteJoint
    request: DerivativeRequest
    quad_order: int


@dataclass
class CaseRecord:
    """One comparison: a value under test against a reference."""

    suite: str
    request: str
    gap: float
    tol: float
    verdict: str
    fd: float | None = None
    fd_error: float | None = None
    formula: float | None = None
    formula_uncentered: float | None = None
    centering_gap: float | None = None
    rel_gap: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _exact_row(suite: str, request: str, differences: list, detail: str = "", **values) -> CaseRecord:
    """An exact row: tol 0, gap the largest |difference|, pass only if every difference is 0."""
    return CaseRecord(
        suite=suite,
        request=request,
        gap=max(abs(float(d)) for d in differences),
        tol=0.0,
        verdict="fail" if any(differences) else "pass",
        detail=detail,
        **values,
    )


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _convention_note() -> dict:
    return {"convention": ADOPTED_CONVENTION, "measured": False}


@dataclass
class VerificationReport:
    """Ordered case records plus the convention adjudication."""

    suite: str
    seed: int
    config: dict
    adjudication: dict = field(default_factory=_convention_note)
    cases: list[CaseRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "passed": self.passed, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["request", "fd", "formula", "gap", "tol", "verdict"])
        for c in self.cases:
            writer.writerow(
                [c.request, _csv_cell(c.fd), _csv_cell(c.formula), _csv_cell(c.gap), _csv_cell(c.tol), c.verdict]
            )
        return buf.getvalue()


def two_point_input() -> DiscreteJoint:
    """Equiprobable {-1, +1} on one channel."""
    return DiscreteJoint([[1.0], [-1.0]], [0.5, 0.5])


def correlated_pair_input() -> DiscreteJoint:
    """Four-atom sign pair with correlation 0.4 across two channels."""
    return DiscreteJoint(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
        [0.35, 0.15, 0.15, 0.35],
    )


def random_triple_input(rng: random.Random) -> DiscreteJoint:
    """Seeded 3-atom law on three channels, every coordinate informative."""
    while True:
        atoms, probs = closedform.random_rational_joint(rng, 3, atom_count=3)
        columns = list(zip(*atoms))
        if all(len(set(col)) > 1 for col in columns):
            break
    support = [[float(x) for x in atom] for atom in atoms]
    return DiscreteJoint(support, [float(p) for p in probs])


def default_derivative_cases(seed: int = 0) -> list[DerivativeCase]:
    """The standard battery: n=1, n=2 fixed inputs plus a seeded n=3 one."""
    rng = random.Random(seed)
    cases: list[DerivativeCase] = []
    two = two_point_input()
    for order in (1, 2, 3, 4):
        cases.append(
            DerivativeCase("two-point", two, DerivativeRequest((order,), (0.8,)), 128)
        )
    pair = correlated_pair_input()
    for orders in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
        cases.append(
            DerivativeCase("pair", pair, DerivativeRequest(orders, (0.5, 0.9)), 64)
        )
    triple = random_triple_input(rng)
    for orders in ((1, 0, 0), (1, 1, 0), (1, 1, 1)):
        cases.append(
            DerivativeCase("triple", triple, DerivativeRequest(orders, (0.3, 0.5, 0.7)), 128)
        )
    return cases


def partition_formula(
    dist: DiscreteJoint,
    request: DerivativeRequest,
    quad: QuadratureRule,
    centered: bool = True,
) -> float:
    """The formula side of the check: the requested partial of I.

    Total order 1 is mmse/2 of the active channel (the adopted
    convention); higher orders are the output average of the
    conditional partition form, centered or not, at any order and snr;
    a request on another channel count than the law's raises DomainError.
    """
    spec = ChannelSpec(request.point)
    if request.total_order == 1:
        return 0.5 * mmse(dist, spec, channel=request.orders.index(1) + 1, quad=quad)
    binding = SlotBinding.from_multiplicities(request.orders)
    return expected_conditional_tau(dist, spec, binding, centered=centered, quad=quad)


def fd_mi_partial(
    dist: DiscreteJoint,
    request: DerivativeRequest,
    quad: QuadratureRule,
    memo: dict[tuple[float, ...], float] | None = None,
) -> tuple[float, float]:
    """The fd side of the check: (value, error estimate) of the partial.

    Refuses (DomainError) a total order TOLERANCE_BY_ORDER has no budget for,
    an snr above FD_MAX_SNR or an active snr of 0.  Finite-differences the directly
    computed mutual information by fd_partial, which works out the step from the
    point and asks for all its distinct points at once; the ones memo lacks go to
    mutual_information_many in one batch.  memo maps snr points to mi values and is
    the only store of samples; share it only between requests on the same law and rule.
    """
    if request.total_order not in TOLERANCE_BY_ORDER:
        raise DomainError(f"total order {request.total_order}: finite differences cover 1..{max(TOLERANCE_BY_ORDER)}")
    for i, (k, lam) in enumerate(zip(request.orders, request.point)):
        if k > 0 and not 0.0 < lam <= FD_MAX_SNR:
            raise DomainError(f"point[{i}]={lam}: active coordinates must lie in (0, {FD_MAX_SNR:g}]")
        if lam > FD_MAX_SNR:
            raise DomainError(f"point[{i}]={lam}: coordinates must lie in [0, {FD_MAX_SNR:g}]")
    if memo is None:
        memo = {}

    def f(points: list[tuple[float, ...]]) -> list[float]:
        new = [x for x in points if x not in memo]
        memo.update(zip(new, mutual_information_many(dist, new, quad).tolist()))
        return [memo[x] for x in points]

    return fd_partial(f, request.orders, request.point)


def adjudicate_first_derivative() -> dict:
    """Settle the factor between dI/dsnr and the estimation error.

    Finite-differences the directly computed two-point mutual
    information at snr 1 and compares with the closed-form mmse and
    mmse/2.  The data picks the convention; nothing is patched by hand.
    """
    value, estimate = fd_mi_partial(two_point_input(), DerivativeRequest((1,), (1.0,)), gauss_hermite(128))
    full = closedform.two_point_mmse(1.0)
    half = 0.5 * full
    gap_half = abs(value - half)
    rel_full = abs(value - full) / full
    decided = gap_half < ADJUDICATION_TOL and rel_full > 0.1
    return {
        "convention": ADOPTED_CONVENTION,
        "measured": True,
        "snr": 1.0,
        "fd_first_derivative": value,
        "fd_error_estimate": estimate,
        "mmse_closed_form": full,
        "half_mmse": half,
        "gap_to_half_mmse": gap_half,
        "tolerance": ADJUDICATION_TOL,
        "relative_gap_to_full_mmse": rel_full,
        "verdict": "half" if decided else "ambiguous",
    }


def verify_derivatives(seed: int = 0, cases: list[DerivativeCase] | None = None) -> VerificationReport:
    """Mixed fd derivatives of I against the partition formulas.

    Per total order, the gap and the fd error estimate must both stay
    inside TOLERANCE_BY_ORDER; orders >= 2 additionally require the
    centered and uncentered formula paths to agree within CENTERING_TOL.
    Cases on the same law and quadrature order share their mi samples.
    CLI suite name: theorem1.
    """
    if cases is None:
        cases = default_derivative_cases(seed)
    memos: dict[tuple[int, int], dict] = {}
    records: list[CaseRecord] = []
    for case in cases:
        dist = case.dist
        req = case.request
        quad = gauss_hermite(case.quad_order)
        memo = memos.setdefault((id(dist), case.quad_order), {})
        fd_value, fd_error = fd_mi_partial(dist, req, quad, memo)
        tol = TOLERANCE_BY_ORDER[req.total_order]
        formula = partition_formula(dist, req, quad)
        formula_unc = centering = None
        if req.total_order > 1:
            formula_unc = partition_formula(dist, req, quad, centered=False)
            centering = abs(formula - formula_unc)
        gap = abs(fd_value - formula)
        ok = gap <= tol and fd_error <= tol and (centering is None or centering <= CENTERING_TOL)
        rel = gap / abs(formula) if formula != 0.0 else None
        records.append(
            CaseRecord(
                suite="theorem1",
                request=f"{case.name} {req.label()}",
                gap=gap,
                tol=tol,
                verdict="pass" if ok else "fail",
                fd=fd_value,
                fd_error=fd_error,
                formula=formula,
                formula_uncentered=formula_unc,
                centering_gap=centering,
                rel_gap=rel,
                detail="order 1 reference is mmse/2" if req.total_order == 1 else "",
            )
        )
    config = {
        "cases": [
            {
                "name": c.name,
                "orders": list(c.request.orders),
                "point": list(c.request.point),
                "quad_order": c.quad_order,
            }
            for c in cases
        ],
        "richardson_levels": RICHARDSON_LEVELS,
        "step_rule": f"min({BASE_STEP}, {STEP_FRACTION}*min_active_snr/stencil_halfwidth)",
        "tolerance_by_total_order": {str(k): v for k, v in TOLERANCE_BY_ORDER.items()},
        "centering_tolerance": CENTERING_TOL,
    }
    return VerificationReport(
        suite="theorem1",
        seed=seed,
        config=config,
        adjudication=adjudicate_first_derivative(),
        cases=records,
    )


def _tau_pair(atoms2, probs) -> Fraction:
    oracle = atoms_moment_oracle(atoms2, probs)
    return tau_eval(SlotBinding((1, 2)), oracle, 1)


def _project(atoms, form_a, form_b):
    out = []
    for atom in atoms:
        u = sum(c * v for c, v in zip(form_a, atom))
        w = sum(c * v for c, v in zip(form_b, atom))
        out.append((u, w))
    return out


def _quadratic_defect(atoms, probs) -> Fraction:
    """2 t(X1, X2) + 2 t(X1', X2) - t(X1 + X1', X2) - t(X1 - X1', X2) for atoms (x1, x1', x2)."""

    def t(form):
        return _tau_pair(_project(atoms, form, (0, 0, 1)), probs)

    return 2 * t((1, 0, 0)) + 2 * t((0, 1, 0)) - t((1, 1, 0)) - t((1, -1, 0))


def verify_multiquadratic(seed: int = 0) -> VerificationReport:
    """Quadratic-in-each-argument identity and independence vanishing.

    For seeded rational joints of (X1, X1', X2), checks
    2 t(X1, X2) + 2 t(X1', X2) = t(X1+X1', X2) + t(X1-X1', X2)
    and t = 0 for independent product laws, all in exact arithmetic
    (prior moments of integer atoms with rational masses).  CLI suite
    name: lemma1.
    """
    rng = random.Random(seed)
    quadratic = [_quadratic_defect(*closedform.random_rational_joint(rng, 3)) for _ in range(LEMMA1_TRIALS)]

    indep = []
    for _ in range(LEMMA1_TRIALS):
        xs, px = closedform.random_rational_joint(rng, 1)
        ys, py = closedform.random_rational_joint(rng, 1)
        atoms = [(x[0], y[0]) for x in xs for y in ys]
        probs = [p * q for p in px for q in py]
        indep.append(_tau_pair(atoms, probs))

    sign_product = _tau_pair([(1, 1), (1, -1), (-1, 1), (-1, -1)], [Fraction(1, 4)] * 4)

    degen = []
    for _ in range(10):
        atoms, probs = closedform.random_rational_joint(rng, 2)
        degen.append(_quadratic_defect([(x, 0, y) for x, y in atoms], probs))

    records = [
        _exact_row(
            "lemma1",
            f"quadratic identity, random joints [{LEMMA1_TRIALS} trials]",
            quadratic,
            "max |lhs - rhs|, exact rational evaluation",
        ),
        _exact_row(
            "lemma1",
            f"independence vanishing, product joints [{LEMMA1_TRIALS} trials]",
            indep,
            "max |t| over independent products",
        ),
        _exact_row(
            "lemma1",
            "independence vanishing, two-point product",
            [sign_product],
            fd=float(sign_product),
            formula=0.0,
        ),
        _exact_row(
            "lemma1",
            "degenerate second argument (X' = 0) [10 trials]",
            degen,
            "identity through tau(X+0) = tau(X-0)",
        ),
    ]
    support, atoms = list(closedform.COORDINATE_RANGE), closedform.ATOM_COUNT_RANGE[1]
    config = {"trials": LEMMA1_TRIALS, "support_values": support, "max_atoms": atoms, "arithmetic": "exact"}
    return VerificationReport(suite="lemma1", seed=seed, config=config, cases=records)


def verify_snr_combining(seed: int = 0) -> VerificationReport:
    """Duplicated-signal channels against their single combined channel.

    Feeding one signal to several channels carries exactly as much
    information as one channel at the summed snr; checked for the
    two-point input across three splits.  The quadrature integrates the
    duplicated law on its rank-1 difference span, so this checks that
    projection against the one-channel law.  CLI suite name: lemma2.
    This suite uses no randomness; seed is echoed into the report.
    """
    quad = gauss_hermite(LEMMA2_QUAD_ORDER)
    combined = two_point_input()
    records: list[CaseRecord] = []
    for parts in [(0.3, 0.7), (0.8, 0.0), (0.2, 0.3, 0.5)]:
        d = len(parts)
        dup = DiscreteJoint([[1.0] * d, [-1.0] * d], [0.5, 0.5])
        value = mutual_information(dup, ChannelSpec(parts), quad)
        reference = mutual_information(combined, ChannelSpec((sum(parts),)), quad)
        gap = abs(value - reference)
        records.append(
            CaseRecord(
                suite="lemma2",
                request=f"split {parts} vs {round(sum(parts), 12)}",
                gap=gap,
                tol=COMBINE_TOL,
                verdict="pass" if gap <= COMBINE_TOL else "fail",
                fd=value,
                formula=reference,
                detail="duplicated-signal mi vs combined-channel mi",
            )
        )
    config = {"quad_order": LEMMA2_QUAD_ORDER, "input": "two-point"}
    return VerificationReport(suite="lemma2", seed=seed, config=config, cases=records)


def verify_gaussian_chain(seed: int = 0) -> VerificationReport:
    """Zero-snr derivative chain for the standard Gaussian input.

    The diverse-partition form with Gaussian moments must equal the k-th
    derivative of (1/2) log(1+l) at 0, namely (-1)**(k-1) (k-1)!/2,
    exactly (both sides are rationals), for k up to GAUSSIAN_MAX_ORDER.
    The k=1 row adds the E[X**2]/2 first-order term to the bare form.
    CLI suite name: gaussian.
    This suite uses no randomness; seed is echoed into the report.
    """
    oracle = gaussian_moment_oracle()
    records: list[CaseRecord] = []
    for k in range(1, GAUSSIAN_MAX_ORDER + 1):
        value = tau_eval(SlotBinding((1,) * k), oracle, 1)
        if k == 1:
            value = value + Fraction(1, 2) * oracle((1, 1))
        reference = closedform.half_log_derivative(k)
        records.append(
            _exact_row(
                "gaussian",
                f"gaussian chain k={k}",
                [value - reference],
                "exact rational equality" + (", includes E[X^2]/2 term" if k == 1 else ""),
                fd=float(value),
                formula=float(reference),
            )
        )
    config = {"max_order": GAUSSIAN_MAX_ORDER, "arithmetic": "exact"}
    return VerificationReport(suite="gaussian", seed=seed, config=config, cases=records)


def verify_cumulant_routes(seed: int = 0) -> VerificationReport:
    """Set-partition cumulants against the moment-cumulant recursions.

    Random rational moment oracles for n up to 6, compared exactly; the
    Gaussian rows and the classic variance identity round it out.  CLI
    suite name: cumulants.
    """
    rng = random.Random(seed)

    subset = []
    for _ in range(CUMULANT_TRIALS):
        n = rng.randint(1, 6)
        oracle = closedform.random_rational_moments(rng)
        subset.append(kappa_eval(n, oracle) - kappa_recursion_oracle(n, oracle))

    univariate = []
    for _ in range(CUMULANT_TRIALS):
        n = rng.randint(1, 6)
        moments = [Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(n)]
        oracle = univariate_moment_oracle(moments)
        univariate.append(kappa_eval(n, oracle) - kappa_recursion_oracle(n, oracle, identical=True))

    gauss = gaussian_moment_oracle()
    gaussian = [kappa_eval(k, gauss) for k in range(3, 7)]

    variance = kappa_eval(2, univariate_moment_oracle([Fraction(3), Fraction(10)]))

    records = [
        _exact_row(
            "cumulants",
            f"partition sum vs subset recursion [{CUMULANT_TRIALS} trials]",
            subset,
            "exact rational equality, n in 1..6",
        ),
        _exact_row(
            "cumulants",
            f"partition sum vs univariate recursion [{CUMULANT_TRIALS} trials]",
            univariate,
            "exact rational equality, identical-variable route",
        ),
        _exact_row("cumulants", "gaussian cumulants k=3..6", gaussian, "higher Gaussian cumulants vanish exactly"),
        _exact_row("cumulants", "variance identity m=(3,10)", [variance - 1], fd=float(variance), formula=1.0),
    ]
    config = {"trials": CUMULANT_TRIALS, "max_n": 6, "arithmetic": "exact"}
    return VerificationReport(suite="cumulants", seed=seed, config=config, cases=records)


def verify_all(seed: int = 0) -> VerificationReport:
    """Every suite in SUITE_NAMES order, merged into one report; its adjudication is theorem1's."""
    runs = (run_suite(name, seed) for name in SUITE_NAMES if name != "all")
    subreports = {report.suite: report for report in runs}
    cases = [case for report in subreports.values() for case in report.cases]
    config = {"suites": {suite: report.config for suite, report in subreports.items()}}
    adjudication = subreports["theorem1"].adjudication
    return VerificationReport(suite="all", seed=seed, config=config, adjudication=adjudication, cases=cases)


# The runner of each suite token, by name: run_suite looks it up in this
# module at call time, so a wrapped runner is the one called.
SUITE_RUNNERS = dict(
    zip(
        SUITE_NAMES,
        (
            "verify_derivatives",
            "verify_multiquadratic",
            "verify_snr_combining",
            "verify_gaussian_chain",
            "verify_cumulant_routes",
            "verify_all",
        ),
        strict=True,
    )
)


def run_suite(name: str, seed: int = 0) -> VerificationReport:
    """Run a suite by its CLI token."""
    if name not in SUITE_RUNNERS:
        raise ValidationError(f"suite: {name!r} is not one of {', '.join(SUITE_NAMES)}")
    return globals()[SUITE_RUNNERS[name]](seed=seed)
