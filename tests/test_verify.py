"""Verification suites, reports, and their serialization."""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mideriv import ChannelSpec, DiscreteJoint, closedform, fd, gauss_hermite, verify
from mideriv.errors import DomainError, ValidationError
from mideriv.verify import (
    CENTERING_TOL,
    TOLERANCE_BY_ORDER,
    DerivativeCase,
    DerivativeRequest,
    default_derivative_cases,
    run_suite,
    verify_cumulant_routes,
    verify_derivatives,
    verify_gaussian_chain,
    verify_multiquadratic,
    verify_snr_combining,
    two_point_input,
)


def test_request_validation():
    req = DerivativeRequest((2, 1), (0.5, 0.9))
    assert req.total_order == 3
    assert req.label() == "d(2,1)@(0.5,0.9)"
    with pytest.raises(DomainError):
        DerivativeRequest((0, 0), (0.5, 0.5))
    with pytest.raises(DomainError):
        DerivativeRequest((1, 0), (0.5,))
    for bad in (1.9, "1", True):  # checked, never truncated or parsed
        with pytest.raises(DomainError, match="orders"):
            DerivativeRequest((bad,), (0.8,))
    assert DerivativeRequest((np.int64(2),), (0.8,)).orders == (2,)
    # partials finite differences do not cover are still partials of I;
    # fd_mi_partial refuses them (test_fd_side_refuses_what_it_cannot_cover)
    assert DerivativeRequest((3, 2), (0.5, 0.5)).total_order == 5
    assert DerivativeRequest((1,), (0.0,)).point == (0.0,)


def test_request_point_follows_the_channel_snr_rule():
    # the point goes through ChannelSpec: the same refusals, the same error type
    for bad in ((-0.1,), (float("inf"),), ("0.5",), (True,), ()):
        with pytest.raises(ValidationError, match="^snr: "):
            ChannelSpec(bad)
        with pytest.raises(ValidationError, match="^snr: "):
            DerivativeRequest((1,) * max(len(bad), 1), bad)
    assert DerivativeRequest((1, 0), (np.float64(0.5), 2)).point == (0.5, 2.0)


def test_fd_side_refuses_what_it_cannot_cover():
    law, quad = two_point_input(), gauss_hermite(16)
    pair = verify.correlated_pair_input()
    with pytest.raises(DomainError, match=r"^total order 5: finite differences cover 1\.\.4$"):
        verify.fd_mi_partial(pair, DerivativeRequest((3, 2), (0.5, 0.5)), quad)
    with pytest.raises(DomainError, match=r"^point\[0\]=0\.0: active coordinates must lie in \(0, 4\]$"):
        verify.fd_mi_partial(law, DerivativeRequest((1,), (0.0,)), quad)
    with pytest.raises(DomainError, match=r"^point\[0\]=5\.0: active coordinates must lie in \(0, 4\]$"):
        verify.fd_mi_partial(law, DerivativeRequest((1,), (5.0,)), quad)
    with pytest.raises(DomainError, match=r"^point\[1\]=4\.5: coordinates must lie in \[0, 4\]$"):
        verify.fd_mi_partial(pair, DerivativeRequest((1, 0), (0.5, 4.5)), quad)
    # the edges of the range are inside it
    for request in (DerivativeRequest((1,), (4.0,)), DerivativeRequest((4,), (0.8,))):
        value, _ = verify.fd_mi_partial(law, request, quad)
        assert math.isfinite(value)
    verify.fd_mi_partial(pair, DerivativeRequest((1, 0), (0.5, 0.0)), quad)


def test_battery_refuses_an_uncovered_case_on_the_fd_side():
    # the tolerance is read after the fd side has checked the range, so
    # an order without a budget is a DomainError, not a missing key
    case = DerivativeCase("two", two_point_input(), DerivativeRequest((5,), (0.8,)), 16)
    with pytest.raises(DomainError, match="^total order 5"):
        verify_derivatives(cases=[case])


def test_partition_formula_takes_only_partials_of_the_law():
    pair, quad = verify.correlated_pair_input(), gauss_hermite(64)
    # once read as mmse_1 / 2 = 0.3035931...
    for orders in ((2, -1), (0.5, 0.5), (True, 0)):
        with pytest.raises(DomainError, match="orders"):
            verify.partition_formula(pair, DerivativeRequest(orders, (0.5, 0.9)), quad)
    # a request on another channel count than the law's
    for orders, point in (((2, 0, 0), (0.5, 0.9)), ((1,), (0.5, 0.9))):
        with pytest.raises(DomainError, match="differ in length"):
            verify.partition_formula(pair, DerivativeRequest(orders, point), quad)
    for orders, point in (((2,), (0.5,)), ((1, 0, 0), (0.5, 0.9, 0.3))):
        with pytest.raises(DomainError, match="channels but the distribution has 2"):
            verify.partition_formula(pair, DerivativeRequest(orders, point), quad)
    # past the fd range the formula still answers
    tp = two_point_input()
    assert verify.partition_formula(tp, DerivativeRequest((1,), (0.0,)), quad) == 0.5
    assert math.isfinite(verify.partition_formula(tp, DerivativeRequest((5,), (5.0,)), quad))


def test_step_rule_in_the_config_reads_fd_constants(derivative_run):
    report, _ = derivative_run
    assert report.config["step_rule"] == "min(0.2, 0.9*min_active_snr/stencil_halfwidth)"
    assert (fd.BASE_STEP, fd.STEP_FRACTION) == (0.2, 0.9)


def test_tolerance_schedule_is_pinned():
    assert TOLERANCE_BY_ORDER == {1: 1e-8, 2: 1e-7, 3: 1e-5, 4: 1e-3}
    assert CENTERING_TOL == 1e-11


def test_derivative_suite_battery(derivative_run):
    report, _ = derivative_run
    assert report.suite == "theorem1"
    assert report.passed
    assert len(report.cases) == 12
    names = [c.request.split()[0] for c in report.cases]
    assert names.count("two-point") == 4
    assert names.count("pair") == 5
    assert names.count("triple") == 3
    for case in report.cases:
        assert case.fd_error is not None and case.fd_error <= case.tol


def test_triple_first_order_passes_for_every_seed():
    # the battery's seeded n=3 law must pass on any seed, not only on
    # the seeds that reports happen to use
    seeds = range(12, 80)
    cases = [
        case
        for seed in seeds
        for case in default_derivative_cases(seed)
        if case.name == "triple" and case.request.orders == (1, 0, 0)
    ]
    report = verify_derivatives(cases=cases)
    failed = [(seed, c.gap) for seed, c in zip(seeds, report.cases) if c.verdict != "pass"]
    assert failed == []


def test_a_law_at_two_quadrature_orders_keeps_two_sample_sets():
    # a GH-16 case run first must not lend its mi samples to a GH-300
    # case on the same law
    law = two_point_input()
    request = DerivativeRequest((2,), (0.8,))
    both = verify_derivatives(
        cases=[DerivativeCase("lo", law, request, 16), DerivativeCase("hi", law, request, 300)]
    )
    alone = verify_derivatives(cases=[DerivativeCase("hi", law, request, 300)])
    assert both.cases[1] == alone.cases[0]
    assert both.cases[1].passed


def test_cases_on_one_law_and_rule_share_mi_samples(monkeypatch):
    calls = []
    many = verify.mutual_information_many
    monkeypatch.setattr(verify, "mutual_information_many", lambda d, snrs, q: calls.extend(snrs) or many(d, snrs, q))
    law = two_point_input()
    cases = [DerivativeCase("two", law, DerivativeRequest((k,), (0.8,)), 16) for k in (1, 2)]
    verify_derivatives(cases=cases)
    shared = len(calls)
    calls.clear()
    for case in cases:
        verify_derivatives(cases=[case])
    assert shared < len(calls)


def test_a_law_shifted_off_zero_passes_its_battery_row():
    # both conditional forms are taken about the own atom, so the
    # two-point law moved to {4, 6} keeps the centring identity; with
    # raw moments about 0 its uncentred d(4) was 1.2e-8 off
    shifted = DiscreteJoint([[6.0], [4.0]], [0.5, 0.5])
    case = DerivativeCase("two-point + 5", shifted, DerivativeRequest((4,), (0.8,)), 128)
    (row,) = verify_derivatives(cases=[case]).cases
    assert row.passed, row
    assert row.centering_gap <= CENTERING_TOL


def test_formula_matches_the_stored_two_point_references():
    # 40-digit mpmath values, made apart from mideriv (see the file's provenance)
    data = json.loads((Path(__file__).parent / "data" / "two_point_references.json").read_text(encoding="utf-8"))
    dist = DiscreteJoint(data["support"], data["probs"])
    quad = gauss_hermite(300)
    assert sorted(data["derivatives"]) == ["1", "2", "3", "4"]
    for order, text in data["derivatives"].items():
        reference = Fraction(text)
        value = verify.partition_formula(dist, DerivativeRequest((int(order),), (data["snr"],)), quad)
        assert abs(Fraction(value) - reference) <= Fraction(1, 10**13) * abs(reference), order


def test_adjudication_is_recorded(derivative_run):
    report, _ = derivative_run
    adj = report.adjudication
    assert adj["measured"] is True
    assert adj["verdict"] == "half"
    assert adj["gap_to_half_mmse"] < adj["tolerance"]
    assert adj["relative_gap_to_full_mmse"] > 0.1


def test_quadratic_suite_passes_exactly():
    report = verify_multiquadratic(seed=0)
    assert report.passed
    assert [c.gap for c in report.cases] == [0.0, 0.0, 0.0, 0.0]
    assert [c.tol for c in report.cases] == [0.0, 0.0, 0.0, 0.0]


def test_quadratic_rows_need_exact_equality(monkeypatch):
    monkeypatch.setattr(verify, "_quadratic_defect", lambda atoms, probs: Fraction(1, 10**12))
    report = verify_multiquadratic(seed=0)
    rows = [report.cases[0], report.cases[3]]
    assert [c.verdict for c in rows] == ["fail", "fail"]
    assert [c.gap for c in rows] == [1e-12, 1e-12]


def test_snr_combining_suite_passes():
    report = verify_snr_combining()
    assert report.passed
    assert len(report.cases) == 3
    for case in report.cases:
        assert case.gap <= 1e-10


def test_gaussian_chain_suite_exact():
    report = verify_gaussian_chain()
    assert report.passed
    assert [c.fd for c in report.cases] == [0.5, -0.5, 1.0, -3.0, 12.0, -60.0]
    assert all(c.tol == 0.0 for c in report.cases)


def test_gaussian_rows_need_exact_equality(monkeypatch):
    exact = closedform.half_log_derivative
    monkeypatch.setattr(closedform, "half_log_derivative", lambda k: exact(k) + Fraction(1, 10**30))
    report = verify_gaussian_chain()
    assert [c.verdict for c in report.cases] == ["fail"] * 6
    assert all(c.gap == 1e-30 for c in report.cases)


def test_cumulant_suite_exact():
    report = verify_cumulant_routes(seed=0)
    assert report.passed
    assert all(c.gap == 0.0 for c in report.cases)


def test_cumulant_rows_report_the_largest_difference(monkeypatch):
    recursion = verify.kappa_recursion_oracle
    monkeypatch.setattr(verify, "kappa_recursion_oracle", lambda *a, **k: recursion(*a, **k) + Fraction(1, 4))
    report = verify_cumulant_routes(seed=0)
    assert [c.verdict for c in report.cases[:2]] == ["fail", "fail"]
    assert [c.gap for c in report.cases[:2]] == [0.25, 0.25]


def test_report_json_shape_and_determinism():
    a = verify_multiquadratic(seed=3)
    b = verify_multiquadratic(seed=3)
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert payload["schema"] == 1
    assert payload["suite"] == "lemma1"
    assert payload["seed"] == 3
    assert payload["passed"] is True
    assert {"config", "adjudication", "cases"} <= set(payload)
    assert payload["adjudication"]["measured"] is False
    assert a.to_json().endswith("\n")


def test_report_csv_layout():
    report = verify_gaussian_chain()
    text = report.to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["request", "fd", "formula", "gap", "tol", "verdict"]
    assert len(rows) == len(report.cases) + 1
    assert rows[1][0] == "gaussian chain k=1"
    assert rows[1][5] == "pass"
    # empty cells where a column does not apply
    quad = verify_multiquadratic(seed=0)
    first = list(csv.reader(io.StringIO(quad.to_csv())))[1]
    assert first[1] == "" and first[2] == ""


def test_csv_quotes_requests_with_commas(derivative_run):
    report, _ = derivative_run
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    requests = [r[0] for r in rows[1:]]
    assert "pair d(2,1)@(0.5,0.9)" in requests


def test_run_suite_dispatch_and_bad_name():
    report = run_suite("gaussian", seed=5)
    assert report.suite == "gaussian"
    assert report.seed == 5
    with pytest.raises(ValidationError):
        run_suite("theorem2")


def test_all_runs_the_runners_the_module_holds(derivative_run, monkeypatch):
    # run_suite looks each runner up at call time, so a suite and "all"
    # call the one patched onto the module (as a traced run wraps them),
    # and "all" merges the five single-suite reports in suite order
    theorem1, _ = derivative_run
    calls = []
    monkeypatch.setattr(verify, "verify_derivatives", lambda seed: calls.append(seed) or theorem1)
    assert run_suite("theorem1", seed=0) is theorem1
    merged = run_suite("all", seed=0)
    assert calls == [0, 0]
    parts = [theorem1] + [run_suite(name, seed=0) for name in ("lemma1", "lemma2", "gaussian", "cumulants")]
    expected = verify.VerificationReport(
        suite="all",
        seed=0,
        config={"suites": {part.suite: part.config for part in parts}},
        adjudication=theorem1.adjudication,
        cases=[case for part in parts for case in part.cases],
    )
    assert merged.to_json() == expected.to_json()


def test_all_takes_the_adjudication_of_theorem1_in_any_suite_order(derivative_run, monkeypatch):
    # with theorem1 run last, the merged report still carries its
    # measured adjudication, not the unmeasured note of the first suite
    theorem1, _ = derivative_run
    monkeypatch.setattr(verify, "verify_derivatives", lambda seed: theorem1)
    monkeypatch.setattr(verify, "SUITE_NAMES", ("lemma1", "lemma2", "gaussian", "cumulants", "theorem1", "all"))
    merged = run_suite("all", seed=0)
    assert merged.adjudication == theorem1.adjudication
    assert merged.adjudication["measured"] is True
    assert list(merged.config["suites"]) == ["lemma1", "lemma2", "gaussian", "cumulants", "theorem1"]
