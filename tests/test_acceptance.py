"""Acceptance gate: one test per criterion, run at the pinned tolerances.

Each test prints as its own pass/fail line under `pytest -v`.  Stated
runtime bounds are asserted with a wall clock started after the
session warmup (kernel compilation and quadrature caches), which the
shared fixtures provide.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

from mideriv.channel import DiscreteJoint, ChannelSpec, gauss_hermite, mutual_information
from mideriv.cli import main
from mideriv.closedform import half_log_derivative
from mideriv.forms import SlotBinding, gaussian_moment_oracle, tau_eval, tau_symbolic
from mideriv.partitions import brute_force_diverse, enumerate_diverse
from mideriv.verify import verify_cumulant_routes, verify_multiquadratic, verify_snr_combining


def test_criterion_01_partition_sets_match_oracle(warmup):
    start = time.perf_counter()
    for n in range(1, 6):
        assert set(enumerate_diverse(n)) == set(brute_force_diverse(n))
    assert len(enumerate_diverse(3, 2)) == 2
    assert len(enumerate_diverse(4, 2)) == 16
    assert time.perf_counter() - start < 10.0


def test_criterion_02_symbolic_collapses_exact(warmup):
    start = time.perf_counter()
    # keyed by the multiset of posterior-moment orders in each product:
    # M2^2 is (2, 2), M3^2*M2 is (3, 3, 2), and so on
    expected = {
        2: {(2, 2): Fraction(-1, 2)},
        3: {(2, 2, 2): Fraction(1), (3, 3): Fraction(-1, 2)},
        4: {
            (2, 2, 2, 2): Fraction(-15, 2),
            (3, 3, 2): Fraction(6),
            (4, 2, 2): Fraction(3),
            (4, 4): Fraction(-1, 2),
        },
    }
    for n, want in expected.items():
        expansion = tau_symbolic(SlotBinding((1,) * n), min_block_size=2)
        got = {
            tuple(sorted((len(b) for b in mono), reverse=True)): coeff
            for mono, coeff in expansion.terms
        }
        assert got == want
    assert time.perf_counter() - start < 1.0


def test_criterion_03_gaussian_chain_exact(warmup):
    start = time.perf_counter()
    oracle = gaussian_moment_oracle()
    for k in range(1, 8):
        value = tau_eval(SlotBinding((1,) * k), oracle, 1)
        if k == 1:
            value = value + Fraction(1, 2) * oracle((1, 1))
        assert value == half_log_derivative(k)
        assert value == Fraction((-1) ** (k - 1) * math.factorial(k - 1), 2)
    assert time.perf_counter() - start < 5.0


def test_criterion_04_derivative_numerics(derivative_run):
    report, elapsed = derivative_run
    assert elapsed < 120.0
    assert len(report.cases) == 12
    by_order = {1: 1e-8, 2: 1e-7, 3: 1e-5, 4: 1e-3}
    for case in report.cases:
        assert case.verdict == "pass", case.request
        assert case.tol == by_order[_total_order(case.request)]
        assert case.gap <= case.tol


def _total_order(request: str) -> int:
    inside = request.split("d(", 1)[1].split(")", 1)[0]
    return sum(int(x) for x in inside.split(","))


def test_criterion_05_half_convention_adjudicated(derivative_run):
    report, _ = derivative_run
    adj = report.adjudication
    assert adj["verdict"] == "half"
    assert adj["gap_to_half_mmse"] < 1e-8
    assert adj["relative_gap_to_full_mmse"] > 0.1


def test_criterion_06_duplicated_signal_equals_combined_channel(warmup):
    start = time.perf_counter()
    report = verify_snr_combining()
    assert report.passed
    assert len(report.cases) == 3
    for case in report.cases:
        assert case.gap <= 1e-10
    # direct spot check for the first split, without the suite plumbing
    dup = DiscreteJoint([[1.0, 1.0], [-1.0, -1.0]], [0.5, 0.5])
    quad = gauss_hermite(64)
    direct = mutual_information(dup, ChannelSpec((0.3, 0.7)), quad)
    combined = mutual_information(DiscreteJoint([[1.0], [-1.0]], [0.5, 0.5]), ChannelSpec((1.0,)), quad)
    assert abs(direct - combined) <= 1e-10
    assert time.perf_counter() - start < 10.0


def test_criterion_07_multiquadratic_and_independence(warmup):
    start = time.perf_counter()
    report = verify_multiquadratic(seed=0)
    assert report.passed
    quadratic = report.cases[0]
    independence = report.cases[1]
    assert "100 trials" in quadratic.request
    assert quadratic.gap <= 1e-9
    assert "100 trials" in independence.request
    assert independence.gap <= 1e-10
    assert time.perf_counter() - start < 30.0


def test_criterion_08_cumulant_routes_exact(warmup):
    start = time.perf_counter()
    report = verify_cumulant_routes(seed=0)
    assert report.passed
    assert all(case.gap == 0.0 for case in report.cases)
    assert time.perf_counter() - start < 10.0


def test_criterion_09_centering_identity(derivative_run):
    report, _ = derivative_run
    higher = [case for case in report.cases if _total_order(case.request) >= 2]
    assert len(higher) == 9
    for case in higher:
        assert case.centering_gap is not None
        assert case.centering_gap <= 1e-11, case.request
    for case in report.cases:
        if _total_order(case.request) == 1:
            assert case.centering_gap is None


def test_criterion_10_verify_all_is_byte_deterministic(tmp_path, warmup, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["verify", "--suite", "all", "--seed", "7", "--out", str(first)]) == 0
    assert main(["verify", "--suite", "all", "--seed", "7", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")
