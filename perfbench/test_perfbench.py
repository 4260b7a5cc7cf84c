"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They show that each workload's checker rejects an output perturbed past
its tolerance, that a seed fixes the inputs, and that another seed
changes the laws but not the amount of work.
"""
from __future__ import annotations

import copy
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import expansions  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
import verify_all  # noqa: E402
from checks import CAP, Checks, evaluate_exact  # noqa: E402

REFERENCES = json.loads((HERE / "references.json").read_text(encoding="utf-8"))


def _checked(module, state, outputs, own_headroom=True) -> Checks:
    checks = Checks(own_headroom=own_headroom)
    module.check(state, outputs, checks)
    return checks


# ---- channel-sweep ---------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_round(tmp_path_factory):
    state = sweep.setup(3, tmp_path_factory.mktemp("sweep"))
    return state, sweep.run(state)


def test_sweep_round_passes_its_checks(sweep_round):
    state, outputs = sweep_round
    assert outputs["failed"] == []
    checks = _checked(sweep, state, outputs)
    assert checks.failures == []
    assert 13.0 < min(checks.digits) <= CAP


@pytest.mark.parametrize(
    "label_prefix, key, factor",
    [
        ("1d A=64", "mi", 1 + 10 * sweep.REL_TOL),
        ("panel A=2 snr=1.5", "mmse1", 1 - 10 * sweep.REL_TOL),
        ("product (2, 4)", "tau(1, 1)c", 1 + 10 * sweep.REL_TOL),
        ("duplicated A=8", "mi", 1 + 10 * sweep.REL_TOL),
    ],
)
def test_sweep_checker_rejects_perturbed_values(sweep_round, label_prefix, key, factor):
    state, outputs = sweep_round
    bad = copy.deepcopy(outputs)
    label = next(k for k in bad["values"] if k.startswith(label_prefix))
    bad["values"][label][key] *= factor
    assert any(label in f for f in _checked(sweep, state, bad).failures)


def test_sweep_checker_rejects_cross_terms_and_bounds(sweep_round):
    state, outputs = sweep_round
    bad = copy.deepcopy(outputs)
    label = next(k for k in bad["values"] if k.startswith("product (2, 2, 2)"))
    bad["values"][label]["tau(1, 2)c"] += 10 * sweep.VANISH_TOL
    bad["values"][label]["tau(1, 2)u"] += 10 * sweep.VANISH_TOL
    full = next(k for k in bad["values"] if k.startswith("full-rank A=8"))
    bad["values"][full]["mmse2"] = -1e-9
    failures = _checked(sweep, state, bad).failures
    assert any("vanishes" in f for f in failures)
    assert any(full in f and "mmse2" in f for f in failures)


def test_sweep_seed_fixes_inputs_and_another_seed_keeps_the_work():
    a, again, b = sweep.cases(11), sweep.cases(11), sweep.cases(12)
    for x, y in zip(a, again):
        assert np.array_equal(x["support"], y["support"]) and np.array_equal(x["probs"], y["probs"])
    assert len(a) == len(b)
    seeded_differ = 0
    for x, y in zip(a, b):
        assert (x["label"], x["snr"], x["order"], x["taus"]) == (y["label"], y["snr"], y["order"], y["taus"])
        assert x["support"].shape == y["support"].shape
        if x["kind"] != "panel":
            seeded_differ += not np.array_equal(x["support"], y["support"])
    assert seeded_differ == sum(1 for x in a if x["kind"] != "panel")


# ---- expansions ------------------------------------------------------------


@pytest.fixture(scope="module")
def expansion_round(tmp_path_factory):
    state = expansions.setup(5, tmp_path_factory.mktemp("expansions"))
    state["commands"] = expansions.commands(max_n=4)  # same code path, smaller table
    return state, expansions.run(state)


def test_expansion_round_passes_its_checks(expansion_round):
    state, outputs = expansion_round
    assert outputs["failed"] == []
    checks = _checked(expansions, state, outputs)
    assert checks.failures == []
    assert checks.count > 50
    assert min(checks.digits) == CAP


def _replace_payload(outputs, index, edit):
    bad = copy.deepcopy(outputs)
    payload = json.loads(bad["texts"][index])
    edit(payload)
    bad["texts"][index] = json.dumps(payload)
    return bad


def test_expansion_checker_rejects_a_wrong_coefficient(expansion_round):
    state, outputs = expansion_round
    index = state["commands"].index(["tau", "--multiplicities", "2,1", "--symbolic", "--format", "json"])

    def edit(payload):
        term = payload["expansion"]["terms"][0]
        term["coeff"] = str(Fraction(term["coeff"]) + Fraction(1, 1000))

    failures = _checked(expansions, state, _replace_payload(outputs, index, edit)).failures
    assert any("(2, 1)" in f for f in failures)


def test_expansion_checker_rejects_a_lost_partition_and_a_bad_graph(expansion_round):
    state, outputs = expansion_round
    index = state["commands"].index(["partitions", "--n", "3", "--graphs", "--format", "json"])

    def drop(payload):
        payload["partitions"].pop()
        payload["graphs"].pop()

    def rewire(payload):
        payload["graphs"][0] = payload["graphs"][0].replace('label="1"', 'label="2"', 1)

    assert any("n=3" in f for f in _checked(expansions, state, _replace_payload(outputs, index, drop)).failures)
    assert any("round trip" in f for f in _checked(expansions, state, _replace_payload(outputs, index, rewire)).failures)


def test_expansion_seed_changes_laws_not_work():
    assert expansions.commands() == expansions.commands()
    draw = lambda seed: [expansions.rational_law(random.Random(seed), dim) for dim in (1, 2, 3)]  # noqa: E731
    assert draw(4) == draw(4)
    assert draw(4) != draw(9)


# ---- verify-all --------------------------------------------------------------


def _fake_report() -> dict:
    """A report shaped like the program's, built from the stored references."""
    derivs = {int(k): float(v) for k, v in REFERENCES["two_point"]["derivatives"].items()}
    tols = {1: 1e-8, 2: 1e-7, 3: 1e-5, 4: 1e-3}
    cases = []
    for k in (1, 2, 3, 4):
        cases.append({"request": f"two-point d({k})@(0.8)", "fd": derivs[k] * (1 + 1e-14),
                      "formula": derivs[k], "gap": abs(derivs[k]) * 1e-14, "tol": tols[k], "verdict": "pass"})
    for k in range(1, 7):
        value = (-1) ** (k - 1) * math.factorial(k - 1) / 2
        cases.append({"request": f"gaussian chain k={k}", "fd": value, "formula": value, "gap": 0.0,
                      "tol": 0.0, "verdict": "pass"})
    return {"passed": True, "adjudication": {"verdict": "half"}, "cases": cases}


def _verify_outputs(report) -> dict:
    return {"rc": 0, "text": json.dumps(report), "report": report, "attempted": len(report["cases"]), "failed": []}


def test_verify_checker_accepts_reference_values():
    checks = _checked(verify_all, {}, _verify_outputs(_fake_report()), own_headroom=False)
    assert checks.failures == []
    assert min(checks.headroom) > 5


@pytest.mark.parametrize("row, field, shift", [(0, "fd", 2e-8), (3, "formula", 2e-3), (5, "fd", 1e-12)])
def test_verify_checker_rejects_perturbed_rows(row, field, shift):
    report = _fake_report()
    report["cases"][row][field] += shift
    failures = _checked(verify_all, {}, _verify_outputs(report), own_headroom=False).failures
    assert any(report["cases"][row]["request"] in f for f in failures)


def test_verify_checker_rejects_wrong_verdicts():
    report = _fake_report()
    report["adjudication"]["verdict"] = "ambiguous"
    report["cases"][2]["verdict"] = "fail"
    failures = _checked(verify_all, {}, _verify_outputs(report), own_headroom=False).failures
    assert any("adjudication" in f for f in failures)
    assert any("d(3)" in f for f in failures)


def test_verify_command_does_not_depend_on_the_seed(tmp_path):
    a, b = verify_all.setup(1, tmp_path), verify_all.setup(2, tmp_path)
    assert a["argv"] == b["argv"] == ["verify", "--suite", "all", "--seed", "7"]


# ---- references, exact evaluation, spans ---------------------------------------


def test_scipy_references_agree_with_the_mpmath_panel():
    for entry in REFERENCES["panel"]:
        x, p, snr = entry["support"], entry["probs"], entry["snr"]
        for fn, key in ((refs.mi_1d, "mi"), (refs.mmse_1d, "mmse"), (refs.d2_1d, "d2")):
            ref = float(entry[key])
            assert abs(fn(x, p, snr) - ref) <= 2e-13 * abs(ref), (entry["label"], key)
    derivs = REFERENCES["two_point"]["derivatives"]
    assert refs.two_point_first(0.8) == pytest.approx(float(derivs["1"]), rel=1e-13)
    assert refs.two_point_second(0.8) == pytest.approx(float(derivs["2"]), rel=1e-13)


def test_mpmath_references_are_converged():
    """tanh-sinh reports ~40 digits, and the Gauss-Hermite route agrees past float64."""
    two_point = REFERENCES["two_point"]
    for key, value in two_point["derivatives"].items():
        assert float(two_point["error_estimate"][key]) < 1e-30
        assert float(two_point["gauss_hermite_gap"][key]) < 1e-15 * abs(float(value))
    for entry in REFERENCES["panel"]:
        for key in ("mi", "mmse", "d2"):
            scale = abs(float(entry[key]))
            assert float(entry[f"{key}_error_estimate"]) < 1e-30 * scale, (entry["label"], key)
            assert float(entry[f"{key}_gauss_hermite_gap"]) < 1e-15 * scale, (entry["label"], key)


def test_evaluate_exact_matches_fraction_arithmetic():
    law = expansions.RationalMoments([(1, -2), (0, 1), (2, 2)], [3, 5, 4], central=True)
    terms = [(((1, 2), (1,)), Fraction(-3, 4)), (((2, 2),), Fraction(5, 2)), (((1,), (2,), (1, 2)), Fraction(1, 8))]

    def moment(block):
        num, e = law(block)
        return Fraction(num, law.denominator**e)

    direct = sum(c * math.prod(moment(b) for b in blocks) for blocks, c in terms)
    assert evaluate_exact(terms, law) == direct


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    with tracer.span("run"):
        with tracer.span("channel.mi", atoms=3, n=1, order=16):
            with tracer.span("channel.grid"):
                pass
        with tracer.span("fd.partial"):
            with tracer.span("channel.mi", atoms=3, n=1, order=16):
                pass
    own = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert math.isclose(sum(own), root[4] - root[3], rel_tol=1e-9, abs_tol=1e-12)
    metrics = spans.layer_metrics(tracer.spans, import_s=0.1, cases=0, output_bytes=0)
    assert metrics["channel.mi_calls"] == 2
    assert metrics["channel.tensor_terms"] == 2 * 9 * 16
    assert set(metrics) == set(spans.LAYER_UNITS)
