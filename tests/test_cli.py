"""The mideriv command: outputs, formats, exit codes, error stream."""
from __future__ import annotations

import json
import math

import pytest

from mideriv import closedform
from mideriv.cli import main
from mideriv.partitions import enumerate_diverse
from mideriv.verify import default_derivative_cases, verify_derivatives

TWO_POINT_JSON = '{"n": 1, "support": [[1.0], [-1.0]], "probs": [0.5, 0.5]}\n'


@pytest.fixture()
def dist_file(tmp_path):
    path = tmp_path / "two_point.json"
    path.write_text(TWO_POINT_JSON, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partitions_restricted_count(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "4", "--min-block-size", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 16"


def test_partitions_trivial_count(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["0: {1}{1}", "count: 1"]


def test_partitions_count_matches_library_oracle(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "5")
    assert code == 0
    assert out.strip().splitlines()[-1] == f"count: {len(enumerate_diverse(5))}"


def test_partitions_json_schema(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "3", "--min-block-size", "2", "--format", "json", "--graphs")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["count"] == 2
    assert len(payload["partitions"]) == 2
    assert len(payload["graphs"]) == 2
    assert payload["graphs"][0].startswith("graph p0 {")


def test_partitions_dot_format(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "2", "--min-block-size", "2", "--format", "dot")
    assert code == 0
    assert 'v0 -- v1 [label="1"];' in out
    assert out.strip().endswith("// count: 1")


def test_partitions_size_limit_error(capsys):
    code, out, err = run(capsys, "partitions", "--n", "9")
    assert code == 2
    assert out == ""
    assert err.startswith("mideriv: error[size-limit]:")


def test_tau_symbolic_size_limit_error(capsys):
    code, out, err = run(capsys, "tau", "--multiplicities", "4,4", "--symbolic")
    assert code == 2
    assert out == ""
    assert err.startswith("mideriv: error[size-limit]:")


def test_tau_symbolic_identical_collapse(capsys):
    code, out, _ = run(capsys, "tau", "--multiplicities", "3", "--bar", "--symbolic")
    assert code == 0
    assert out.splitlines()[0] == "M2^3 - 1/2*M3^2"


def test_tau_symbolic_single_slot_centered_is_zero(capsys):
    code, out, _ = run(capsys, "tau", "--multiplicities", "1", "--bar", "--symbolic")
    assert code == 0
    assert out.splitlines() == ["0", "terms: 0"]


def test_tau_symbolic_json(capsys):
    code, out, _ = run(capsys, "tau", "--multiplicities", "2", "--bar", "--symbolic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["pretty"] == "-1/2*M2^2"
    assert payload["expansion"]["terms"][0]["coeff"] == "-1/2"


def test_tau_numeric_prints_fd_gap(capsys, dist_file):
    code, out, _ = run(
        capsys, "tau", "--multiplicities", "2", "--dist", dist_file,
        "--snr", "0.8", "--quad-order", "64", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "numeric"
    assert payload["gap"] < 1e-7
    assert payload["fd_error"] < 1e-7


def test_tau_numeric_gives_the_battery_row(capsys, dist_file):
    # the command runs the theorem1 check: same fd, fd error, formula and gap
    code, out, _ = run(
        capsys, "tau", "--multiplicities", "2", "--dist", dist_file,
        "--snr", "0.8", "--quad-order", "128", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    cases = [c for c in default_derivative_cases(7) if c.name == "two-point" and c.request.orders == (2,)]
    assert [(c.request.point, c.quad_order) for c in cases] == [((0.8,), 128)]
    row = verify_derivatives(7, cases=cases).cases[0]
    assert payload["fd"] == row.fd
    assert payload["fd_error"] == row.fd_error
    assert payload["value"] == row.formula
    assert payload["gap"] == row.gap


def test_tau_numeric_past_fd_orders_needs_no_fd(capsys, dist_file):
    # finite differences cover total orders 1..4; the formula alone does not stop there
    argv = ["tau", "--multiplicities", "5", "--dist", dist_file, "--snr", "0.8", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--no-fd")
    assert code == 0
    payload = json.loads(out)
    assert math.isfinite(payload["value"])
    assert "fd" not in payload
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("mideriv: error[domain]:")


def test_tau_numeric_without_dist_is_an_error(capsys):
    code, _, err = run(capsys, "tau", "--multiplicities", "2")
    assert code == 2
    assert err.startswith("mideriv: error[validation]:")


def test_mi_zero_snr(capsys, dist_file):
    code, out, _ = run(capsys, "mi", "--dist", dist_file, "--snr", "0")
    assert code == 0
    assert out.strip() == "mutual information: 0.0 nats"


def test_mi_matches_closed_form(capsys, dist_file):
    code, out, _ = run(
        capsys, "mi", "--dist", dist_file, "--snr", "1.0", "--quad-order", "128", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert abs(payload["value"] - closedform.two_point_mi(1.0)) < 1e-12


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_mi_non_finite_value_is_an_underflow_error(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1, "support": [[1e200], [-1e200]], "probs": [0.5, 0.5]}\n', encoding="utf-8")
    # atoms 2e200 apart are a well-posed law: mi is log 2
    code, out, _ = run(capsys, "mi", "--dist", str(path), "--snr", "1", "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["value"] - math.log(2)) < 1e-15
    # at snr 1e300 the signal sqrt(snr) * x itself overflows float64
    code, out, err = run(capsys, "mi", "--dist", str(path), "--snr", "1e300")
    assert code == 2
    assert out == ""
    assert err.startswith("mideriv: error[underflow]:")


def test_mi_missing_file_gives_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "mi", "--dist", str(tmp_path / "absent.json"), "--snr", "1")
    assert code == 2
    assert err.startswith("mideriv: error[io]:")


def test_mi_invalid_dist_payload(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "support": [[1.0], [-1.0]], "probs": [0.9, 0.9]}', encoding="utf-8")
    code, _, err = run(capsys, "mi", "--dist", str(path), "--snr", "1")
    assert code == 2
    assert err.startswith("mideriv: error[validation]: probs")


def test_mi_binary_dist_file_is_a_validation_error(capsys, tmp_path):
    path = tmp_path / "law.bin"
    path.write_bytes(b"\x80\xff{\"n\": 1}")
    code, out, err = run(capsys, "mi", "--dist", str(path), "--snr", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("mideriv: error[validation]: dist file")
    assert "UTF-8" in err


def test_mi_rank_above_limit_is_size_limit(capsys, tmp_path):
    # five atoms in general position on four channels: difference rank 4
    support = [[0.0] * 4] + [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    path = tmp_path / "rank4.json"
    path.write_text(json.dumps({"n": 4, "support": support, "probs": [0.2] * 5}), encoding="utf-8")
    code, out, err = run(capsys, "mi", "--dist", str(path), "--snr", "1,1,1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("mideriv: error[size-limit]:")


def test_bad_snr_text(capsys, dist_file):
    code, _, err = run(capsys, "mi", "--dist", dist_file, "--snr", "one")
    assert code == 2
    assert err.startswith("mideriv: error[validation]: snr")


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "theorem2")
    assert code == 2
    assert "invalid choice" in err


def test_verify_gaussian_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "gaussian")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert "6/6 cases passed" in err


def test_verify_lemma2_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "lemma2")
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "3/3 cases passed" in err


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cumulants", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "request,fd,formula,gap,tol,verdict"


def test_verify_table_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gaussian", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].startswith("PASS")


def test_verify_out_file_and_byte_determinism(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify", "--suite", "lemma1", "--seed", "4", "--out", str(first)]) == 0
    assert main(["verify", "--suite", "lemma1", "--seed", "4", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "partitions" in out
