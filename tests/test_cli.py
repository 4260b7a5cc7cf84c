"""The mideriv command: outputs, formats, exit codes, error stream."""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mideriv
from mideriv import cli, closedform
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


def test_json_payloads_are_one_compact_line_with_sorted_keys(capsys, dist_file):
    def sorted_pairs(pairs):
        keys = [key for key, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    commands = [
        ("partitions", "--n", "3", "--graphs"),
        ("tau", "--multiplicities", "2,1", "--symbolic"),
        ("tau", "--multiplicities", "3", "--bar", "--symbolic"),
        ("tau", "--multiplicities", "1", "--dist", dist_file, "--snr", "0.8", "--quad-order", "32"),
        ("mi", "--dist", dist_file, "--snr", "1.0", "--quad-order", "32"),
    ]
    payloads = {}
    for argv in commands:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert out.endswith("\n") and out.count("\n") == 1, argv
        payload = json.loads(out, object_pairs_hook=sorted_pairs)
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out, argv
        payloads[argv[:3]] = payload
    assert payloads["tau", "--multiplicities", "3"]["pretty"] == "M2^3 - 1/2*M3^2"
    assert payloads["partitions", "--n", "3"]["count"] == 16


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


PAIR_JSON = json.dumps(
    {"n": 2, "support": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], "probs": [0.35, 0.15, 0.15, 0.35]}
)


def test_tau_refuses_a_request_that_is_no_partial_of_the_law(capsys, tmp_path):
    # with and without the fd side: three orders are no partial on two
    # channels (--no-fd once printed -0.23077152548035323)
    path = tmp_path / "pair.json"
    path.write_text(PAIR_JSON, encoding="utf-8")
    argv = ["tau", "--multiplicities", "2,0,0", "--dist", str(path), "--snr", "0.5,0.9"]
    for extra in ((), ("--no-fd",)):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2, extra
        assert out == "", extra
        assert err == "mideriv: error[domain]: orders (2, 0, 0) and point (0.5, 0.9) differ in length\n", extra


def test_tau_fd_range_belongs_to_the_fd_side(capsys, dist_file):
    # --no-fd prints every partial of the law; the fd side refuses the ones
    # finite differences do not cover, with the same messages as before
    def tau(multiplicities, snr, *extra):
        return run(capsys, "tau", "--multiplicities", multiplicities, "--dist", dist_file, "--snr", snr, *extra)

    assert tau("1", "0.0", "--no-fd") == (0, "value: 0.5\n", "")
    for multiplicities, snr in (("7", "0.8"), ("2", "0.0"), ("1", "5"), ("5", "5")):
        code, out, err = tau(multiplicities, snr, "--no-fd")
        assert code == 0 and err == "", (multiplicities, snr)
        assert math.isfinite(float(out.removeprefix("value: "))), (multiplicities, snr)
    for multiplicities, snr, message in [
        ("5", "0.8", "total order 5: finite differences cover 1..4"),
        ("1", "5", "point[0]=5.0: active coordinates must lie in (0, 4]"),
        ("1", "0.0", "point[0]=0.0: active coordinates must lie in (0, 4]"),
    ]:
        assert tau(multiplicities, snr) == (2, "", f"mideriv: error[domain]: {message}\n")
    for extra in ((), ("--no-fd",)):
        code, out, err = tau("1", "-0.1", *extra)
        assert (code, out) == (2, "")
        assert err.startswith("mideriv: error[validation]: snr: entry 0 is -0.1")


def test_mi_refuses_string_and_boolean_laws(capsys, tmp_path):
    # strings once parsed (mi 0.2885...), booleans once read as 1.0 and 0.0
    for support, probs, field in [
        ([["1"], ["-1"]], ["0.5", "0.5"], "support"),
        ([[1.0], [-1.0]], ["0.5", "0.5"], "probs"),
        ([[True], [False]], [0.5, 0.5], "support"),
    ]:
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"n": 1, "support": support, "probs": probs}), encoding="utf-8")
        code, out, err = run(capsys, "mi", "--dist", str(path), "--snr", "0.8")
        assert (code, out) == (2, ""), field
        assert err.startswith(f"mideriv: error[validation]: {field}: expected a real number"), field


def test_tau_refuses_the_other_modes_flags(capsys, dist_file):
    cases = [
        (("--bar", "--dist", dist_file, "--snr", "0.8"), "--bar"),
        (("--bar",), "--bar"),
        (("--symbolic", "--dist", "missing.json"), "--dist"),
        (("--symbolic", "--snr", "0.8"), "--snr"),
        (("--symbolic", "--bar", "--no-fd"), "--no-fd"),
    ]
    for flags, named in cases:
        code, out, err = run(capsys, "tau", "--multiplicities", "2", *flags)
        assert code == 2, flags
        assert out == "", flags
        assert err.startswith(f"mideriv: error[validation]: {named}:"), flags


def test_tau_symbolic_refuses_quad_order(capsys, dist_file):
    # a given order is refused even when it is the default; numeric mode
    # still refuses an order outside the rule's range
    for order in ("0", "64"):
        code, out, err = run(capsys, "tau", "--multiplicities", "2", "--symbolic", "--quad-order", order)
        assert code == 2, order
        assert out == "", order
        assert err.startswith("mideriv: error[validation]: --quad-order:"), order
    code, out, err = run(capsys, "tau", "--multiplicities", "2", "--dist", dist_file, "--snr", "0.8", "--quad-order", "0")
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


def test_mi_non_numeric_probs_name_the_probs_field(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "support": [[1], [2]], "probs": ["a", "b"]}', encoding="utf-8")
    code, out, err = run(capsys, "mi", "--dist", str(path), "--snr", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("mideriv: error[validation]: probs: ")


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


def test_python_dash_m_runs_the_command():
    # the checkout's package, as imported here, run as ``python -m mideriv``
    env = dict(os.environ, PYTHONPATH=str(Path(mideriv.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "mideriv", "verify", "--suite", "lemma2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"] is True


def test_package_imports_no_scipy():
    # a fresh interpreter, so modules loaded by the test session do not count
    env = dict(os.environ, PYTHONPATH=str(Path(mideriv.__file__).parents[1]))
    code = (
        "import sys\n"
        "import mideriv.cli\n"
        "from mideriv import closedform\n"
        "closedform.two_point_mi(1.0)\n"
        "closedform.two_point_mmse(1.0)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


# SHA-256 of standard output, recorded before the exact-combinatorics path
# was reworked for speed; every byte of these outputs must stay the same.
OUTPUT_DIGESTS = {
    ("partitions", "--n", "5", "--graphs", "--format", "json"):
        "f3aaa40a8c8e937c4c3256ddd3cb965fe7eae928a1074f2d580f35041b537aaf",
    ("partitions", "--n", "4", "--min-block-size", "2", "--format", "dot"):
        "06baa1a67ba335fe75afcbe8533f77933ba46a4975ee5ff6a6f0c38554f7345e",
    ("tau", "--multiplicities", "2,1,1,1", "--symbolic", "--format", "json"):
        "d1fa3a9672e30ae15611be0f13392a0baf35226e460a36bc68b42cc4cfd4460b",
    ("tau", "--multiplicities", "2,1,1,1", "--symbolic", "--format", "json", "--bar"):
        "332e220f44af40b5eba5c2939c846010d64d21da04b524183d805364b5a10163",
    ("tau", "--multiplicities", "1,1,1,1,1", "--symbolic"):
        "32b584406dc77487b318109e34a7a407ce399e0456f8817bf3486ad79009415a",
}


@pytest.mark.parametrize("argv", list(OUTPUT_DIGESTS), ids=" ".join)
def test_exact_outputs_keep_their_bytes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == OUTPUT_DIGESTS[argv]


@pytest.fixture()
def restore_collector():
    # each test below sets the collector itself; put the test run's setting back
    before = gc.isenabled()
    yield
    if before:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("partitions", "--n", "3"), 0),
        (("partitions", "--n", "9"), 2),  # error[size-limit]
        (("tau", "--no-such-flag"), 2),  # argparse exits
    ],
    ids=["success", "error", "usage"],
)
def test_main_gives_back_an_enabled_collector(capsys, restore_collector, argv, expected):
    gc.enable()
    assert main(list(argv)) == expected
    capsys.readouterr()
    assert gc.isenabled()


def test_main_pauses_the_collector_during_the_command(capsys, restore_collector, monkeypatch):
    seen = []

    def enumerate_and_look(*args):
        seen.append(gc.isenabled())
        return enumerate_diverse(*args)

    monkeypatch.setattr(cli, "enumerate_diverse", enumerate_and_look)
    gc.enable()
    assert main(["partitions", "--n", "3"]) == 0
    capsys.readouterr()
    assert seen == [False]
    assert gc.isenabled()


def test_main_leaves_a_disabled_collector_disabled(capsys, restore_collector):
    gc.disable()
    assert main(["partitions", "--n", "3"]) == 0
    assert main(["partitions", "--n", "9"]) == 2
    assert main(["tau", "--no-such-flag"]) == 2
    capsys.readouterr()
    assert not gc.isenabled()


def test_parser_is_built_once_and_commands_are_looked_up_when_called(capsys, monkeypatch):
    # a wrapper put on cli.cmd_tau after import is the command that runs,
    # and successive calls share one parser
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    seen = []
    monkeypatch.setattr(cli, "cmd_tau", lambda args: seen.append(args.multiplicities) or 0)
    assert main(["tau", "--multiplicities", "1,1", "--symbolic"]) == 0
    assert main(["tau", "--multiplicities", "2", "--symbolic"]) == 0
    assert seen == ["1,1", "2"]
    assert main(["partitions", "--n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "count: 3"
    assert builds == [1]


def test_successive_calls_print_what_fresh_processes_print(capsys, dist_file):
    # one process, each command twice, against ``python -m mideriv``
    env = dict(os.environ, PYTHONPATH=str(Path(mideriv.__file__).parents[1]))
    commands = [
        ["tau", "--multiplicities", "2,1", "--symbolic", "--bar", "--format", "json"],
        ["tau", "--multiplicities", "1", "--snr", "0.5"],
        ["partitions", "--n", "3", "--min-block-size", "2"],
        ["mi", "--dist", dist_file, "--snr", "0.8", "--format", "json"],
        ["verify", "--suite", "no-such-suite"],
    ]
    for argv in commands:
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
        done = subprocess.run(
            [sys.executable, "-m", "mideriv", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (done.returncode, done.stdout, done.stderr) == first, argv
