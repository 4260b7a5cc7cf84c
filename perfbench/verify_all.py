"""Workload ``verify-all``: the lab's headline command, in process.

Timed: ``mideriv verify --suite all --seed 7 --out <file>`` through
``mideriv.cli.main``.  The program seed stays 7 whatever the benchmark
seed: on seeds drawn at random the battery's seeded n=3 law fails its
own ``d(1,0,0)`` tolerance about one time in seven (10 of seeds 12..79),
so a seeded program run would fail on some seeds and not others.  The
benchmark seed therefore changes nothing here; the seeded laws live in
``channel-sweep``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from checks import Checks

PROGRAM_SEED = 7
TWO_POINT_SNR = 0.8
# Rules the battery uses, by order: the tensor dimensions it builds.
GRIDS = {128: (1,), 64: (1, 2, 3), 40: (3,)}
REFERENCES = Path(__file__).resolve().parent / "references.json"


def setup(seed: int, scratch: Path) -> dict:
    from mideriv import channel
    import mideriv.cli  # noqa: F401

    for order, dims in GRIDS.items():
        rule = channel.gauss_hermite(order)
        for dim in dims:
            rule.tensor(dim)
    return {
        "argv": ["verify", "--suite", "all", "--seed", str(PROGRAM_SEED)],
        "report": scratch / f"verify-all-report-{seed}.json",
    }


def run(state: dict) -> dict:
    from mideriv import cli

    argv = state["argv"] + ["--out", str(state["report"])]
    err = io.StringIO()
    failed = []
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        rc = None
        failed.append(f"verify: {exc!r}")
    text = state["report"].read_text(encoding="utf-8") if state["report"].exists() else ""
    state["report"].unlink(missing_ok=True)
    report = json.loads(text) if text else {"cases": []}
    if not report["cases"]:
        failed.append(f"verify: exit {rc}, no report: {err.getvalue().strip()}")
    return {"rc": rc, "text": text, "report": report, "attempted": max(1, len(report["cases"])), "failed": failed}


def digest_material(outputs: dict):
    return outputs["text"]


def output_bytes(outputs: dict) -> int:
    return len(outputs["text"].encode("utf-8"))


def check(state: dict, outputs: dict, checks: Checks) -> None:
    import refs

    report = outputs["report"]
    checks.holds("verify exit status is 0", outputs["rc"] == 0, f"exit {outputs['rc']}")
    checks.holds("report says passed", report.get("passed") is True)
    verdict = report.get("adjudication", {}).get("verdict")
    checks.holds("adjudication verdict is half", verdict == "half", f"verdict {verdict!r}")

    mp_refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["two_point"]
    mp_derivs = {int(k): float(v) for k, v in mp_refs["derivatives"].items()}
    scipy_derivs = {1: refs.two_point_first(TWO_POINT_SNR), 2: refs.two_point_second(TWO_POINT_SNR)}
    for k in (1, 2):
        gap = abs(scipy_derivs[k] - mp_derivs[k])
        checks.holds(f"scipy d{k} agrees with mpmath", gap <= 1e-12 * abs(mp_derivs[k]), f"gap {gap:.3e}")

    for case in report["cases"]:
        name = case["request"]
        checks.holds(f"{name} passes", case["verdict"] == "pass", f"verdict {case['verdict']!r}")
        checks.report_row(name, case["gap"], case["tol"])
        if name.startswith("two-point d("):
            k = int(name[len("two-point d(")])
            for field in ("fd", "formula"):
                checks.within(f"{name} {field} vs mpmath", case[field], mp_derivs[k], case["tol"])
                if k in scipy_derivs:
                    checks.within(f"{name} {field} vs scipy", case[field], scipy_derivs[k], case["tol"], scored=False)
        elif name.startswith("gaussian chain k="):
            k = int(name[len("gaussian chain k="):])
            reference = Fraction((-1) ** (k - 1) * math.factorial(k - 1), 2)
            for field in ("fd", "formula"):
                checks.exact(f"{name} {field}", Fraction(case[field]), reference)
