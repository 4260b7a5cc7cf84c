"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload verify-all|channel-sweep|expansions \
        --seed N --seconds S --trace 0|1

Every round runs in a fresh interpreter (``worker.py``), so the program's
caches start cold as they do for a command-line user.  Rounds repeat until
their timed parts add up to ``--seconds`` (at least one, always whole
rounds, none started past the time budget); the first
round's outputs are checked and every later round must reproduce them
bit for bit.  Set-up is sampled in at least ``SETUP_SAMPLES`` processes.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Full results,
with the machine description, go to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("verify-all", "channel-sweep", "expansions")
SETUP_SAMPLES = 5
# A run must end within 180 s; no new round starts past this budget.
BUDGET_S = 150.0
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "digits": "dec", "headroom_dec": "dec"}


def machine() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def spawn(args, mode: str, index: int, check: bool, deadline: float) -> dict:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{mode}{index}"
    out = RESULTS / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        "--mode", mode, "--check", "1" if check else "0", "--out", str(out),
    ]
    if args.trace and mode == "round":
        cmd += ["--spans", str(RESULTS / f"spans-{args.workload}-seed{args.seed}-round{index}.json")]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"worker {mode} {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mideriv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mideriv" / "__init__.py").is_file():
        print(f"run.py: no mideriv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + 175.0

    rounds = []
    try:
        while True:
            rounds.append(spawn(args, "round", len(rounds), check=not rounds, deadline=deadline))
            measured = sum(r["run_s"] for r in rounds)
            elapsed = time.monotonic() - start
            per_round = elapsed / len(rounds)
            if measured >= args.seconds or elapsed + 1.5 * per_round > BUDGET_S:
                break
        setups = [r["setup_s"] for r in rounds]
        while not args.trace and len(setups) < SETUP_SAMPLES and time.monotonic() - start < BUDGET_S:
            setups.append(spawn(args, "setup", len(setups), check=False, deadline=deadline)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    first = rounds[0]
    failures = list(first["failures"])
    if any(r["digest"] != first["digest"] for r in rounds[1:]):
        failures.append("outputs differ between rounds of the same seed")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)

    if args.trace:
        from spans import LAYER_UNITS

        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
            "digits": first["digits"],
            "headroom_dec": first["headroom_dec"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    summary = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "rounds": rounds,
        "setup_samples": setups,
        "failures": failures,
        "failed_operations": [f for r in rounds for f in r["failed"]],
        "summary": summary,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
