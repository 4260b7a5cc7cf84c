"""One benchmark round in a fresh interpreter.

Sets up (imports mideriv from the checkout's ``src`` and builds what the
workload's set-up covers), runs the timed part, and optionally checks the
outputs; writes one JSON result to ``--out``.  ``--mode setup`` stops
after set-up, which is how ``run.py`` samples set-up time more than once.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --mode round|setup --check 0|1 --out FILE [--spans FILE]
"""
from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {"verify-all": "verify_all", "channel-sweep": "sweep", "expansions": "expansions"}


def _digest(material) -> str:
    return hashlib.sha256(json.dumps(material, sort_keys=True, default=repr).encode("utf-8")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("round", "setup"), default="round")
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    out = Path(args.out)

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    setup_span = tracer.begin("setup") if tracer else None
    import_start = time.perf_counter()
    import mideriv
    import mideriv.cli  # noqa: F401

    import_s = time.perf_counter() - import_start
    if Path(mideriv.__file__).resolve().parent != (SRC / "mideriv").resolve():
        print(f"mideriv imported from {mideriv.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    missing: list[str] = []
    if tracer:
        from spans import instrument

        missing = instrument(tracer)
    workload = importlib.import_module(WORKLOADS[args.workload])
    state = workload.setup(args.seed, out.parent)
    setup_s = time.perf_counter() - START
    if tracer:
        tracer.end(setup_span)
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        out.write_text(json.dumps(result), encoding="utf-8")
        return 0

    run_span = tracer.begin("run") if tracer else None
    t0 = time.perf_counter()
    outputs = workload.run(state)
    run_s = time.perf_counter() - t0
    if tracer:
        tracer.end(run_span)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update(
        run_s=run_s,
        peak_rss_mb=peak_rss_mb,
        attempted=outputs["attempted"],
        failed=outputs["failed"],
        digest=_digest(workload.digest_material(outputs)),
    )
    if args.check:
        from checks import Checks

        checks = Checks(own_headroom=args.workload != "verify-all")
        with contextlib.redirect_stdout(sys.stderr):
            workload.check(state, outputs, checks)
        result.update(checks.summary())
    if tracer:
        from spans import layer_metrics

        cases = len(outputs["report"]["cases"]) if args.workload == "verify-all" else 0
        result["layers"] = layer_metrics(tracer.spans, import_s, cases, workload.output_bytes(outputs))
        if args.spans:
            tracer.write(Path(args.spans), missing)
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
