"""Command-line surface: enumeration, expansions, channel values, suites.

Data goes to standard output; summaries and errors go to the
diagnostic stream with stable codes (`mideriv: error[<code>]: ...`).
Exit status: 0 success, 1 failed verification, 2 usage or input error.
All JSON payloads carry a top-level "schema": 1 and are byte-stable
for a fixed (command, seed, config).  A payload is one compact line
with sorted keys (pipe it to ``python -m json.tool`` to read it);
verify reports keep their indented layout.

The numeric modules (channel, verify) are imported by the commands that
compute with them, so `partitions` and `tau --symbolic` never load numpy.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .constants import DEFAULT_QUAD_ORDER, SCHEMA_VERSION, SUITE_NAMES
from .errors import DomainError, QuadratureUnderflowError, SizeLimitError, ValidationError
from .forms import SlotBinding, tau_symbolic
from .graphs import export_dot, partition_to_graph
from .partitions import enumerate_diverse

if TYPE_CHECKING:
    from .channel import DiscreteJoint

ERROR_CODES = {
    ValidationError: "validation",
    SizeLimitError: "size-limit",
    DomainError: "domain",
    QuadratureUnderflowError: "underflow",
}


def _emit_error(code: str, message: str) -> int:
    print(f"mideriv: error[{code}]: {message}", file=sys.stderr)
    return 2


def _header(command: str) -> dict:
    """The keys every command payload starts with."""
    return {"schema": SCHEMA_VERSION, "command": command}


def _print_json(payload: dict) -> None:
    # No indent: with one, the json module leaves its C encoder for the
    # pure-Python one, several times slower on large expansions.  Objects
    # (partitions, an expansion) become dicts only as the encoder writes them.
    print(json.dumps(payload, sort_keys=True, separators=(",", ":"), default=lambda obj: obj.to_dict()))


def _parse_list(text: str, name: str, kind: type) -> tuple:
    parts = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not parts:
        raise ValidationError(f"{name}: {text!r} holds no values")
    try:
        return tuple(kind(piece) for piece in parts)
    except ValueError:
        raise ValidationError(f"{name}: {text!r} is not a comma-separated {kind.__name__} list") from None


def _load_dist(path: str) -> DiscreteJoint:
    from .channel import DiscreteJoint

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"dist file {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"dist file {path}: not valid JSON ({exc})") from None
    return DiscreteJoint.from_dict(payload)


def cmd_partitions(args: argparse.Namespace) -> int:
    parts = enumerate_diverse(args.n, args.min_block_size)
    want_graphs = args.graphs or args.format == "dot"
    dots = None
    if want_graphs:
        dots = [export_dot(partition_to_graph(p), name=f"p{i}") for i, p in enumerate(parts)]
    if args.format == "json":
        payload = {
            **_header("partitions"),
            "n": args.n,
            "min_block_size": args.min_block_size,
            "count": len(parts),
            "partitions": parts,
        }
        if dots is not None:
            payload["graphs"] = dots
        _print_json(payload)
    elif args.format == "dot":
        for dot in dots:
            print(dot)
        print(f"// count: {len(parts)}")
    else:
        for i, p in enumerate(parts):
            print(f"{i}: {p}")
            if dots is not None:
                print(dots[i])
        print(f"count: {len(parts)}")
    return 0


def cmd_tau(args: argparse.Namespace) -> int:
    # each mode refuses the other's flags instead of ignoring them
    numeric = (
        ("--dist", args.dist is not None),
        ("--snr", args.snr is not None),
        ("--quad-order", args.quad_order is not None),
        ("--no-fd", args.no_fd),
    )
    given = [flag for flag, on in numeric if on]
    if args.symbolic and given:
        raise ValidationError(f"{given[0]}: numeric mode only, not with --symbolic")
    if args.bar and not args.symbolic:
        raise ValidationError("--bar: symbolic mode only (pass --symbolic)")
    multiplicities = _parse_list(args.multiplicities, "multiplicities", int)
    if args.symbolic:
        binding = SlotBinding.from_multiplicities(multiplicities)
        expansion = tau_symbolic(binding, min_block_size=2 if args.bar else 1)
        if args.format == "json":
            payload = {
                **_header("tau"),
                "mode": "symbolic",
                "multiplicities": list(multiplicities),
                "centered": bool(args.bar),
                "expansion": expansion,
                "pretty": expansion.pretty(),
            }
            _print_json(payload)
        else:
            print(expansion.pretty())
            print(f"terms: {len(expansion.terms)}")
        return 0
    if not args.dist or args.snr is None:
        raise ValidationError("dist: numeric mode needs --dist FILE and --snr (or pass --symbolic)")
    from .channel import gauss_hermite
    from .verify import DerivativeRequest, fd_mi_partial, partition_formula

    dist = _load_dist(args.dist)
    request = DerivativeRequest(multiplicities, _parse_list(args.snr, "snr", float))
    quad_order = DEFAULT_QUAD_ORDER if args.quad_order is None else args.quad_order
    quad = gauss_hermite(quad_order)
    value = partition_formula(dist, request, quad)
    payload = {
        **_header("tau"),
        "mode": "numeric",
        "multiplicities": list(request.orders),
        "snr": list(request.point),
        "quad_order": quad_order,
        "value": value,
    }
    if not args.no_fd:
        fd_value, fd_error = fd_mi_partial(dist, request, quad)
        payload["fd"] = fd_value
        payload["fd_error"] = fd_error
        payload["gap"] = abs(fd_value - value)
    if args.format == "json":
        _print_json(payload)
    else:
        print(f"value: {value!r}")
        if not args.no_fd:
            print(f"fd: {payload['fd']!r}")
            print(f"fd_error: {payload['fd_error']!r}")
            print(f"gap: {payload['gap']!r}")
    return 0


def cmd_mi(args: argparse.Namespace) -> int:
    from .channel import ChannelSpec, gauss_hermite, mutual_information

    dist = _load_dist(args.dist)
    snr = _parse_list(args.snr, "snr", float)
    spec = ChannelSpec(snr)
    value = mutual_information(dist, spec, gauss_hermite(args.quad_order))
    if args.format == "json":
        _print_json({**_header("mi"), "snr": list(snr), "quad_order": args.quad_order, "value": value})
    else:
        print(f"mutual information: {value!r} nats")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    report = run_suite(args.suite, seed=args.seed)
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = report.to_csv()
    else:
        lines = []
        for case in report.cases:
            lines.append(f"{case.verdict.upper():4}  {case.request}  gap={case.gap:.3e}  tol={case.tol:.1e}")
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    total = len(report.cases)
    passed = sum(1 for case in report.cases if case.passed)
    print(f"suite {report.suite}: {passed}/{total} cases passed", file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mideriv",
        description="Partition forms, Gaussian-channel information, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate diverse partitions of a doubled multiset")
    p.add_argument("--n", type=int, required=True, help="number of distinct values (each doubled)")
    p.add_argument("--min-block-size", type=int, default=1, help="drop partitions with smaller blocks")
    p.add_argument("--graphs", action="store_true", help="also emit the loop-free multigraph duals as DOT")
    p.add_argument("--format", choices=("table", "json", "dot"), default="table")

    p = sub.add_parser("tau", help="partition-sum expansion, symbolic or numeric")
    p.add_argument("--multiplicities", required=True, help="per-channel derivative orders, e.g. 1,1,1")
    p.add_argument("--bar", action="store_true", help="symbolic mode: restrict to blocks of size >= 2")
    p.add_argument("--symbolic", action="store_true", help="print the exact expansion instead of a value")
    p.add_argument("--dist", help="numeric mode: input law JSON file")
    p.add_argument("--snr", help="numeric mode: comma-separated snr vector")
    # None tells a given order from the default, which --symbolic refuses
    p.add_argument("--quad-order", type=int, help=f"numeric mode: Gauss-Hermite order (default: {DEFAULT_QUAD_ORDER})")
    p.add_argument("--no-fd", action="store_true", help="numeric mode: skip the finite-difference cross-check")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("mi", help="mutual information of a finite input law")
    p.add_argument("--dist", required=True, help="input law JSON file")
    p.add_argument("--snr", required=True, help="comma-separated snr vector")
    p.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER, help="Gauss-Hermite order (default: %(default)s)")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("verify", help="run a verification suite and emit its report")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report to this file instead of standard output")
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # The payloads a command builds (partitions, graphs, expansion terms)
    # hold no reference cycles, so the cycle collector would only walk
    # them, again and again as they grow.  Pause it for this one command
    # and give the caller its own setting back; the few cycles a command
    # does make (a caught exception) are collected afterwards.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    # one parser per process; the command runs as the module's
    # cmd_<name> looked up at call time, so a wrapped command is the
    # one called
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except tuple(ERROR_CODES) as exc:
        return _emit_error(ERROR_CODES[type(exc)], str(exc))
    except OSError as exc:
        return _emit_error("io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
