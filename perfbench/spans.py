"""In-memory spans around mideriv's module boundaries, and the per-layer
metrics derived from them.

A span is ``[id, parent, name, start, end, attrs]``; ids are positions in
the list, so a parent always precedes its children.  Spans are recorded
only when a traced run installs the wrappers with :func:`instrument`;
an untraced run never imports this module's wrappers into the program.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Single-threaded span recorder; the list is written out at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, attrs: dict | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None, attrs])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, attrs: dict | None = None) -> None:
        record = self.spans[sid]
        record[4] = time.perf_counter()
        if attrs:
            record[5] = {**(record[5] or {}), **attrs}
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {record[2]!r} closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        sid = self.begin(name, attrs or None)
        try:
            yield
        finally:
            self.end(sid)

    def wrap(self, fn, name: str, before=None, after=None):
        """fn with a span; before(*args, **kw) and after(result) give attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name, before(*args, **kwargs) if before else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(sid, after(result) if after and result is not None else None)

        return traced

    def write(self, path: Path, missing: list[str]) -> None:
        payload = {
            "fields": ["id", "parent", "name", "start", "end", "attrs"],
            "missing_hooks": missing,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _grid_attrs(quad_position: int):
    def attrs(*args, **kwargs):
        from mideriv import channel

        dist = args[0]
        quad = kwargs.get("quad", args[quad_position] if len(args) > quad_position else None)
        order = quad.order if quad is not None else channel.default_quad_order()
        return {"atoms": dist.atom_count, "n": dist.n, "order": order}

    return attrs


def _fd_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(f, *args, **kwargs):
        samples = 0

        def counted(x):
            nonlocal samples
            samples += 1
            return f(x)

        sid = tracer.begin("fd.partial")
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.end(sid, {"samples": samples})

    return traced


def instrument(tracer: Tracer) -> list[str]:
    """Replace the names each module calls in the next with traced ones.

    Returns the hooks whose target no longer exists, so a renamed
    function shows up in the spans file instead of failing the run.
    """
    from mideriv import channel, cli, closedform, forms, verify

    mi = dict(name="channel.mi", before=_grid_attrs(2))
    mm = dict(name="channel.mmse", before=_grid_attrs(3))
    tau = dict(name="channel.tau", before=_grid_attrs(4))
    grid = dict(name="channel.grid")
    sym = dict(name="forms.tau_symbolic", after=lambda e: {"terms": len(e.terms)})
    enum = dict(name="partitions.enumerate", after=lambda parts: {"count": len(parts)})
    plan = [
        (verify, "mutual_information", mi),
        (verify, "mmse", mm),
        (verify, "expected_conditional_tau", tau),
        (verify, "gauss_hermite", grid),
        (verify, "tau_eval", dict(name="forms.eval")),
        (verify, "kappa_eval", dict(name="forms.eval")),
        (verify, "verify_derivatives", dict(name="verify.theorem1")),
        (verify, "verify_multiquadratic", dict(name="verify.lemma1")),
        (verify, "verify_snr_combining", dict(name="verify.lemma2")),
        (verify, "verify_gaussian_chain", dict(name="verify.gaussian")),
        (verify, "verify_cumulant_routes", dict(name="verify.cumulants")),
        (verify.VerificationReport, "to_json", dict(name="cli.serialize")),
        (channel, "mutual_information", mi),
        (channel, "mmse", mm),
        (channel, "expected_conditional_tau", tau),
        (channel, "gauss_hermite", grid),
        (channel, "tau_symbolic", sym),
        (channel.QuadratureRule, "tensor", grid),
        (forms, "tau_symbolic", sym),
        (forms, "enumerate_diverse", enum),
        (forms, "kappa_symbolic", dict(name="forms.kappa")),
        (cli, "mutual_information", mi),
        (cli, "mmse", mm),
        (cli, "gauss_hermite", grid),
        (cli, "tau_symbolic", sym),
        (cli, "enumerate_diverse", enum),
        (cli, "partition_to_graph", dict(name="graphs.graph")),
        (cli, "export_dot", dict(name="graphs.dot")),
        (cli, "run_suite", dict(name="verify.suite")),
        (cli, "_print_json", dict(name="cli.serialize")),
        (cli, "cmd_partitions", dict(name="cli.partitions")),
        (cli, "cmd_tau", dict(name="cli.tau")),
        (cli, "cmd_verify", dict(name="cli.verify")),
        (cli, "main", dict(name="cli.main")),
    ]
    for fname in (
        "two_point_mi",
        "two_point_mmse",
        "two_point_posterior_mean",
        "half_log_derivative",
        "random_rational_joint",
        "random_rational_moments",
    ):
        plan.append((closedform, fname, dict(name="closedform")))

    missing = []
    for owner, attr, spec in plan:
        target = getattr(owner, attr, None)
        if target is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(target, **spec))
    for owner in (verify, cli):
        if hasattr(owner, "fd_partial"):
            owner.fd_partial = _fd_wrapper(tracer, owner.fd_partial)
        else:
            missing.append(f"{owner.__name__}.fd_partial")
    return missing


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def _roots(spans: list[list]) -> list[str]:
    root: list[int] = []
    for s in spans:
        root.append(s[0] if s[1] < 0 else root[s[1]])
    return [spans[r][2] for r in root]


LAYER_UNITS = {
    "channel.mi_calls": "count",
    "channel.mi_s": "s",
    "channel.mi_ms_per_call": "ms",
    "channel.tensor_terms": "count",
    "channel.ns_per_term": "ns",
    "channel.grid_points_max": "count",
    "channel.mmse_calls": "count",
    "channel.mmse_s": "s",
    "channel.tau_calls": "count",
    "channel.tau_s": "s",
    "channel.grid_s": "s",
    "fd.partial_calls": "count",
    "fd.sample_requests": "count",
    "fd.unique_ratio": "ratio",
    "fd.self_s": "s",
    "partitions.enumerate_calls": "count",
    "partitions.enumerated": "count",
    "partitions.enumerate_s": "s",
    "forms.tau_symbolic_calls": "count",
    "forms.tau_symbolic_s": "s",
    "forms.terms": "count",
    "forms.collapse_ratio": "ratio",
    "forms.eval_s": "s",
    "forms.kappa_s": "s",
    "graphs.graphs": "count",
    "graphs.dot_s": "s",
    "closedform.s": "s",
    "verify.theorem1_s": "s",
    "verify.lemma1_s": "s",
    "verify.lemma2_s": "s",
    "verify.gaussian_s": "s",
    "verify.cumulants_s": "s",
    "verify.self_s": "s",
    "verify.cases": "count",
    "cli.serialize_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "import_s": "s",
    "trace.run_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(spans: list[list], import_s: float, cases: int, output_bytes: int) -> dict[str, float]:
    """Per-layer figures from one traced round.

    Times are self times of the layer's spans inside the timed ``run``
    root, except ``channel.grid_s`` (setup and run) and the verify suite
    times (inclusive, one span each).  ``trace.unattributed_s`` is the
    self time of the ``run`` root: the time no hooked call covers.
    """
    own = self_times(spans)
    roots = _roots(spans)
    names = [s[2] for s in spans]
    attrs = [s[5] or {} for s in spans]
    in_run = [r == "run" for r in roots]

    def pick(name, where=in_run):
        return [i for i, n in enumerate(names) if n == name and where[i]]

    def own_sum(*layer_names, where=in_run):
        return sum(own[i] for name in layer_names for i in pick(name, where))

    under_fd = [False] * len(spans)
    for s in spans:
        parent = s[1]
        if parent >= 0:
            under_fd[s[0]] = names[parent] == "fd.partial" or under_fd[parent]

    mi = pick("channel.mi")
    mi_s = own_sum("channel.mi")
    terms = sum(attrs[i]["atoms"] ** 2 * attrs[i]["order"] ** attrs[i]["n"] for i in mi)
    grid_calls = mi + pick("channel.mmse") + pick("channel.tau")
    samples = sum(attrs[i].get("samples", 0) for i in pick("fd.partial"))
    mi_under_fd = sum(1 for i in mi if under_fd[i])

    symbolic = pick("forms.tau_symbolic")
    enums = pick("partitions.enumerate")
    consumed = sum(attrs[i].get("count", 0) for i in enums if names[spans[i][1]] == "forms.tau_symbolic")
    cold = {spans[i][1] for i in enums}
    terms_out = sum(attrs[i].get("terms", 0) for i in symbolic if i in cold)
    verify_names = [n for n in set(names) if n.startswith("verify.")]
    run_root = [i for i, n in enumerate(names) if n == "run" and spans[i][1] < 0]
    run_s = sum(spans[i][4] - spans[i][3] for i in run_root)
    anywhere = [True] * len(spans)

    def inclusive(name):
        return sum(spans[i][4] - spans[i][3] for i in pick(name))

    values = {
        "channel.mi_calls": len(mi),
        "channel.mi_s": mi_s,
        "channel.mi_ms_per_call": 1e3 * mi_s / len(mi) if mi else 0.0,
        "channel.tensor_terms": terms,
        "channel.ns_per_term": 1e9 * mi_s / terms if terms else 0.0,
        "channel.grid_points_max": max((attrs[i]["order"] ** attrs[i]["n"] for i in grid_calls), default=0),
        "channel.mmse_calls": len(pick("channel.mmse")),
        "channel.mmse_s": own_sum("channel.mmse"),
        "channel.tau_calls": len(pick("channel.tau")),
        "channel.tau_s": own_sum("channel.tau"),
        "channel.grid_s": own_sum("channel.grid", where=anywhere),
        "fd.partial_calls": len(pick("fd.partial")),
        "fd.sample_requests": samples,
        "fd.unique_ratio": mi_under_fd / samples if samples else 0.0,
        "fd.self_s": own_sum("fd.partial"),
        "partitions.enumerate_calls": len(enums),
        "partitions.enumerated": sum(attrs[i].get("count", 0) for i in enums),
        "partitions.enumerate_s": own_sum("partitions.enumerate"),
        "forms.tau_symbolic_calls": len(symbolic),
        "forms.tau_symbolic_s": own_sum("forms.tau_symbolic"),
        "forms.terms": sum(attrs[i].get("terms", 0) for i in symbolic),
        "forms.collapse_ratio": terms_out / consumed if consumed else 0.0,
        "forms.eval_s": own_sum("forms.eval"),
        "forms.kappa_s": own_sum("forms.kappa"),
        "graphs.graphs": len(pick("graphs.graph")),
        "graphs.dot_s": own_sum("graphs.graph", "graphs.dot"),
        "closedform.s": own_sum("closedform"),
        "verify.theorem1_s": inclusive("verify.theorem1"),
        "verify.lemma1_s": inclusive("verify.lemma1"),
        "verify.lemma2_s": inclusive("verify.lemma2"),
        "verify.gaussian_s": inclusive("verify.gaussian"),
        "verify.cumulants_s": inclusive("verify.cumulants"),
        "verify.self_s": own_sum(*verify_names),
        "verify.cases": cases,
        "cli.serialize_s": own_sum("cli.serialize"),
        "cli.self_s": own_sum("cli.main", "cli.partitions", "cli.tau", "cli.verify"),
        "cli.output_bytes": output_bytes,
        "import_s": import_s,
        "trace.run_s": run_s,
        "trace.unattributed_s": sum(own[i] for i in run_root),
    }
    return values
