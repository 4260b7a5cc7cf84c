"""Workload ``channel-sweep``: direct calls into the quadrature channel.

Per round, every law below gets ``mutual_information``, ``mmse`` on its
channels and ``expected_conditional_tau`` (order-2 bindings), on
Gauss-Hermite orders 16..300 at n=1, up to 128 at n=2 and 40 at n=3,
with 2..64 atoms.  The seed draws the atoms and masses; the shapes,
snrs and orders, and so the amount of work, are fixed.  A fixed panel of
1-D laws with stored mpmath references rides along in every round.

Each (atoms, snr, order) pairing is one on which the rule has converged
to float64 roundoff (measured against the references for seeds 0..9),
so a change that loses quadrature digits shows in ``digits``.  The
seeded laws are checked against scipy integrals, which are themselves
good to ~1e-13 only; ``digits`` and ``headroom_dec`` therefore come from
the mpmath panel, and the seeded checks pass or fail at ``REL_TOL``.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from checks import Checks
from laws import duplicated_law, full_rank_law, pam_law, product_law

REFERENCES = Path(__file__).resolve().parent / "references.json"

# (atoms, snr, order) of the seeded 1-D laws; the mpmath panel uses the same slots.
SLOTS_1D = [(2, 0.02, 16), (4, 0.15, 32), (8, 0.6, 96), (16, 2.0, 128), (32, 4.0, 200), (64, 8.0, 300), (2, 1.5, 300)]
REL_TOL = 1e-10  # against independent references, on converged rules
VANISH_TOL = 1e-12  # cross terms of independent coordinates; centring identity


def load_panel() -> list[dict]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["panel"]


def cases(seed: int) -> list[dict]:
    """The round's laws as plain arrays (no mideriv objects)."""
    rng = np.random.default_rng(seed)
    out = []
    for atoms, snr, order in SLOTS_1D:
        x, p = pam_law(rng, atoms)
        out.append(dict(label=f"1d A={atoms} snr={snr} order={order}", kind="1d", support=x[:, None], probs=p,
                        snr=(snr,), order=order, factors=[(x, p)], taus=[((1, 1), True)]))
    for entry in load_panel():
        x, p = np.array(entry["support"], dtype=float), np.array(entry["probs"], dtype=float)
        out.append(dict(label=f"panel {entry['label']}", kind="panel", support=x[:, None], probs=p,
                        snr=(entry["snr"],), order=entry["order"], reference=entry, taus=[((1, 1), True)]))
    for atoms, snrs, order in [((2, 4), (0.5, 1.5), 128), ((2, 2, 2), (0.1, 0.15, 0.2), 40)]:
        factors = [pam_law(rng, a) for a in atoms]
        support, probs = product_law(factors)
        taus = [((1, 2), True), ((1, 2), False)] + ([((1, 1), True)] if len(atoms) == 2 else [])
        out.append(dict(label=f"product {atoms} order={order}", kind="product", support=support, probs=probs,
                        snr=snrs, order=order, factors=factors, taus=taus))
    for atoms, snrs, order in [(16, (0.7, 1.3), 128), (8, (0.1, 0.2, 0.3), 40)]:
        x, p = pam_law(rng, atoms)
        support, probs = duplicated_law(x, p, len(snrs))
        out.append(dict(label=f"duplicated A={atoms} n={len(snrs)} order={order}", kind="duplicated",
                        support=support, probs=probs, snr=snrs, order=order, factors=[(x, p)], taus=[]))
    for atoms, snrs, order in [(64, (1.0, 2.0), 64), (8, (0.3, 0.5, 0.7), 40), (64, (0.05, 0.1, 0.15), 16)]:
        support, probs = full_rank_law(rng, atoms, len(snrs))
        out.append(dict(label=f"full-rank A={atoms} n={len(snrs)} order={order}", kind="full-rank",
                        support=support, probs=probs, snr=snrs, order=order, taus=[((1, 2), True), ((1, 2), False)]))
    return out


def setup(seed: int, scratch: Path) -> dict:
    """Inputs as program objects, plus every rule and tensor grid they use."""
    from mideriv import channel

    built = []
    for case in cases(seed):
        quad = channel.gauss_hermite(case["order"])
        quad.tensor(len(case["snr"]))
        dist = channel.DiscreteJoint(case["support"], case["probs"])
        built.append((case, dist, channel.ChannelSpec(case["snr"]), quad))
    return {"seed": seed, "cases": built}


def _mmse_channels(case) -> list[int]:
    return [1] if case["kind"] == "duplicated" else list(range(1, len(case["snr"]) + 1))


def run(state: dict) -> dict:
    from mideriv import channel
    from mideriv.forms import SlotBinding

    values: dict[str, dict] = {}
    failed: list[str] = []
    attempted = 0

    def call(label, key, fn, *args, **kwargs):
        nonlocal attempted
        attempted += 1
        try:
            values[label][key] = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises counts as failed
            failed.append(f"{label} {key}: {exc!r}")

    for case, dist, spec, quad in state["cases"]:
        label = case["label"]
        values[label] = {}
        call(label, "mi", channel.mutual_information, dist, spec, quad)
        for i in _mmse_channels(case):
            call(label, f"mmse{i}", channel.mmse, dist, spec, channel=i, quad=quad)
        for variables, centered in case["taus"]:
            key = f"tau{variables}{'c' if centered else 'u'}"
            call(label, key, channel.expected_conditional_tau, dist, spec, SlotBinding(variables),
                 centered=centered, quad=quad)
    return {"values": values, "attempted": attempted, "failed": failed}


def digest_material(outputs: dict):
    return {label: {k: repr(v) for k, v in sorted(vals.items())} for label, vals in sorted(outputs["values"].items())}


def output_bytes(outputs: dict) -> int:
    return 0


def check(state: dict, outputs: dict, checks: Checks) -> None:
    import refs

    for case, _, _, _ in state["cases"]:
        label, kind, snr = case["label"], case["kind"], case["snr"]
        got = outputs["values"].get(label, {})
        p = np.asarray(case["probs"])
        support = np.asarray(case["support"])
        entropy = float(-(p * np.log(p)).sum())
        if "mi" in got:
            checks.holds(f"{label}: 0 <= mi <= H", 0.0 <= got["mi"] <= entropy, f"mi {got['mi']!r}, H {entropy!r}")
        for i in _mmse_channels(case):
            if f"mmse{i}" in got:
                col = support[:, i - 1]
                var = float(p @ col**2 - (p @ col) ** 2)
                value = got[f"mmse{i}"]
                checks.holds(f"{label}: 0 <= mmse{i} <= Var", 0.0 <= value <= var, f"mmse {value!r}, Var {var!r}")
        if "tau(1, 2)c" in got and "tau(1, 2)u" in got:
            checks.small(f"{label}: centred and uncentred tau(1,2) agree", got["tau(1, 2)c"] - got["tau(1, 2)u"], VANISH_TOL)

        def close(key, reference, scored=False):
            if key in got:
                checks.close(f"{label}: {key}", got[key], reference, REL_TOL, scored=scored)

        if kind == "1d":
            (x, q), = case["factors"]
            close("mi", refs.mi_1d(x, q, snr[0]))
            close("mmse1", refs.mmse_1d(x, q, snr[0]))
            close("tau(1, 1)c", refs.d2_1d(x, q, snr[0]))
        elif kind == "panel":
            ref = case["reference"]
            close("mi", float(ref["mi"]), scored=True)
            close("mmse1", float(ref["mmse"]), scored=True)
            close("tau(1, 1)c", float(ref["d2"]), scored=True)
        elif kind == "product":
            factors = case["factors"]
            close("mi", math.fsum(refs.mi_1d(x, q, s) for (x, q), s in zip(factors, snr)))
            for i, ((x, q), s) in enumerate(zip(factors, snr), start=1):
                close(f"mmse{i}", refs.mmse_1d(x, q, s))
            x, q = factors[0]
            close("tau(1, 1)c", refs.d2_1d(x, q, snr[0]))
            if "tau(1, 2)c" in got:
                checks.small(f"{label}: cross-channel tau(1,2) vanishes", got["tau(1, 2)c"], VANISH_TOL)
        elif kind == "duplicated":
            (x, q), = case["factors"]
            close("mi", refs.mi_1d(x, q, sum(snr)))
            close("mmse1", refs.mmse_1d(x, q, sum(snr)))
