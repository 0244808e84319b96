"""Metric names, units and the per-layer numbers of a traced run.

``END_TO_END`` and ``PER_LAYER`` are the tables ``BENCHMARK.json``
mirrors (a test keeps the two in step).  Per-layer times and counts are
per workload operation (per point on ``scan``), so runs that complete a
different number of operations compare directly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import reference as ref

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_share": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s/op",
    "cli.format_s": "s/op",
    "expr.parse_calls": "count/op",
    "expr.parse_s": "s/op",
    "theorems.run_theorem_s": "s/op",
    "theorems.verified": "1",
    "algebra.normal_form_calls": "count/op",
    "algebra.normal_form_s": "s/op",
    "algebra.mul_calls": "count/op",
    "algebra.mul_s": "s/op",
    "algebra.to_text_s": "s/op",
    "algebra.nf_terms_max": "count",
    "rational.coeff_mul_calls": "count/op",
    "rational.coeff_add_calls": "count/op",
    "rational.coeff_s": "s/op",
    "kernels.k0_calls": "count/op",
    "kernels.k0_s": "s/op",
    "kernels.series_calls": "count/op",
    "kernels.bridge_calls": "count/op",
    "kernels.asymptotic_calls": "count/op",
    "kernels.max_rel_err": "1",
    "propagator.point_at_s": "s/op",
    "propagator.scan_s": "s/op",
    "propagator.falloff_fit_s": "s/op",
    "propagator.k0_oscillatory_calls": "count/op",
    "propagator.k0_oscillatory_s": "s/op",
    "propagator.k0_oscillatory_wrong": "1",
    "propagator.k0_oscillatory_refused": "1",
    "propagator.spacelike_z_wrong": "1",
    "propagator.classify_wrong": "1",
    "trace.overhead_share": "1",
    "trace.ops": "count",
}

# spacelike_z is wrong when it misses the exact z by more than this; the
# kernel gate of 1e-10 on K0 needs z to about 1e-12 at z ~ 100
Z_LAYER_TOL = 1e-12


def _share(bad: int, total: int) -> float:
    return bad / total if total else 0.0


def _oscillatory(records) -> tuple[int, int]:
    wrong = refused = 0
    for z, value, exc in records:
        if exc is not None:
            refused += 1
        elif ref.rel_err(value, ref.k0_ref(z)) > ref.QUAD_TOL:
            wrong += 1
    return wrong, refused


def _spacelike_wrong(records) -> int:
    wrong = 0
    for tau, xi, z in set(records):
        if tau == 0.0 and z is not None:
            wrong += abs(z - abs(xi)) > Z_LAYER_TOL * abs(xi)  # exact z is |xi|
            continue
        s = ref.exact_s(tau, xi)
        if z is None:
            wrong += s > 0  # refused a spacelike point
        elif s <= 0 or ref.rel_err(z, ref.z_ref(s)) > Z_LAYER_TOL:
            wrong += 1
    return wrong


def _classify_wrong(records) -> int:
    wrong = 0
    for tau, xi, crit, value in set(records):
        criterion = "eq2" if crit == "amplitude_eq2" else "eq13"
        s = Fraction(xi) ** 2 if tau == 0.0 else ref.exact_s(tau, xi)
        wrong += value != ref.classify_ref(s, criterion)
    return wrong


def per_layer(tracer, points: int) -> dict:
    """Per-layer metrics from a tracer (see spans.py) over ``points`` operations."""

    def per_op(x):
        return x / points if points else 0.0

    calls, outer, own = tracer.calls, tracer.outer_s, tracer.self_s
    recs = tracer.records
    k0 = np.array(recs.get("kernels.k0", []), dtype=float).reshape(-1, 2)
    if len(k0):
        want = ref.scipy.special.k0(k0[:, 0])
        max_rel = float(np.max(np.abs(k0[:, 1] - want) / want))
    else:
        max_rel = 0.0
    theorem_status = [r[0] for r in recs.get("theorems.run_theorem", [])]
    osc = recs.get("propagator.k0_oscillatory", [])
    osc_wrong, osc_refused = _oscillatory(osc)
    space = recs.get("propagator.spacelike_z", [])
    classes = recs.get("propagator.classify_interval", [])
    return {
        "cli.main_s": per_op(outer("cli.main")),
        "cli.format_s": per_op(own("cli.main")),
        "expr.parse_calls": per_op(calls("expr.parse")),
        "expr.parse_s": per_op(outer("expr.parse")),
        "theorems.run_theorem_s": per_op(outer("theorems.run_theorem")),
        "theorems.verified": _share(theorem_status.count("verified"), len(theorem_status)),
        "algebra.normal_form_calls": per_op(calls("algebra.normal_form")),
        "algebra.normal_form_s": per_op(outer("algebra.normal_form")),
        "algebra.mul_calls": per_op(calls("algebra.mul")),
        "algebra.mul_s": per_op(outer("algebra.mul")),
        "algebra.to_text_s": per_op(outer("algebra.to_text")),
        "algebra.nf_terms_max": max((r[0] for r in recs.get("algebra.to_text", [])), default=0),
        "rational.coeff_mul_calls": per_op(calls("rational.coeff_mul")),
        "rational.coeff_add_calls": per_op(calls("rational.coeff_add")),
        "rational.coeff_s": per_op(sum(own(n) for n in tracer.stats if n.startswith("rational."))),
        "kernels.k0_calls": per_op(calls("kernels.k0")),
        "kernels.k0_s": per_op(outer("kernels.k0")),
        "kernels.series_calls": per_op(tracer.counts.get("kernels.series", 0)),
        "kernels.bridge_calls": per_op(tracer.counts.get("kernels.bridge", 0)),
        "kernels.asymptotic_calls": per_op(tracer.counts.get("kernels.asymptotic", 0)),
        "kernels.max_rel_err": max_rel,
        "propagator.point_at_s": per_op(own("propagator.point_at")),
        "propagator.scan_s": per_op(outer("propagator.scan")),
        "propagator.falloff_fit_s": per_op(outer("propagator.falloff_fit")),
        "propagator.k0_oscillatory_calls": per_op(calls("propagator.k0_oscillatory")),
        "propagator.k0_oscillatory_s": per_op(outer("propagator.k0_oscillatory")),
        "propagator.k0_oscillatory_wrong": _share(osc_wrong, len(osc)),
        "propagator.k0_oscillatory_refused": _share(osc_refused, len(osc)),
        "propagator.spacelike_z_wrong": _share(_spacelike_wrong(space), len(set(space))),
        "propagator.classify_wrong": _share(_classify_wrong(classes), len(set(classes))),
    }
