"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import math
from pathlib import Path

import mpmath
import pytest

import metrics
import reference as ref
import spans
import stats
import workloads
from run import KNOWN_QUAD_Z, Checker, _check_verify, known_defect

ROOT = Path(__file__).resolve().parents[2]


# --- seeded generators -----------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_deterministic(workload):
    a = workloads.generate(workload, 11)
    b = workloads.generate(workload, 11)
    c = workloads.generate(workload, 12)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a[0]) != json.dumps(c[0])


def test_crosscheck_pass_covers_the_advertised_domain():
    ops, meta = workloads.crosscheck_ops(5)
    block = workloads.BLOCK["crosscheck"]
    assert len(ops) == block * workloads.MAX_BLOCKS["crosscheck"] == 240
    kinds = [m["kind"] for m in meta]
    assert (kinds.count("ordinary"), kinds.count("rapidity"), kinds.count("cone")) == (180, 30, 30)
    for op in ops:
        s = ref.exact_s(op["tau"], op["xi"])
        assert 0 < s <= workloads.Z_MAX**2
    # the pass samples the quadrature defect region (z > 120), and the
    # bottom of the domain, instead of avoiding them
    zs = [m["z"] for m in meta]
    assert sum(z > 120 for z in zs) >= 20
    assert min(zs) < 1e-3


# --- reference checks reject planted errors --------------------------------


def _good_point(tau, xi):
    r = ref.point_reference(tau, xi)
    g = float(r["gamma"])
    return {"bessel": g, "bessel_imag": 0.0, "quad": g, "quad_imag": 0.0, "eq2": r["eq2"], "eq13": r["eq13"]}


def test_crosscheck_accepts_right_and_rejects_planted_wrong_amplitude():
    tau, xi = 0.3, 2.1
    out = _good_point(tau, xi)
    assert ref.check_crosscheck(tau, xi, out) == []
    out["bessel"] *= 1 + 1e-8
    assert ref.check_crosscheck(tau, xi, out) == ["bessel_wrong"]
    out = _good_point(tau, xi)
    out["quad"] *= 1 + 1e-5
    out["eq13"] = ref.NONNEG
    assert ref.check_crosscheck(tau, xi, out) == ["quad_wrong", "classify_wrong"]
    out = _good_point(tau, xi)
    del out["quad"]
    out["quad_error"] = "NonConvergence: planted"
    assert ref.check_crosscheck(tau, xi, out) == ["quad_refused"]


def test_near_cone_reference_uses_the_exact_interval():
    tau = 1e8
    xi = math.nextafter(tau, math.inf)
    z = float(ref.point_reference(tau, xi)["z"])
    assert z == pytest.approx(1.7263, rel=1e-4)  # not the 1.414 of xi*xi - tau*tau


def _scan_csv(z_min, z_max, steps):
    import numpy as np

    rows = [",".join(ref.SCAN_FIELDS)]
    for z in np.linspace(z_min, z_max, steps):
        g = float(ref.k0_ref(float(z)) / (2 * mpmath.pi))
        c2 = ref.NONNEG if z <= 1 else ref.NEG
        c13 = ref.NONNEG if z <= 0.5 else ref.NEG
        rows.append(f"{z:.12g},{-z * z:.12g},{g:.12g},0,{g * g:.12g},{c2},{c13}")
    return "\n".join(rows) + "\n"


def test_scan_check_rejects_planted_wrong_amplitude():
    text = _scan_csv(0.1, 20.0, 40)
    assert ref.check_scan_stdout(0.1, 20.0, 40, "csv", text, 1) == []
    lines = text.splitlines()
    fields = lines[17].split(",")
    fields[2] = f"{float(fields[2]) * (1 + 1e-9):.12g}"
    lines[17] = ",".join(fields)
    planted = "\n".join(lines) + "\n"
    assert ref.check_scan_stdout(0.1, 20.0, 40, "csv", planted, 1) == ["gamma_wrong"]
    assert ref.check_scan_stdout(0.1, 20.0, 41, "csv", text, 1) == ["wrong_row_count"]


def test_propagator_check_rejects_planted_wrong_amplitude():
    tau, xi = 0.0, 1.0
    good = (
        "tau = 0\nxi = 1\nz = 1\ninterval_over_lambdabar2 = -1\n"
        "gamma_bessel = 0.0670081205085 + 0*i\nprob = 0.00449008821408\n"
        "class_eq2 = spacelike_nonnegligible\nclass_eq13 = spacelike_negligible\n"
    )
    assert ref.check_propagator_stdout(tau, xi, "bessel", good) == []
    bad = good.replace("0.0670081205085", "0.0670081205185")
    assert ref.check_propagator_stdout(tau, xi, "bessel", bad) == ["gamma_bessel_wrong"]


def test_operator_reference_rejects_planted_wrong_normal_form():
    assert ref.same_operator("p*x", "x*p - i*hbar")
    assert ref.same_operator("H^2*x - x*H^2", "-2*i*hbar*c^2*p")
    assert not ref.same_operator("p*x", "x*p")
    assert not ref.same_operator("p*x", "x*p - i*hbar + 1/1000000*t")
    expr = f"({workloads.XPRIME})^2"
    from qlorentz import normal_form, parse

    text = normal_form(parse(expr)).to_text()
    assert ref.same_operator(expr, text)
    assert "1/4" in text
    assert not ref.same_operator(expr, text.replace("1/4", "1/5", 1))


def test_only_known_crosscheck_defects_keep_a_run_correct():
    high, low = {"kind": "ordinary", "z": 300.0}, {"kind": "ordinary", "z": 5.0}
    cone = {"kind": "cone", "z": 2.0}
    # the known defects: quadrature above KNOWN_QUAD_Z, z from floats near the cone
    assert known_defect("crosscheck", ["quad_wrong"], high)
    assert known_defect("crosscheck", ["quad_refused"], high)
    assert known_defect("crosscheck", ["bessel_wrong", "quad_wrong", "classify_wrong"], cone)
    # planted new faults: an ordinary point below the quadrature's limit,
    # the kernel route or a class on an ordinary point, an imaginary part,
    # an operation that raised
    assert not known_defect("crosscheck", ["quad_wrong"], low)
    assert not known_defect("crosscheck", ["quad_wrong"], {"kind": "ordinary", "z": KNOWN_QUAD_Z})
    assert not known_defect("crosscheck", ["bessel_wrong"], low)
    assert not known_defect("crosscheck", ["bessel_wrong", "quad_wrong"], high)
    assert not known_defect("crosscheck", ["classify_wrong"], high)
    assert not known_defect("crosscheck", ["bessel_refused"], low)
    assert not known_defect("crosscheck", ["imaginary_part"], cone)
    assert not known_defect("crosscheck", ["raised"], cone)
    # on the other workloads no failure is known
    assert not known_defect("scan", ["gamma_wrong"], {})


def test_crosscheck_checker_flags_a_planted_fault_on_an_ordinary_point():
    tau, xi = 0.3, 2.1
    out = _good_point(tau, xi)
    out["bessel"] *= 1 + 1e-8
    meta = {"kind": "ordinary", "z": float(ref.point_reference(tau, xi)["z"])}
    tags = Checker("crosscheck", 1).check(0, {"tau": tau, "xi": xi}, meta, out)
    assert tags == ["bessel_wrong"]
    assert not known_defect("crosscheck", tags, meta)
    out = _good_point(tau, xi)
    out["quad_imag"] = 1e-3
    tags = Checker("crosscheck", 1).check(0, {"tau": tau, "xi": xi}, meta, out)
    assert tags == ["imaginary_part"]
    assert not known_defect("crosscheck", tags, meta)


def test_algebra_checker_rejects_nonempty_residual_and_wrong_output():
    checker = Checker("algebra", 1)
    ok = {"text": "0", "roundtrip": True, "status": "verified", "lhs": "H*t - t*H", "rhs": "0"}
    spec = {"kind": "theorem", "id": "T_eq6"}
    assert checker.check(0, spec, {}, ok) == []
    assert checker.check(0, spec, {}, {**ok, "text": "t", "status": "failed"}) == ["residual_not_empty"]
    assert checker.check(0, spec, {}, {**ok, "rhs": "t"}) == ["identity_false"]
    spec = {"kind": "commutator", "a": "p", "b": "x"}
    assert checker.check(1, spec, {}, {"text": "-i*hbar", "roundtrip": True}) == []
    assert checker.check(1, spec, {}, {"text": "i*hbar", "roundtrip": True}) == ["commutator_wrong"]
    assert checker.check(1, spec, {}, {"text": "-i*hbar", "roundtrip": False}) == ["roundtrip"]


def test_verify_check_requires_every_row_verified():
    good = "T_eq10      verified  residual = 0\n1/1 verified\n"
    assert _check_verify(["verify", "--theorem=T_eq10"], good) == []
    bad = "T_eq10      failed    residual = t\n0/1 verified\n"
    assert _check_verify(["verify", "--theorem=T_eq10"], bad) == ["not_verified"]


# --- tail percentile --------------------------------------------------------


@pytest.mark.parametrize("n", [20, 39, 40, 99, 100, 101, 199, 200, 999, 1000, 1001, 2000, 12345])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    p = stats.tail_percentile(n)
    assert n - stats.rank(p, n) >= stats.BEYOND
    higher = [q for q in stats.LADDER if q > p]
    if higher:
        assert n - stats.rank(higher[0], n) < stats.BEYOND


def test_tail_percentile_value_and_minimum_samples():
    samples = list(range(100, 0, -1))
    assert stats.tail_percentile(100) == 90.0
    assert stats.percentile(samples, 90.0) == 90  # 10 samples (91..100) lie beyond
    assert stats.tail_percentile(19) is None
    for workload, n in workloads.MIN_SAMPLES.items():
        assert stats.tail_percentile(n) is not None, workload


# --- spans and self time ----------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children():
    # outer [0, 10] > a [1, 4] > leaf [2, 3]; outer > b [5, 9]
    tr = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    outer = tr.enter("outer")
    a = tr.enter("a")
    leaf = tr.enter("leaf")
    tr.exit(leaf)
    tr.exit(a)
    b = tr.enter("b")
    tr.exit(b)
    tr.exit(outer)
    assert tr.self_s("outer") == 3  # 10 - 3 - 4
    assert tr.self_s("a") == 2
    assert tr.self_s("leaf") == 1
    assert tr.self_s("b") == 4
    assert tr.outer_s("outer") == 10
    parents = {s[3]: s[2] for s in tr.spans}
    ids = {s[3]: s[1] for s in tr.spans}
    assert parents["leaf"] == ids["a"] and parents["a"] == ids["outer"] and parents["outer"] == 0


def test_recursive_spans_are_counted_once_in_outer_time():
    tr = spans.Tracer(clock=FakeClock([0, 2, 5, 6]))
    f1 = tr.enter("f")
    f2 = tr.enter("f")
    tr.exit(f2)
    tr.exit(f1)
    assert tr.calls("f") == 2
    assert tr.outer_s("f") == 6
    assert tr.self_s("f") == 6  # 3 (outer, minus its child) + 3 (inner)


def test_install_wraps_and_uninstall_restores():
    import qlorentz
    import qlorentz.algebra as algebra

    original = algebra.normal_form
    tr = spans.Tracer()
    undo = spans.install(tr)
    try:
        assert qlorentz.normal_form is not original
        text = qlorentz.commutator(qlorentz.parse("p"), qlorentz.parse("x")).to_text()
        qlorentz.gamma_bessel(0.0, 1.0)
        qlorentz.gamma_bessel(0.0, 30.0)
    finally:
        spans.uninstall(undo)
    assert text == "-i*hbar"
    assert tr.calls("algebra.commutator") == 1
    assert tr.calls("algebra.mul") == 2
    assert tr.counts == {"kernels.series": 1, "kernels.asymptotic": 1}
    assert tr.calls("kernels.k0") == 2 and len(tr.records["kernels.k0"]) == 2
    assert algebra.normal_form is original and qlorentz.normal_form is original


def test_merge_adds_a_child_payload():
    parent, child = spans.Tracer(), spans.Tracer(clock=FakeClock([0, 2]))
    child.exit(child.enter("expr.parse"))
    child.tally("kernels.bridge")
    child.record("kernels.k0", 3.0, 0.01)
    parent.merge(json.loads(json.dumps(child.payload())))
    parent.merge(json.loads(json.dumps(child.payload())))
    assert parent.calls("expr.parse") == 2 and parent.outer_s("expr.parse") == 4
    assert parent.counts == {"kernels.bridge": 2}
    assert parent.records["kernels.k0"] == [(3.0, 0.01), (3.0, 0.01)]


# --- the benchmark's declared metrics ---------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.GENERATORS)
