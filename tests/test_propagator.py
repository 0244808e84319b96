"""Numeric amplitude: kernel accuracy, route agreement, classification."""

import math
import os
import random
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qlorentz
from qlorentz import _kernels, propagator
from qlorentz.errors import (
    DomainError,
    NonConvergence,
    NonpositiveMass,
    NotSpacelike,
    UnderflowToZero,
)
from qlorentz.propagator import (
    C_SI,
    Classification,
    HBAR_SI,
    PLANCK_SI,
    ThresholdCriterion,
    TWO_PI,
    Z_UNDERFLOW,
    classify_interval,
    compton_wavelength,
    falloff_fit,
    gamma_bessel,
    gamma_quadrature,
    hbound_check,
    interval,
    k0,
    k0_oscillatory,
    lambda_bar_from_mev,
    point_at,
    scan,
    spacelike_z,
)

# frozen from the oscillatory-integral route
K0_AT_1 = 0.42102443824070834
K0_AT_HALF = 0.9244190712276656
EULER_GAMMA = 0.5772156649015328606


def rel(a, b):
    return abs(a - b) / abs(b)


# The kernel's branch loops as they were first written, a reference for
# rewrites of _kernels that must keep every double: rounding is what a
# speed-up can change, and a tolerance against mpmath would not see it.


def ref_k0_series(z):
    q = 0.25 * z * z
    term = 1.0
    bessel_i0 = 1.0
    harmonic = 0.0
    logfree = 0.0
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        harmonic += 1.0 / k
        bessel_i0 += term
        logfree += term * harmonic
        if term * harmonic < 1e-19 * (bessel_i0 + logfree) and k >= 4:
            break
    half = 0.5 * z
    log_half = math.log(half) if 2.0 * half == z else math.log(z) - math.log(2.0)
    return -(log_half + EULER_GAMMA) * bessel_i0 + logfree


def ref_k0_bridge(z):
    h = 0.35 / math.sqrt(1.0 + z)
    total = 0.5
    k = 0
    while True:
        k += 1
        deficit = z * (math.cosh(k * h) - 1.0)
        if deficit > 45.0:
            break
        total += math.exp(-deficit)
    return h * total * math.exp(-z)


def ref_k0_asymptotic(z):
    acc = 1.0
    term = 1.0
    k = 0
    while True:
        k += 1
        nxt = -term * (2 * k - 1) * (2 * k - 1) / (8.0 * k * z)
        if abs(nxt) >= abs(term) or k > 60:
            break
        term = nxt
        acc += term
        if abs(term) < 5e-17 * abs(acc):
            break
    return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * acc


def ref_k0(z):
    if z <= 2.0:
        return ref_k0_series(z)
    if z < 14.0:
        return ref_k0_bridge(z)
    return ref_k0_asymptotic(z)


class TestK0:
    def test_pinned_values(self):
        assert rel(k0(1.0), K0_AT_1) < 1e-10
        assert rel(k0(0.5), K0_AT_HALF) < 1e-10

    def test_against_integral_route(self):
        for z in np.logspace(math.log10(1e-3), math.log10(50.0), 50):
            assert rel(k0(float(z)), k0_oscillatory(float(z))) <= 1e-10

    def test_branch_splices_continuous(self):
        # Splice defect measured as branch disagreement at the switch
        # point itself.  A two-sided sample at z +/- delta would mostly
        # measure the function's own slope: K0 genuinely varies by
        # ~2.4e-9 relative across 2e-9 at z = 2, for any implementation.
        assert rel(_kernels.k0_series(2.0), _kernels.k0_bridge(2.0)) <= 1e-10
        assert rel(_kernels.k0_bridge(14.0), _kernels.k0_asymptotic(14.0)) <= 1e-10

    def test_no_jump_beyond_slope(self):
        # two-sided samples stay monotone through each switch
        for z_switch in (_kernels.Z_SERIES_MAX, _kernels.Z_ASYM_MIN):
            lo = k0(z_switch - 1e-9)
            mid = k0(z_switch)
            hi = k0(z_switch + 1e-9)
            assert lo > mid > hi

    def test_log_singularity_at_origin(self):
        z = 1e-6
        assert abs(k0(z) + math.log(z / 2.0) + EULER_GAMMA) < 1e-8

    def test_domain(self):
        # the message names the finite bound, which inf is past too
        for bad in (0.0, -1.0, float("nan"), math.inf, -math.inf):
            with pytest.raises(DomainError, match=r"^k0 requires 0 < z <= 700, got "):
                k0(bad)

    def test_underflow_flagged(self):
        with pytest.raises(UnderflowToZero):
            k0(701.0)
        k0(699.0)  # still in range

    def test_least_subnormal(self):
        # 0.5*z rounds (to 0.0 at 5e-324) for odd multiples of the least
        # subnormal; the series must take log(z/2) exactly all the same
        for z in (5e-324, 1.5e-323, 2.5e-323, 1e-320):
            assert rel(k0(z), float(mp.besselk(0, mp.mpf(z)))) < 1e-12, z

    def test_against_mpmath_besselk(self):
        with mp.workdps(30):
            for z in np.logspace(math.log10(1e-6), math.log10(699.9), 400):
                z = float(z)
                assert rel(k0(z), float(mp.besselk(0, z))) <= 1e-10, z


class TestKernelOracle:
    """_kernels returns the reference loops' double at every z, branch by branch."""

    @staticmethod
    def assert_same_doubles(zs):
        for z in zs:
            assert _kernels.k0(z) == ref_k0(z), z
            # the bridge and the asymptotic loop end on all of (0, 700];
            # off their own intervals they run larger terms, whose rounding
            # reaches the returned double far more often than on them
            assert _kernels.k0_asymptotic(z) == ref_k0_asymptotic(z), z
            if z >= 1e-300:  # below ~4e-307 cosh overflows before the trapezoid ends
                assert _kernels.k0_bridge(z) == ref_k0_bridge(z), z
            if z <= 4.0:  # the series runs ~z terms, slow past its interval
                assert _kernels.k0_series(z) == ref_k0_series(z), z

    def test_grid(self):
        # all of the domain, and (0, 20] once more, around both splices
        self.assert_same_doubles(700.0 * i / 50_000 for i in range(1, 50_001))
        self.assert_same_doubles(20.0 * i / 20_000 for i in range(1, 20_001))

    def test_splices(self):
        self.assert_same_doubles(ulps_from(z, k) for z in (2.0, 14.0) for k in range(-100, 101))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=0.0, max_value=Z_UNDERFLOW, exclude_min=True))
    def test_any_z(self, z):
        self.assert_same_doubles([z])


class TestOscillatoryRoute:
    def test_self_check_trips(self, monkeypatch):
        monkeypatch.setattr("qlorentz.propagator._CHECK_TOL", 0.0)
        with pytest.raises(NonConvergence) as exc:
            k0_oscillatory(3.0)
        assert exc.value.diagnostics["z"] == 3.0

    def test_against_mpmath_besselk(self):
        # over the whole domain, both branches and the switch between them;
        # the symmetric arcs' error is relative to K0(z), even at e^-700
        zs = [float(z) for z in np.logspace(math.log10(1e-3), math.log10(699.0), 24)]
        zs += [math.nextafter(2.0, 0.0), 2.0, 700.0]
        # the small-z end, where arc 0 is ~ln(1/z) long and flat but for its tail
        zs += [1e-8, 1e-12, 1e-50, 1e-300, 5e-324]
        zs += [min(float(z), 700.0) for z in np.logspace(math.log10(2.0), math.log10(700.0), 15)]
        with mp.workdps(40):
            for z in zs:
                assert k0_oscillatory(z) == float(mp.besselk(0, z)), z

    def test_rule_check_sees_a_coarse_rule(self, monkeypatch):
        # G6K13 leaves the arcs off by ~6e-7, which the truncation check
        # cannot see; the rule check against its six Gauss nodes must refuse
        monkeypatch.setattr("qlorentz.propagator._GAUSS_DEGREE", 2)
        with pytest.raises(NonConvergence) as exc:
            k0_oscillatory(200.0)
        diag = exc.value.diagnostics
        assert diag["rule"] == "G6K13" and diag["dps"] == 112
        assert diag["drift"] <= 1e-8 < diag["rule_drift"]

    @pytest.mark.parametrize("z", [1e-50, 1e-8])
    def test_rule_check_sees_a_one_arc_arc0(self, monkeypatch, z):
        # arc 0 of the z < 2 branch as one arc, the shape that was off by
        # 1.7e-5 at z = 1e-50: the truncation check cannot see it
        def one_arc(mp, zz, nodes):
            xs, ks, gs = nodes
            half = mp.asinh(mp.pi / (2 * zz)) / 2
            fs = [mp.cos(zz * mp.sinh(half + half * x)) for x in xs]
            return half * mp.fdot(ks, fs), half * mp.fdot(gs, fs)

        monkeypatch.setattr("qlorentz.propagator._u_arc0", one_arc)
        with pytest.raises(NonConvergence) as exc:
            k0_oscillatory(z)
        diag = exc.value.diagnostics
        assert diag["drift"] <= 1e-8 < diag["rule_drift"]

    @pytest.mark.parametrize(
        "degree,rung",
        [(3, 128), (3, 256), (3, 512), (3, 1024), (3, 2048), (2, 512)],
        ids=["128", "256", "512", "1024", "2048", "G6K13-512"],
    )
    def test_nested_table(self, degree, rung):
        # G12K25 at every rung the route builds it at, and G6K13 at the rung
        # test_rule_check_sees_a_coarse_rule plants it at.  With n Gauss
        # nodes the Kronrod rule is exact to x^(3n + 1), the Gauss rule
        # inside it to x^(2n - 1), every weight is positive, and the Gauss
        # nodes and weights are mpmath's rule bit for bit
        from mpmath.calculus.quadrature import GaussLegendre

        n = 3 << (degree - 1)
        (xs, ks, gs), ixs, iks, igs, _ = propagator._gk_table(degree, rung)
        size = 2 * n + 1
        assert (len(xs), len(ks), len(gs), len(ixs), len(iks), len(igs)) == (size, size, n, size, size, n)
        assert list(zip(xs, gs)) == GaussLegendre(mp.mp).get_nodes(-1, 1, degree, rung)
        assert len(set(xs)) == size and 0 in xs
        assert all(w > 0 for w in ks + gs)
        with mp.workprec(rung + 40):
            for ws, top in ((ks, 3 * n + 1), (gs, 2 * n - 1)):
                for k in range(top + 1):
                    exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else 0
                    got = mp.fsum(w * x**k for x, w in zip(xs, ws))
                    assert abs(got - exact) <= mp.ldexp(1, -rung), (top, k)
                # and no further: the degree is sharp
                got = mp.fsum(w * x ** (top + 1) for x, w in zip(xs, ws))
                assert abs(got - mp.mpf(2) / (top + 2)) > 1e-20, top

    @pytest.mark.parametrize("step,value", [(1, lambda: mp.log(2)), (2, lambda: mp.pi / 4)])
    def test_cvz_sums_alternating_series(self, step, value):
        # sum (-1)^k / (step k + 1) on 100-bit fixed-point terms: ln 2, pi/4
        bits = 100
        s, d = propagator._cvz([(1 << bits) // (step * k + 1) for k in range(36)])
        with mp.workdps(40):
            assert abs(mp.mpf(s) / (d << bits) - value()) <= 1e-25

    def test_value_does_not_depend_on_the_node_cache(self):
        zs = [1e-50, 1.0, 10.0]
        code = f"from qlorentz.propagator import k0_oscillatory as f; print([f(z) for z in {zs!r}])"
        src = os.path.dirname(os.path.dirname(qlorentz.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        fresh = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert fresh.returncode == 0, fresh.stderr
        expected = fresh.stdout.strip()
        k0_oscillatory(700.0)  # tables at the highest rung
        assert repr([k0_oscillatory(z) for z in zs]) == expected
        propagator._gk_table.cache_clear()
        assert repr([k0_oscillatory(z) for z in zs]) == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            k0_oscillatory(-2.0)


class TestGamma:
    def test_bessel_pin(self):
        got = gamma_bessel(0.0, 1.0)
        assert got.imag == 0.0 and got.real > 0.0
        assert rel(got.real, K0_AT_1 / TWO_PI) < 1e-10

    def test_offset_time_slice(self):
        got = gamma_bessel(0.6, 1.0)
        assert rel(got.real, k0(0.8) / TWO_PI) < 1e-14

    def test_not_spacelike(self):
        with pytest.raises(NotSpacelike):
            gamma_bessel(1.0, 0.5)
        with pytest.raises(NotSpacelike):
            gamma_quadrature(1.0, 1.0)  # lightlike

    def test_cross_method_samples(self):
        rng = random.Random(7)
        for _ in range(20):
            z = rng.uniform(0.05, 20.0)
            phi = rng.uniform(0.0, 2.0)
            tau, xi = z * math.sinh(phi), z * math.cosh(phi)
            gb, gq = gamma_bessel(tau, xi), gamma_quadrature(tau, xi)
            assert abs(gq - gb) / abs(gb) <= 1e-6

    def test_boost_covariance(self):
        base = gamma_quadrature(0.0, 1.0)
        boosted = gamma_quadrature(math.sinh(0.3), math.cosh(0.3))
        assert abs(boosted - base) / abs(base) <= 1e-6

    def test_hyperbola_constancy(self):
        z = 1.3
        values = [
            gamma_bessel(z * math.sinh(phi), z * math.cosh(phi)).real
            for phi in np.linspace(0.0, 3.0, 7)
        ]
        ref = values[0]
        assert all(abs(v - ref) / ref <= 1e-6 for v in values)


class TestClassification:
    @pytest.mark.parametrize(
        "tau,xi,criterion,expected",
        [
            (0.0, 0.5, "probability_eq13", Classification.SPACELIKE_NONNEGLIGIBLE),
            (0.0, 0.5, "amplitude_eq2", Classification.SPACELIKE_NONNEGLIGIBLE),
            (0.0, 1.0, "amplitude_eq2", Classification.SPACELIKE_NONNEGLIGIBLE),
            (0.0, 1.0, "probability_eq13", Classification.SPACELIKE_NEGLIGIBLE),
            (0.0, 2.0, "amplitude_eq2", Classification.SPACELIKE_NEGLIGIBLE),
            (1.0, 0.0, "amplitude_eq2", Classification.TIMELIKE_OR_LIGHTLIKE),
            (1.0, 1.0, "amplitude_eq2", Classification.TIMELIKE_OR_LIGHTLIKE),
            # the rounded s is 1, the exact s - 1 of the two doubles +2.1e-16
            (1.6576530344918071e-06, 1.000000000001374, "amplitude_eq2", Classification.SPACELIKE_NEGLIGIBLE),
            # an infinite coordinate: z is inf or 0, and the ints of the exact compare do not exist
            (0.0, math.inf, "amplitude_eq2", Classification.SPACELIKE_NEGLIGIBLE),
            (0.0, math.inf, "probability_eq13", Classification.SPACELIKE_NEGLIGIBLE),
            (math.inf, 0.0, "amplitude_eq2", Classification.TIMELIKE_OR_LIGHTLIKE),
            (-math.inf, 1.0, "probability_eq13", Classification.TIMELIKE_OR_LIGHTLIKE),
        ],
    )
    def test_boundary_table(self, tau, xi, criterion, expected):
        crit = ThresholdCriterion(criterion)
        assert classify_interval(tau, xi, crit) is expected

    def test_boundary_inclusive_off_axis(self):
        # same separation reached with nonzero tau
        tau = 0.3
        xi = math.sqrt(0.25 + tau * tau)
        got = classify_interval(tau, xi, ThresholdCriterion.PROBABILITY_EQ13)
        assert got is Classification.SPACELIKE_NONNEGLIGIBLE

    @pytest.mark.parametrize("criterion", list(ThresholdCriterion))
    @pytest.mark.parametrize(
        "tau,xi", [(math.nan, 1.0), (0.0, math.nan), (1.0, math.nan), (math.inf, math.inf)]
    )
    def test_nan_coordinate_refused(self, tau, xi, criterion):
        with pytest.raises(DomainError):
            classify_interval(tau, xi, criterion)

    def test_depends_only_on_interval(self):
        # any (tau, xi) with the same xi^2 - tau^2 classifies identically
        rng = random.Random(99)
        for _ in range(50):
            s = rng.uniform(0.01, 2.0)
            for crit in ThresholdCriterion:
                ref = classify_interval(0.0, math.sqrt(s), crit)
                for _ in range(4):
                    tau = rng.uniform(0.0, 2.0)
                    xi = math.sqrt(s + tau * tau)
                    assert classify_interval(tau, xi, crit) is ref

    @settings(max_examples=400, deadline=None)
    @given(
        tau=st.floats(min_value=0.0, max_value=50.0, exclude_min=True)
        | st.floats(min_value=0.0, max_value=50e-6, exclude_min=True),
        criterion=st.sampled_from(list(ThresholdCriterion)),
        ulps=st.integers(-4, 4),
    )
    def test_exact_near_both_boundaries_off_axis(self, tau, criterion, ulps):
        # the double s rounds three times, and within a few ulps of a
        # boundary that can put it on the wrong side of the exact value
        xi = ulps_from(math.sqrt(criterion.boundary + tau * tau), ulps)
        expected = exact_class(exact_interval(tau, xi), criterion)
        assert classify_interval(tau, xi, criterion) is expected
        check_point_record(tau, xi)

    @settings(max_examples=400, deadline=None)
    @given(root=st.sampled_from([1.0, 0.5]), ulps=st.integers(-3000, 3000))
    def test_scan_rows_exact_on_the_axis(self, root, ulps):
        # on tau = 0, s = fl(xi^2) is monotone in xi and _rows compares it
        # inline; its classes must be _classify's and the exact ones
        xi = ulps_from(root, ulps)
        (*_, class_eq2, class_eq13), = propagator._rows([xi])
        for criterion, got in zip(ThresholdCriterion, (class_eq2, class_eq13)):
            expected = exact_class(exact_interval(0.0, xi), criterion)
            assert got is expected
            assert classify_interval(0.0, xi, criterion) is expected


def ulps_from(x, k):
    """The double k ulps from the positive double x."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits + k))[0]


def exact_interval(tau, xi):
    return Fraction(xi) ** 2 - Fraction(tau) ** 2


def exact_class(s, criterion):
    if s <= 0:
        return Classification.TIMELIKE_OR_LIGHTLIKE
    if s <= Fraction(criterion.boundary):
        return Classification.SPACELIKE_NONNEGLIGIBLE
    return Classification.SPACELIKE_NEGLIGIBLE


def check_point_record(tau, xi):
    """point_at's fields equal (==) the per-field public functions."""
    try:
        gamma = gamma_bessel(tau, xi)
    except UnderflowToZero:
        with pytest.raises(UnderflowToZero):
            point_at(tau, xi)
        return
    p = point_at(tau, xi)
    assert p.z == spacelike_z(tau, xi)
    assert p.interval == interval(tau, xi)
    assert p.gamma == gamma
    assert p.prob == abs(gamma) ** 2
    assert p.class_eq2 is classify_interval(tau, xi, ThresholdCriterion.AMPLITUDE_EQ2)
    assert p.class_eq13 is classify_interval(tau, xi, ThresholdCriterion.PROBABILITY_EQ13)


def check_against_exact(tau, xi):
    """spacelike_z, classify_interval and point_at against the exact float interval."""
    s = exact_interval(tau, xi)
    if s <= 0:
        with pytest.raises(NotSpacelike):
            spacelike_z(tau, xi)
        with pytest.raises(NotSpacelike):
            point_at(tau, xi)
    else:
        z = spacelike_z(tau, xi)
        assert 0.0 < z < math.inf
        if z >= 1e-300:  # normal doubles: a few rounding errors at most
            assert abs(Fraction(z) ** 2 - s) <= Fraction(1e-15) * s
        check_point_record(tau, xi)
    for crit in ThresholdCriterion:
        assert classify_interval(tau, xi, crit) is exact_class(s, crit)


_magnitudes = st.floats(min_value=1e-300, max_value=1e300)
_signs = st.sampled_from((1.0, -1.0))


class TestIntervalProperties:
    @given(tau=_magnitudes, ulps=st.integers(-8, 8), s_tau=_signs, s_xi=_signs)
    @settings(max_examples=300, deadline=None)
    def test_near_light_cone(self, tau, ulps, s_tau, s_xi):
        xi = tau + ulps * math.ulp(tau)
        check_against_exact(s_tau * tau, s_xi * xi)

    @given(
        z=st.floats(min_value=1e-3, max_value=600.0),
        eta=st.floats(min_value=0.0, max_value=40.0),
        s_tau=_signs,
    )
    @settings(max_examples=300, deadline=None)
    def test_large_rapidity(self, z, eta, s_tau):
        check_against_exact(s_tau * z * math.sinh(eta), z * math.cosh(eta))

    @given(
        tau=st.floats(allow_nan=False, allow_infinity=False),
        xi=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_finite_inputs(self, tau, xi):
        check_against_exact(tau, xi)

    def test_one_ulp_off_the_cone(self):
        # xi*xi - tau*tau rounds to 2 here; the exact interval is 2.98
        tau = 1e8
        xi = math.nextafter(tau, math.inf)
        assert spacelike_z(tau, xi) == pytest.approx(1.7263349150062195, rel=1e-15)

    def test_overflowing_squares(self):
        # xi*xi and tau*tau are both inf; their difference was nan
        z = spacelike_z(1e200, 2e200)
        assert z == pytest.approx(math.sqrt(3.0) * 1e200, rel=1e-15)
        assert interval(1e200, 2e200) == -math.inf
        with pytest.raises(UnderflowToZero):
            gamma_bessel(1e200, 2e200)
        crit = ThresholdCriterion.AMPLITUDE_EQ2
        assert classify_interval(1e200, 2e200, crit) is Classification.SPACELIKE_NEGLIGIBLE

    @pytest.mark.parametrize(
        "fn", [interval, spacelike_z, point_at, gamma_bessel, gamma_quadrature],
        ids=lambda fn: fn.__name__,
    )
    @pytest.mark.parametrize("tau,xi", [(math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf)])
    def test_no_interval_refused(self, fn, tau, xi):
        # a DomainError, not NotSpacelike: a NaN or inf - inf pair has no interval at all
        with pytest.raises(DomainError, match=r"has no interval: xi\^2 - tau\^2 = nan$"):
            fn(tau, xi)


class TestScan:
    def test_shape_and_monotonicity(self):
        pts = scan(0.1, 3.0, 30)
        assert len(pts) == 30
        probs = [p.prob for p in pts]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_weinberg_rows(self):
        pts = scan(0.1, 3.0, 30)
        by_z = {round(p.z, 10): p for p in pts}
        half, one = by_z[0.5], by_z[1.0]
        assert half.class_eq2 is Classification.SPACELIKE_NONNEGLIGIBLE
        assert half.class_eq13 is Classification.SPACELIKE_NONNEGLIGIBLE
        assert one.class_eq2 is Classification.SPACELIKE_NONNEGLIGIBLE
        assert one.class_eq13 is Classification.SPACELIKE_NEGLIGIBLE

    def test_point_invariants(self):
        p = point_at(0.25, 1.25)
        assert p.prob == abs(p.gamma) ** 2
        assert p.z == spacelike_z(0.25, 1.25)
        assert p.interval == interval(p.tau, p.xi) == pytest.approx(-(p.z**2))

    @settings(max_examples=100, deadline=None)
    @given(
        z_min=st.floats(min_value=0.0, max_value=650.0, exclude_min=True),
        width=st.floats(min_value=0.0, max_value=50.0, exclude_min=True),
        steps=st.integers(min_value=2, max_value=300),
    )
    def test_grid_is_numpys_linspace(self, z_min, width, steps):
        z_max = z_min + width
        assume(z_min < z_max)
        assert [p.xi for p in scan(z_min, z_max, steps)] == list(np.linspace(z_min, z_max, steps))

    def test_subnormal_span_grid(self):
        # the step underflows to 0 here; numpy then scales i/(steps - 1) instead
        xs = [p.xi for p in scan(1e-320, 2e-320, 5000)]
        assert xs == list(np.linspace(1e-320, 2e-320, 5000))

    def test_bad_ranges(self):
        with pytest.raises(DomainError):
            scan(3.0, 1.0, 10)
        with pytest.raises(DomainError):
            scan(0.0, 1.0, 10)
        with pytest.raises(DomainError):
            scan(0.1, 1.0, 1)

    def test_infinite_end_refused(self):
        with pytest.raises(DomainError, match=r"^need 0 < z_min < z_max, got \[1\.0, inf\]$"):
            scan(1.0, math.inf, 3)

    @pytest.mark.parametrize("z_max", [2.0, 800.0])
    def test_steps_past_the_largest_double_refused(self, z_max):
        # steps - 1 must convert to a float: the grid's step divides by it
        largest = int(sys.float_info.max)
        with pytest.raises(DomainError, match=r"^need steps - 1 <= 1\.7976931348623157e\+308"):
            propagator.scan_rows(1.0, z_max, largest + 2)
        with pytest.raises(DomainError):
            propagator.scan_rows(1.0, z_max, 10**400)
        if z_max < Z_UNDERFLOW:
            assert next(propagator.scan_rows(1.0, z_max, largest + 1))[0] == 1.0
        else:
            with pytest.raises(UnderflowToZero):
                propagator.scan_rows(1.0, z_max, largest + 1)

    def test_grid_streams(self):
        # the first row comes before the grid is built: 10^6 steps held as
        # a list of floats would take ~32 MB
        tracemalloc.start()
        try:
            next(propagator.scan_rows(1.0, 2.0, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_underflow_names_the_first_point_past_it(self):
        with pytest.raises(UnderflowToZero, match=r"^k0\(700\.025\) underflows double precision$"):
            scan(1.0, 800.0, 1000)

    def test_underflow_refusal_names_the_walks_point(self):
        # the refusal finds its point without walking the grid; it must name
        # the point a walk from z_min finds, on grids that hit the bound
        # exactly, end just past it, start past it, or step so far below the
        # spacing of doubles that half their points round to the bound
        cases = [
            (1.0, 800.0, 800),
            (600.0, 800.0, 3),
            (1.0, 700.0 + 2**-43, 10**5),
            (750.0, 800.0, 7),
            (700.0 - 2**-43, 700.0 + 2**-43, 10**5),
        ]
        rng = random.Random(29)
        for _ in range(60):
            z_min = rng.choice((rng.uniform(1e-3, Z_UNDERFLOW), rng.uniform(699.0, 701.0)))
            z_max = max(z_min, Z_UNDERFLOW) + rng.choice((rng.uniform(0.0, 200.0), rng.uniform(0.0, 1e-9)))
            cases.append((z_min, z_max, round(10 ** rng.uniform(0.3, 5))))
        for z_min, z_max, steps in cases:
            if not z_min < z_max or z_max <= Z_UNDERFLOW or steps < 2:
                continue
            walk = next(xi for xi in propagator._linspace(z_min, z_max, steps) if xi > Z_UNDERFLOW)
            assert propagator._first_above(z_min, z_max, steps, Z_UNDERFLOW) == walk
            with pytest.raises(UnderflowToZero) as refused:
                next(propagator.scan_rows(z_min, z_max, steps))
            assert str(refused.value) == f"k0({walk:g}) underflows double precision"

    @settings(max_examples=100, deadline=None)
    @given(
        ends=st.one_of(
            # across both kernel splices, z = 2 and z = 14
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
                st.floats(min_value=14.0, max_value=Z_UNDERFLOW),
            ),
            # subnormal spans of a few least subnormals, where the step can
            # underflow to 0 and the grid scales by i/(steps - 1) instead
            st.tuples(st.integers(1, 2**20), st.integers(1, 1000)).map(
                lambda ab: (ab[0] * 5e-324, (ab[0] + ab[1]) * 5e-324)
            ),
        ),
        steps=st.integers(min_value=2, max_value=200),
    )
    def test_rows_equal_point_at(self, ends, steps):
        z_min, z_max = ends
        assume(z_min < z_max)
        grid = np.linspace(z_min, z_max, steps).tolist()
        assert scan(z_min, z_max, steps) == [point_at(0.0, xi) for xi in grid]


class TestFalloff:
    def test_window_5_15(self):
        slope = falloff_fit(5.0, 15.0, 50)
        assert -2.02 <= slope <= -1.98

    def test_improves_with_z(self):
        near = falloff_fit(5.0, 15.0, 50)
        far = falloff_fit(20.0, 30.0, 50)
        assert abs(far + 2.0) < abs(near + 2.0)

    @pytest.mark.parametrize("window", [(5.0, 15.0, 50), (1.0, 690.0, 50), (1.0, 5.0, 3)])
    def test_matches_numpy_polyfit(self, window):
        z_lo, z_hi, n = window
        zs = np.logspace(math.log10(z_lo), math.log10(z_hi), n)
        ys = [2.0 * math.log(k0(z) / TWO_PI) + math.log(z) for z in zs]
        want, _ = np.polyfit(zs, ys, 1)
        assert rel(falloff_fit(z_lo, z_hi, n), want) <= 1e-12

    @staticmethod
    def mpmath_slope(z_hi):
        """The fit over [1, z_hi] by mpmath's besselk and numpy's polyfit."""
        zs = np.logspace(0.0, math.log10(z_hi), 50)
        ys = [float(2 * mp.log(mp.besselk(0, z) / (2 * mp.pi)) + mp.log(z)) for z in zs]
        want, _ = np.polyfit(zs, ys, 1)
        return want

    def test_window_past_square_underflow(self):
        # (K0/2pi)^2 underflows to 0 past z ~ 372; the fit must not take its log
        assert rel(falloff_fit(1.0, 690.0), self.mpmath_slope(690.0)) <= 1e-8

    def test_window_ending_at_the_kernels_bound(self):
        # 10**log10(700) is 700.0000000000001, a z the kernel refuses
        assert rel(falloff_fit(1.0, Z_UNDERFLOW), self.mpmath_slope(Z_UNDERFLOW)) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            falloff_fit(5.0, 5.0, 10)
        with pytest.raises(DomainError):
            falloff_fit(5.0, 15.0, 2)

    def test_window_past_the_kernel_refused(self):
        with pytest.raises(UnderflowToZero, match=r"^k0\(700\.5\) underflows"):
            falloff_fit(1.0, Z_UNDERFLOW + 0.5)

    def test_subnormal_window_refused(self):
        # the squared spread of the z samples underflows to 0
        with pytest.raises(DomainError, match=r"^no slope over \[5e-324, 1e-300\]"):
            falloff_fit(5e-324, 1e-300)

    def test_infinite_end_refused(self):
        with pytest.raises(DomainError, match=r"^need 0 < z_lo < z_hi, got \[1, inf\]$"):
            falloff_fit(1, math.inf)


class TestHBound:
    def test_holds(self):
        assert hbound_check(100)

    def test_large_sample_is_fast(self):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            assert hbound_check(10_000)
            best = min(best, time.perf_counter() - start)
        assert best < 0.010

    def test_needs_samples(self):
        with pytest.raises(DomainError):
            hbound_check(0)


class TestUnits:
    def test_natural_unit_mass(self):
        # the mass whose Compton wavelength is one meter
        assert compton_wavelength(HBAR_SI / C_SI) == 1.0

    def test_electron_value(self):
        import mpmath as mp

        got = compton_wavelength(9.1093837015e-31)
        with mp.workdps(30):
            oracle = mp.mpf("6.62607015e-34") / (
                2 * mp.pi * mp.mpf("9.1093837015e-31") * mp.mpf("299792458")
            )
            assert rel(got, float(oracle)) < 1e-12
        assert rel(got, 3.8615926796e-13) < 1e-9

    def test_hbar_is_derived(self):
        assert HBAR_SI == PLANCK_SI / TWO_PI

    def test_mev_conversion(self):
        # 197.3269804 MeV fm over 1 MeV, in meters
        assert lambda_bar_from_mev(1.0) == pytest.approx(1.973269804e-13, rel=1e-12)

    def test_nonpositive_mass(self):
        # an infinite mass would give a wavelength of 0.0
        for helper in (compton_wavelength, lambda_bar_from_mev):
            for mass in (0.0, -2.0, math.inf, math.nan):
                with pytest.raises(NonpositiveMass, match="^mass must be positive and finite, got "):
                    helper(mass)

    @pytest.mark.parametrize(
        "helper,mass,message",
        [
            (lambda_bar_from_mev, 5e-324, "of the mass 5e-324 MeV/c^2 must be positive and finite, got inf"),
            (compton_wavelength, 1e301, "of the mass 1e+301 kg must be positive and finite, got 0.0"),
            (lambda_bar_from_mev, 1e300, "of the mass 1e+300 MeV/c^2 must be a normal double"),
            (compton_wavelength, 1e270, "of the mass 1e+270 kg must be a normal double"),
        ],
        ids=["mev-overflows", "kg-underflows", "mev-subnormal", "kg-subnormal"],
    )
    def test_wavelength_not_normal_refused(self, helper, mass, message):
        # a wavelength that overflows, underflows to 0 or is subnormal has lost its digits
        with pytest.raises(DomainError, match="^lambda-bar " + re.escape(message)):
            helper(mass)
