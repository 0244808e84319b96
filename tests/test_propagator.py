"""Numeric amplitude: kernel accuracy, route agreement, classification."""

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlorentz import _kernels
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
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
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


class TestOscillatoryRoute:
    def test_self_check_trips(self, monkeypatch):
        monkeypatch.setattr("qlorentz.propagator._CHECK_TOL", 0.0)
        with pytest.raises(NonConvergence) as exc:
            k0_oscillatory(3.0)
        assert exc.value.diagnostics["z"] == 3.0

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
        boundary = Fraction(crit.boundary)
        got = classify_interval(tau, xi, crit)
        assert got is exact_class(s, crit) or abs(s - boundary) <= Fraction(1e-15) * boundary


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

    def test_underflow_names_the_first_point_past_it(self):
        with pytest.raises(UnderflowToZero, match=r"^k0\(700\.025\) underflows double precision$"):
            scan(1.0, 800.0, 1000)

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

    def test_window_past_square_underflow(self):
        # (K0/2pi)^2 underflows to 0 past z ~ 372; the fit must not take its log
        zs = np.logspace(0.0, math.log10(690.0), 50)
        ys = [float(2 * mp.log(mp.besselk(0, z) / (2 * mp.pi)) + mp.log(z)) for z in zs]
        want, _ = np.polyfit(zs, ys, 1)
        assert rel(falloff_fit(1.0, 690.0), want) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            falloff_fit(5.0, 5.0, 10)
        with pytest.raises(DomainError):
            falloff_fit(5.0, 15.0, 2)

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
        with pytest.raises(NonpositiveMass):
            compton_wavelength(0.0)
        with pytest.raises(NonpositiveMass):
            lambda_bar_from_mev(-2.0)
