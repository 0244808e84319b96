"""Spacelike propagation amplitude, evaluated two independent ways.

All internal numerics are dimensionless.  Times and positions arrive
already divided by the reduced Compton wavelength lambda-bar, written tau
and xi here, and for a spacelike pair the amplitude depends on the single
variable z = sqrt(xi^2 - tau^2):

* ``gamma_bessel``     closed form (1/2pi) K0(z) on the fast kernel.
* ``gamma_quadrature`` the oscillatory integral (1/2pi) int_0^inf
  cos(z sinh u) du, summed half-period by half-period in scaled working
  precision with alternating-series acceleration.

The two routes share no code below this module's interface; their
agreement is the cross-check the test suite leans on.  Unit conversion
(kg, MeV/c^2, meters, seconds) happens only at the CLI boundary through
the helpers at the bottom.
"""

from __future__ import annotations

import enum
import functools
import math
import statistics
import sys
from collections import namedtuple
from collections.abc import Iterator

from . import _kernels
from .errors import (
    DomainError,
    NonConvergence,
    NonpositiveMass,
    NotSpacelike,
    UnderflowToZero,
)

TWO_PI = 2.0 * math.pi

# K0(z) ~ sqrt(pi/2z) e^-z drops below the smallest normal double near
# z = 745; refuse a little earlier, while the value is still exact.
Z_UNDERFLOW = 700.0
_NORMAL_MIN = sys.float_info.min  # normal doubles: no over- or underflow
_NORMAL_MAX = sys.float_info.max

PLANCK_SI = 6.62607015e-34  # J s, exact by SI definition
HBAR_SI = PLANCK_SI / TWO_PI
C_SI = 299792458.0  # m / s, exact
HBARC_MEV_FM = 197.3269804  # MeV fm


# ---------------------------------------------------------------------------
# kernel route


def _checked_z(z: float, name: str) -> float:
    """z as a float, or the error both K0 routes raise outside their domain.

    z must be a positive real; values past ``Z_UNDERFLOW`` are refused
    rather than silently returned as subnormal noise.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"{name} requires z > 0, got {z!r}")
    if z > Z_UNDERFLOW:
        raise UnderflowToZero(f"{name}({z:g}) underflows double precision")
    return z


def k0(z: float) -> float:
    """Modified Bessel function of the second kind, order zero.

    The piecewise kernel of ``_kernels`` behind the domain contract of
    ``_checked_z``.
    """
    return _kernels.k0(_checked_z(z, "k0"))


def _interval(tau: float, xi: float) -> tuple[float, float]:
    """(s, z) with s = xi^2 - tau^2 and z = sqrt(s), or z = 0.0 if s <= 0.

    s is formed as (xi - tau)*(xi + tau), which keeps near the light cone
    the digits that xi*xi - tau*tau cancels away.  Where that product
    leaves the normal double range (a sum overflows to inf or a tiny
    spacelike pair underflows to 0) it is redone on operands scaled by a
    power of two, so z is finite for all finite inputs and positive
    exactly when the pair is spacelike; s itself saturates to +-inf or 0
    beyond the double range.  The scaled product is NaN only for a NaN
    coordinate or an inf - inf pair, which have no interval: DomainError.
    """
    s = (xi - tau) * (xi + tau)
    if _NORMAL_MIN <= s <= _NORMAL_MAX:
        return s, math.sqrt(s)
    if -_NORMAL_MAX <= s <= -_NORMAL_MIN:
        return s, 0.0
    e = math.frexp(max(abs(tau), abs(xi)))[1]
    a, b = math.ldexp(xi, -e), math.ldexp(tau, -e)
    m = (a - b) * (a + b)
    if math.isnan(m):
        raise DomainError(f"(tau={tau!r}, xi={xi!r}) has no interval: xi^2 - tau^2 = {m!r}")
    z = math.ldexp(math.sqrt(m), e) if m > 0.0 else 0.0
    try:
        return math.ldexp(m, 2 * e), z
    except OverflowError:
        return math.copysign(math.inf, m), z


def interval(tau: float, xi: float) -> float:
    """Squared interval tau^2 - xi^2 in lambda-bar^2 units (negative = spacelike).

    DomainError for a NaN coordinate or an inf - inf pair, which have none.
    """
    return -_interval(tau, xi)[0]


def _spacelike(tau: float, xi: float) -> tuple[float, float]:
    """``_interval``'s (s, z), or NotSpacelike if the pair is not spacelike."""
    s, z = _interval(tau, xi)
    if z == 0.0:
        raise NotSpacelike(
            f"(tau={tau!r}, xi={xi!r}) is not spacelike: xi^2 - tau^2 = {s!r}"
        )
    return s, z


def spacelike_z(tau: float, xi: float) -> float:
    return _spacelike(tau, xi)[1]


def gamma_bessel(tau: float, xi: float) -> complex:
    """Amplitude (1/2pi) K0(z) as a real-positive complex value."""
    return complex(k0(spacelike_z(tau, xi)) / TWO_PI, 0.0)


# ---------------------------------------------------------------------------
# oscillatory route
#
# Gamma = (1/2pi) int_0^inf cos(z sinh u) du.  The integrand oscillates
# with slowly growing frequency and does not decay, so the integral only
# exists as an Abel-summed alternating series of half-period arcs.  We
# integrate each arc between consecutive zeros with a fixed
# Gauss-Legendre rule and feed the arc magnitudes to the
# Cohen-Villegas-Zagier accelerator, which converges geometrically for
# such series.  Working precision scales with z because the answer
# shrinks like e^-z while the arcs stay O(1/z).  Only this route imports mpmath.

_GL_DEGREE = 4  # mpmath's Gauss-Legendre degree: 24 nodes per arc

_CHECK_DROP = 8  # arcs withheld for the convergence self-check
_CHECK_TOL = 1e-8


@functools.cache
def _gl_nodes(prec):
    from mpmath import mp
    from mpmath.calculus.quadrature import GaussLegendre
    return GaussLegendre(mp).get_nodes(-1, 1, _GL_DEGREE, prec)


def _cvz(mp, terms):
    # Cohen-Villegas-Zagier acceleration of sum (-1)^k terms[k], terms > 0.
    n = len(terms)
    d = (3 + mp.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b = mp.mpf(-1)
    c = -d
    s = mp.mpf(0)
    for k in range(n):
        c = b - c
        s += c * terms[k]
        b = (k + n) * (k - n) * b / ((k + mp.mpf("0.5")) * (k + 1))
    return s / d


def k0_oscillatory(z: float) -> float:
    """int_0^inf cos(z sinh u) du, the independent route to K0(z).

    Shares nothing with the kernel: different representation, different
    arithmetic.  Raises NonConvergence when the internal self-check
    (recomputing with the last few arcs withheld) disagrees.
    """
    import mpmath as mp
    z = _checked_z(z, "k0_oscillatory")
    dps = 25 + int(0.55 * z)
    narcs = 36 + int(0.6 * z)
    with mp.workdps(dps):
        zz = mp.mpf(z)
        nodes = _gl_nodes(mp.mp.prec)
        if z >= 2.0:
            # substitute w = sinh u; zeros of cos(z w) are equally spaced
            def f(w):
                return mp.cos(zz * w) / mp.sqrt(1 + w * w)

            def zero(n):
                return (n + mp.mpf("0.5")) * mp.pi / zz

        else:
            def f(u):
                return mp.cos(zz * mp.sinh(u))

            def zero(n):
                return mp.asinh((n + mp.mpf("0.5")) * mp.pi / zz)

        def arc(a, b):
            mid = (a + b) / 2
            half = (b - a) / 2
            s = mp.mpf(0)
            for xk, wk in nodes:
                s += wk * f(mid + half * xk)
            return half * s

        terms = []
        prev = mp.mpf(0)
        for n in range(narcs):
            nxt = zero(n)
            terms.append(abs(arc(prev, nxt)))
            prev = nxt

        full = _cvz(mp, terms)
        check = _cvz(mp, terms[:-_CHECK_DROP])
        drift = abs(full - check) / abs(full)
        if drift > _CHECK_TOL:
            raise NonConvergence(
                f"oscillatory sum for z={z:g} failed its self-check",
                z=z,
                arcs=narcs,
                drift=float(drift),
            )
        return float(full)


def gamma_quadrature(tau: float, xi: float) -> complex:
    """Amplitude by direct integration; cross-checks gamma_bessel."""
    return complex(k0_oscillatory(spacelike_z(tau, xi)) / TWO_PI, 0.0)


# ---------------------------------------------------------------------------
# interval classification


class Classification(enum.Enum):
    TIMELIKE_OR_LIGHTLIKE = "timelike_or_lightlike"
    SPACELIKE_NONNEGLIGIBLE = "spacelike_nonnegligible"
    SPACELIKE_NEGLIGIBLE = "spacelike_negligible"


class ThresholdCriterion(enum.Enum):
    """Which negligibility boundary applies, in lambda-bar^2 units.

    The amplitude criterion keeps xi^2 - tau^2 <= 1; the probability
    criterion tightens the window by a factor of four.  Both boundaries
    are inclusive on the nonnegligible side.
    """

    AMPLITUDE_EQ2 = "amplitude_eq2"
    PROBABILITY_EQ13 = "probability_eq13"

    @property
    def boundary(self) -> float:
        return 1.0 if self is ThresholdCriterion.AMPLITUDE_EQ2 else 0.25


def _classify(s: float, z: float, criterion: ThresholdCriterion) -> Classification:
    if z == 0.0:
        return Classification.TIMELIKE_OR_LIGHTLIKE
    if s <= criterion.boundary:
        return Classification.SPACELIKE_NONNEGLIGIBLE
    return Classification.SPACELIKE_NEGLIGIBLE


def classify_interval(
    tau: float, xi: float, criterion: ThresholdCriterion
) -> Classification:
    """The class of (tau, xi); DomainError where the interval is undefined."""
    return _classify(*_interval(tau, xi), criterion)


# ---------------------------------------------------------------------------
# tabulation


PropagatorPoint = namedtuple(
    "PropagatorPoint", "tau xi z interval gamma prob class_eq2 class_eq13"
)
PropagatorPoint.__doc__ = """One spacelike point: its interval (tau^2 - xi^2, as ``interval``
returns it), the kernel-route amplitude and its probability, both classes."""


def point_at(tau: float, xi: float) -> PropagatorPoint:
    """The record of one spacelike pair; the interval is formed only once."""
    s, z = _spacelike(tau, xi)
    gamma = complex(k0(z) / TWO_PI, 0.0)
    return PropagatorPoint(
        tau=tau,
        xi=xi,
        z=z,
        interval=-s,
        gamma=gamma,
        prob=abs(gamma) ** 2,
        class_eq2=_classify(s, z, ThresholdCriterion.AMPLITUDE_EQ2),
        class_eq13=_classify(s, z, ThresholdCriterion.PROBABILITY_EQ13),
    )


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """np.linspace(start, stop, n >= 2) bit for bit, by numpy's own formula."""
    span = stop - start
    step = span / (n - 1)
    if step == 0.0:  # a subnormal span: numpy scales by i/(n - 1) first
        grid = [(i / (n - 1)) * span + start for i in range(n)]
    else:
        grid = [i * step + start for i in range(n)]
    grid[-1] = float(stop)
    return grid


def scan_rows(z_min: float, z_max: float, steps: int) -> Iterator[tuple]:
    """The tau = 0 slice on a linear inclusive grid, as plain row tuples.

    Each row is (xi, z, interval, gamma, prob, class_eq2, class_eq13),
    the fields of ``point_at(0.0, xi)`` with gamma as its real part, and
    equal to them.  Every refusal is raised here, before the first row, so
    a caller that prints row by row prints nothing for a refused scan.
    """
    if not (0.0 < z_min < z_max < math.inf):
        raise DomainError(f"need 0 < z_min < z_max, got [{z_min!r}, {z_max!r}]")
    if steps < 2:
        raise DomainError(f"need steps >= 2, got {steps!r}")
    grid = _linspace(z_min, z_max, steps)
    # the grid increases and z == xi on tau = 0, so its last point bounds
    # every z; a refusal names the first point past the bound, as point_at does
    if grid[-1] > Z_UNDERFLOW:
        _checked_z(next(xi for xi in grid if xi > Z_UNDERFLOW), "k0")
    return _rows(grid)


def _rows(grid: list[float]) -> Iterator[tuple]:
    # point_at's arithmetic on a grid already checked: one _interval per
    # row, and no timelike class, since z == xi > 0.  _kernels.k0 is looked
    # up per row, so a wrapper put on it later still sees every call.
    near = Classification.SPACELIKE_NONNEGLIGIBLE
    far = Classification.SPACELIKE_NEGLIGIBLE
    eq2 = ThresholdCriterion.AMPLITUDE_EQ2.boundary
    eq13 = ThresholdCriterion.PROBABILITY_EQ13.boundary
    for xi in grid:
        s, z = _interval(0.0, xi)
        g = _kernels.k0(z) / TWO_PI
        yield (
            xi,
            z,
            -s,
            g,
            abs(complex(g, 0.0)) ** 2,  # point_at's prob, bit for bit
            near if s <= eq2 else far,
            near if s <= eq13 else far,
        )


def scan(z_min: float, z_max: float, steps: int) -> list[PropagatorPoint]:
    """``scan_rows`` as records: each equals ``point_at(0.0, xi)``."""
    return [
        PropagatorPoint(0.0, xi, z, itv, complex(g, 0.0), prob, c2, c13)
        for xi, z, itv, g, prob, c2, c13 in scan_rows(z_min, z_max, steps)
    ]


def falloff_fit(z_lo: float, z_hi: float, n: int = 50) -> float:
    """Least-squares slope of ln(prob(z) * z) against z; ~-2 for large z.

    prob(z) decays like e^(-2z)/z, so multiplying the z back out leaves
    a nearly pure exponential whose log is linear in z.
    """
    if not (0.0 < z_lo < z_hi < math.inf):
        raise DomainError(f"need 0 < z_lo < z_hi, got [{z_lo!r}, {z_hi!r}]")
    if n < 3:
        raise DomainError(f"need n >= 3, got {n!r}")
    zs = [10.0**e for e in _linspace(math.log10(z_lo), math.log10(z_hi), n)]
    # in logs: the square of K0/2pi itself underflows past z ~ 354
    ys = [2.0 * math.log(k0(z) / TWO_PI) + math.log(z) for z in zs]
    return statistics.linear_regression(zs, ys).slope


def hbound_check(p_samples: int) -> bool:
    """1/(p^2 c^2 + m^2 c^4) <= 1/(m^2 c^4) over sampled momenta.

    Natural units (m = c = 1); samples are log-spaced p > 0 plus the p = 0
    equality point.  (-p)*(-p) == p*p exactly, so p < 0 would add nothing.
    """
    if p_samples < 1:
        raise DomainError(f"need p_samples >= 1, got {p_samples!r}")
    span = max(p_samples - 1, 1)
    ps = [0.0, *[10.0 ** (16.0 * i / span - 8.0) for i in range(p_samples)]]
    return all([1.0 / (p * p + 1.0) <= 1.0 for p in ps])


# ---------------------------------------------------------------------------
# unit conversion (CLI boundary only)


def compton_wavelength(mass_kg: float) -> float:
    """Reduced Compton wavelength hbar/(m c) in meters, mass in kg."""
    if not (mass_kg > 0.0):
        raise NonpositiveMass(f"mass must be positive, got {mass_kg!r}")
    return HBAR_SI / (mass_kg * C_SI)


def lambda_bar_from_mev(mass_mev: float) -> float:
    """Reduced Compton wavelength in meters for a mass in MeV/c^2."""
    if not (mass_mev > 0.0):
        raise NonpositiveMass(f"mass must be positive, got {mass_mev!r}")
    return HBARC_MEV_FM / mass_mev * 1e-15
