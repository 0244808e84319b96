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
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

from . import _kernels
from .errors import (
    DomainError,
    NonConvergence,
    NonpositiveMass,
    NotSpacelike,
    UnderflowToZero,
)

TWO_PI = 2.0 * math.pi
_LN10 = math.log(10.0)

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
        raise DomainError(f"{name} requires 0 < z <= {Z_UNDERFLOW:g}, got {z!r}")
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
# and does not decay, so the integral only exists as an Abel-summed
# alternating series of half-period arcs.  Each arc gets one fixed pair of
# nested rules, and the arc magnitudes go to the Cohen-Villegas-Zagier
# accelerator, which converges geometrically for such series.  Only this
# route imports mpmath, and it uses it for little more than the rules'
# nodes: the arcs and the accelerator run on fixed-point Python ints with
# F = 16 + 3.33 dps fraction bits (``bits``), ~dps decimal digits.
#
# Working precision follows the cancellation.  The answer shrinks like e^-z
# while the arcs stay O(1/z), so their alternating sum cancels
# log10(e) z = z / ln 10 digits.  dps keeps 25 beyond those: a double's 17,
# and 8 to spare for the ~6 that rounding up to 25 quotients in each of up
# to 456 arcs can cost.
#
# In w = sinh u the integral is int_0^inf cos(z w) / sqrt(1 + w^2) dw, and
# arc n is [(n - 1/2) pi/z, (n + 1/2) pi/z].  With h = pi/2z and the nodes
# at w = h v_k, v_k = 2n + x_k, cos(z w) = (-1)^n cos(pi x_k/2), so
#
#     |arc n| = sum_k c_k / sqrt(h^-2 + v_k^2),   c_k = w_k cos(pi x_k/2),
#
# one isqrt per node and one division per node and rule on ints.  The
# scaling by h keeps each node's F bits for any z.  In the form
# h c_k / sqrt(1 + w^2) the quotient is ~ z c_k / v_k: in fixed point it
# loses a bit for each halving of z, and below z ~ 2^-F every arc n >= 1 is
# 0.  Arc 0 differs by branch:
#
# * z >= 2: half of the symmetric arc [-pi/2z, pi/2z] (v_k = x_k), not the
#   half-length arc [0, pi/2z].  Then every arc applies the same rule to
#   one smooth even function, and the rule's errors cancel in the
#   half-weighted alternating sum (Poisson summation) down to an error
#   relative to K0(z).  A half-length arc 0 has another shape, and its rule
#   error stays behind as a boundary term that does not shrink with e^-z;
#   at 24 Gauss nodes it swamps the result past z ~ 120.
# * z < 2: arc 0 in u, [0, asinh(pi/2z)], is ~ln(1/z) long and flat but for
#   the last O(1) before its zero; one rule on all of it is off by 1.7e-5
#   at z = 1e-50.  It is integrated in mpf in pieces of 4, 8, 16, ...
#   going back from the zero, the last ending at 0, and then rounded to F
#   bits.  These are the route's only per-node cos and sinh, and both rules
#   sum the same cos values.  Its w form is never evaluated: the centre node
#   x = 0 sits at v = 0, where h^-2 + v^2 rounds to 0 at tiny z.
#
# The pair is a Gauss-Kronrod rule (Laurie, Math. Comp. 66 (1997)
# 1133-1145).  The value comes from its 2n + 1 = 25 nodes, exact for
# polynomials of degree 3n + 1 = 37; the check comes from the n = 12
# Gauss-Legendre nodes among them, exact to degree 2n - 1 = 23.  So the
# check costs 12 divisions per arc and no isqrt.  The n + 1 other nodes
# are the zeros of the Stieltjes polynomial E_(n+1), which is orthogonal
# to every polynomial of degree <= n under the weight P_n; they interlace
# with the Gauss nodes, and their weights have closed forms (``_gk_table``).
# E_(n+1) = x F(x^2), so they are 0 and +-sqrt(y) for the n/2 zeros y of F.
# Each y is bracketed by two consecutive squared Gauss nodes, the last by
# x_max^2 and 1, and mpmath's findroot finds it there and verifies it.
#
# The accelerator is exact: its d = ((3 + sqrt 8)^n + (3 - sqrt 8)^n)/2 is
# the integer sequence 1, 3, 17, 99, ... and its Chebyshev coefficients b
# are integers, so the sum is one ratio of ints, rounded once to a double.
#
# Node tables are built once per process, lazily, per Gauss degree and per
# power-of-two rung of precision at or above F; a call takes its F bits from
# the rung by a shift, so its value depends on z alone.
#
# Two self-checks guard the result on both branches.  The truncation check
# sums again with the last _CHECK_DROP arcs withheld.  The rule check sums
# every arc by the embedded Gauss rule, so a pair too coarse for the arcs
# shows as a drift between the two sums.

_GAUSS_DEGREE = 3  # mpmath's Gauss-Legendre degree d: n = 3 * 2^(d - 1), even

_CHECK_DROP = 8  # arcs withheld for the truncation check
_CHECK_TOL = 1e-8


def _stieltjes(n):
    # E_(n+1) = x F(x^2), monic, for even n: F's coefficients, highest power
    # first, and C = ||P_n||^2 / (lead of P_n), all exact.  E is orthogonal
    # to x^k, k = 1, 3, ... < n, under P_n; the moments int x^m P_n dx
    # vanish for m < n, so each k brings in one new coefficient.
    from fractions import Fraction  # only table building needs it

    f = math.factorial

    def moment(m):  # int_-1^1 x^m P_n(x) dx for m >= n, m - n even
        return Fraction(2 ** (n + 1) * f(m) * f((m + n) // 2), f((m - n) // 2) * f(m + n + 1))

    coeffs = [Fraction(1)]
    for i in range(1, n // 2 + 1):
        coeffs.append(-sum(c * moment(n + 2 * (i - j)) for j, c in enumerate(coeffs)) / moment(n))
    return coeffs, Fraction(2 ** (n + 1) * f(n) ** 2, (2 * n + 1) * f(2 * n))


@functools.cache
def _gk_table(degree, rung):
    # ((xs, Kronrod ws, Gauss ws) in mpf, xs 2^rung, Kronrod cs 2^rung,
    # Gauss cs 2^rung, pi 2^rung) on [-1, 1], the Gauss nodes first.
    # A weight is the integral of a node's Lagrange basis polynomial for
    # the node polynomial P_n E_(n+1).  P_n is orthogonal to every degree
    # below n, so only lead terms survive; with E monic,
    #   C / (P_n(x) E'(x))             at a zero x of E, and
    #   w_gauss + C / (P_n'(x) E(x))   at a zero x of P_n.
    # E's zeros are 0 and +-sqrt(y), each zero y of F found by findroot in
    # mpf between two squared Gauss nodes (the last between x_max^2 and 1).
    from mpmath import mp
    from mpmath.calculus.quadrature import GaussLegendre
    gauss = GaussLegendre(mp).get_nodes(-1, 1, degree, rung)
    n = len(gauss)
    exact, cc = _stieltjes(n)
    with mp.workprec(rung + 20):
        coeffs = [mp.mpf(a.numerator) / a.denominator for a in exact]
        cc = mp.mpf(cc.numerator) / cc.denominator

        def legendre(x):  # (P_n(x), P_n'(x))
            p, q = mp.one, mp.zero
            for j in range(1, n + 1):
                p, q = ((2 * j - 1) * x * p - (j - 1) * q) / j, p
            return p, n * (x * p - q) / (x * x - 1)

        def stieltjes(y):  # F(y); one argument, as findroot calls f(*bracket)
            return mp.polyval(coeffs, y)

        xs = [x for x, _ in gauss]
        gs = [w for _, w in gauss]
        ks = [w + cc / (legendre(x)[1] * x * stieltjes(x * x)) for x, w in gauss]
        squares = sorted(x * x for x in xs if x > 0) + [mp.one]
        roots = [mp.findroot(stieltjes, b, solver="anderson") for b in zip(squares, squares[1:])]
        for y in [mp.zero] + roots:
            f, d = mp.polyval(coeffs, y, derivative=True)
            r = mp.sqrt(y)
            w = cc / (legendre(r)[0] * (f + 2 * y * d))  # E'(r) = F + 2 r^2 F'
            for x in (r, -r) if y else (r,):
                xs.append(x)
                ks.append(w)
        cos = [mp.cos(mp.pi * x / 2) for x in xs]
        return (
            (xs, ks, gs),
            [int(mp.ldexp(x, rung)) for x in xs],
            [int(mp.ldexp(w * c, rung)) for w, c in zip(ks, cos)],
            [int(mp.ldexp(w * c, rung)) for w, c in zip(gs, cos)],
            int(mp.ldexp(mp.pi, rung)),
        )


def _u_arc0(mp, zz, nodes):
    # arc 0 of cos(z sinh u), [0, asinh(pi/2z)], in pieces (z < 2):
    # (value, check), both rules on the same cos values
    xs, ks, gs = nodes
    value = check = mp.zero
    hi, width = mp.asinh(mp.pi / (2 * zz)), 4
    while hi > 0:
        lo = hi - width if hi > width else mp.zero
        mid, half = (hi + lo) / 2, (hi - lo) / 2
        fs = [mp.cos(zz * mp.sinh(mid + half * x)) for x in xs]
        value += half * mp.fdot(ks, fs)
        check += half * mp.fdot(gs, fs)
        hi, width = lo, 2 * width
    return value, check


def _arcs(z, bits, narcs):
    # (value, check): |arc n| * 2^bits as ints, n < narcs, by the Kronrod
    # rule and by the Gauss rule inside it, arc 0 by branch
    rung = 1 << (bits - 1).bit_length()
    nodes, xs, ks, gs, pi = _gk_table(_GAUSS_DEGREE, rung)
    shift = rung - bits
    xs = [x >> shift for x in xs]
    ks = [c >> shift << bits for c in ks]
    gs = [c >> shift << bits for c in gs]
    num, den = z.as_integer_ratio()
    hinv = (num << (bits + rung + 1)) // (den * pi)  # (2z/pi) 2^bits
    q = hinv * hinv
    isqrt = math.isqrt
    value, check = [], []
    # arc n is centred on v = 2n; arc 0 by the w form only from z = 2 on
    start = 0 if z >= 2.0 else 2 << bits
    for mid in range(start, narcs << (bits + 1), 2 << bits):
        roots = [isqrt(q + (mid + x) ** 2) for x in xs]
        value.append(sum([c // r for c, r in zip(ks, roots)]))
        check.append(sum([c // r for c, r in zip(gs, roots)]))
    if z >= 2.0:
        value[0] //= 2
        check[0] //= 2
    else:
        from mpmath import mp
        with mp.workprec(bits):
            arc0 = _u_arc0(mp, mp.mpf(z), nodes)
            value.insert(0, int(mp.ldexp(arc0[0], bits)))
            check.insert(0, int(mp.ldexp(arc0[1], bits)))
    return value, check


def _cvz(terms):
    # Cohen-Villegas-Zagier acceleration of sum (-1)^k terms[k], terms > 0,
    # in exact integers: (s, d) with the sum s/d
    n = len(terms)
    d_prev, d = 3, 1  # d_-1, d_0 of d_n = 6 d_(n-1) - d_(n-2)
    for _ in range(n):
        d_prev, d = d, 6 * d - d_prev
    b = -1
    c = -d
    s = 0
    for k, t in enumerate(terms):
        c = b - c
        s += c * t
        b = 2 * (k + n) * (k - n) * b // ((2 * k + 1) * (k + 1))
    return s, d


def k0_oscillatory(z: float) -> float:
    """int_0^inf cos(z sinh u) du, the independent route to K0(z).

    Shares nothing with the kernel: different representation, different
    arithmetic.  Raises NonConvergence when a self-check disagrees by
    more than ``_CHECK_TOL`` relative: ``drift`` (last arcs withheld) or
    ``rule_drift`` (every arc by the Gauss rule inside the Kronrod rule).
    """
    z = _checked_z(z, "k0_oscillatory")
    dps = 25 + math.ceil(z / _LN10)
    narcs = 36 + int(0.6 * z)
    bits = 16 + int(3.33 * dps)
    value, check = _arcs(z, bits, narcs)
    s, d = _cvz(value)
    checks = {"rule_drift": _cvz(check), "drift": _cvz(value[:-_CHECK_DROP])}
    # |s/d - sc/dc| / |s/d|, one correctly rounded ratio of ints each
    drifts = {k: abs(s * dc - sc * d) / abs(s * dc) for k, (sc, dc) in checks.items()}
    if max(drifts.values()) > _CHECK_TOL:
        n = 3 << (_GAUSS_DEGREE - 1)
        raise NonConvergence(
            f"oscillatory sum for z={z:g} failed its self-check",
            z=z,
            arcs=narcs,
            rule=f"G{n}K{2 * n + 1}",
            dps=dps,
            **drifts,
        )
    return s / (d << bits)


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


def _classify(tau: float, xi: float, z: float, criterion: ThresholdCriterion) -> Classification:
    if z == 0.0:
        return Classification.TIMELIKE_OR_LIGHTLIKE
    if z == math.inf:  # an infinite xi: _interval keeps z finite for finite inputs
        return Classification.SPACELIKE_NEGLIGIBLE
    # xi^2 - tau^2 <= n/d exactly, on the integer ratios of the two doubles
    a, b = xi.as_integer_ratio()
    c, d = tau.as_integer_ratio()
    n, e = criterion.boundary.as_integer_ratio()
    if ((a * d) ** 2 - (c * b) ** 2) * e <= n * (b * d) ** 2:
        return Classification.SPACELIKE_NONNEGLIGIBLE
    return Classification.SPACELIKE_NEGLIGIBLE


def classify_interval(
    tau: float, xi: float, criterion: ThresholdCriterion
) -> Classification:
    """The class of (tau, xi); DomainError where the interval is undefined."""
    return _classify(tau, xi, _interval(tau, xi)[1], criterion)


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
        class_eq2=_classify(tau, xi, z, ThresholdCriterion.AMPLITUDE_EQ2),
        class_eq13=_classify(tau, xi, z, ThresholdCriterion.PROBABILITY_EQ13),
    )


def _linspace(start: float, stop: float, n: int) -> Iterator[float]:
    """np.linspace(start, stop, n >= 2) bit for bit, by numpy's own formula, lazily."""
    span = stop - start
    step = span / (n - 1)
    if step == 0.0:  # a subnormal span: numpy scales by i/(n - 1) first
        for i in range(n - 1):
            yield (i / (n - 1)) * span + start
    else:
        for i in range(n - 1):
            yield i * step + start
    yield float(stop)


def _first_above(start: float, stop: float, n: int, bound: float) -> float:
    """The first point of ``_linspace(start, stop, n)`` above bound < stop.

    For a span that is not subnormal.  i * step + start never decreases
    with i, so a bisection on i finds the point in about log2(n) steps.
    Stepping from the index (bound - start) / step would not do: where the
    step is far below the spacing of doubles near bound, millions of
    indices round to bound itself.
    """
    step = (stop - start) / (n - 1)
    lo, hi = 0, n - 1  # the first index above bound is in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * step + start > bound:
            hi = mid
        else:
            lo = mid + 1
    return lo * step + start if lo < n - 1 else float(stop)


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
    if steps - 1 > _NORMAL_MAX:  # exact: Python compares an int and a float without converting
        raise DomainError(f"need steps - 1 <= {_NORMAL_MAX!r}, the largest double")
    # the grid increases to its last point z_max and z == xi on tau = 0, so
    # z_max bounds every z; a refusal names the first point past the bound,
    # as point_at does.  A span reaching past Z_UNDERFLOW is not subnormal.
    if z_max > Z_UNDERFLOW:
        _checked_z(_first_above(z_min, z_max, steps, Z_UNDERFLOW), "k0")
    return _rows(_linspace(z_min, z_max, steps))


def _rows(grid: Iterable[float]) -> Iterator[tuple]:
    # point_at's arithmetic on a grid already checked: one _interval per
    # row, and no timelike class, since z == xi > 0.  On tau = 0 the rounded
    # s = fl(xi^2) is on the same side of 1 and of 1/4 as the exact xi^2,
    # so the plain comparisons give _classify's class.  _kernels.k0 is
    # looked up per row, so a wrapper put on it later still sees every call.
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
            g ** 2,  # point_at's prob, bit for bit: abs(complex(g, 0.0)) is g > 0
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
    import statistics  # only this function needs it

    zs = [10.0**e for e in _linspace(math.log10(z_lo), math.log10(z_hi), n)]
    # the window's own ends: 10**log10(z) can miss them by an ulp, and the
    # ulp above z_hi = Z_UNDERFLOW is a z the kernel refuses
    zs[0], zs[-1] = z_lo, z_hi
    # in logs: the square of K0/2pi itself underflows past z ~ 354
    ys = [2.0 * math.log(k0(z) / TWO_PI) + math.log(z) for z in zs]
    try:
        return statistics.linear_regression(zs, ys).slope
    except statistics.StatisticsError as exc:  # the squared spread of a subnormal window underflows
        raise DomainError(f"no slope over [{z_lo!r}, {z_hi!r}] in double precision: {exc}") from None


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


def _checked_lambda_bar(lb: float, source: str = "") -> float:
    """lb, refused unless it is a positive normal double.

    tau and xi are divided by lb, and a subnormal lb has already lost
    digits.  ``source`` names the mass a derived lb came from.
    """
    if not 0.0 < lb < math.inf:
        raise DomainError(f"lambda-bar{source} must be positive and finite, got {lb!r}")
    if lb < _NORMAL_MIN:
        raise DomainError(f"lambda-bar{source} must be a normal double, at least {_NORMAL_MIN!r}, got {lb!r}")
    return lb


def compton_wavelength(mass_kg: float) -> float:
    """Reduced Compton wavelength hbar/(m c) in meters, mass in kg."""
    lb = HBAR_SI / (NonpositiveMass.check(mass_kg) * C_SI)
    return _checked_lambda_bar(lb, f" of the mass {mass_kg!r} kg")


def lambda_bar_from_mev(mass_mev: float) -> float:
    """Reduced Compton wavelength in meters for a mass in MeV/c^2."""
    lb = HBARC_MEV_FM / NonpositiveMass.check(mass_mev) * 1e-15
    return _checked_lambda_bar(lb, f" of the mass {mass_mev!r} MeV/c^2")
