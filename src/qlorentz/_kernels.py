"""The piecewise double-precision K0 kernel.

k0 branches:

* z <= 2        ascending power series with the log term;
* 2 < z < 14    trapezoidal sum of the decaying integral
                int_0^inf exp(-z cosh u) du, step scaled to the
                1/sqrt(z) saddle width (exponentially convergent);
* z >= 14       the large-z expansion sqrt(pi/2z) e^-z sum a_k,
                truncated at its smallest term.

Each branch holds relative error well under 1e-12 on its own interval,
so the splices at 2 and 14 are continuous far below the 1e-10 gate.
"""

import math

EULER_GAMMA = 0.5772156649015328606
Z_SERIES_MAX = 2.0
Z_ASYM_MIN = 14.0
BRIDGE_STEP = 0.35


def k0_series(z):
    """Ascending series; cancellation stays harmless for z <= 2."""
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
    half = 0.5 * z  # rounds for odd multiples of the least subnormal
    log_half = math.log(half) if 2.0 * half == z else math.log(z) - math.log(2.0)
    return -(log_half + EULER_GAMMA) * bessel_i0 + logfree


def k0_bridge(z):
    """Trapezoid on exp(-z cosh u); the integrand is even and entire."""
    h = BRIDGE_STEP / math.sqrt(1.0 + z)
    cosh, exp = math.cosh, math.exp
    total = 0.5
    k = 0.0  # counts exactly, so k * h is the int-times-float product
    while True:
        k += 1.0
        # exponent deficit relative to the peak value exp(-z)
        deficit = z * (cosh(k * h) - 1.0)
        if deficit > 45.0:
            break
        total += exp(-deficit)
    return h * total * exp(-z)


# The asymptotic loop runs the IEEE operations of the signed recurrence
# term_k = -term_(k-1) (2k-1)^2 / (8 k z), k <= 60, on magnitudes:
# * signs: rounding commutes with negation, so mag * a * a / (k * z8) is
#   |-term * a * a / (8.0 * k * z)|, and (8.0 * k) * z and k * (8.0 * z)
#   are both one rounding of the exact 8kz;
# * sums: acc + (-mag) is exactly acc - mag, and acc stays in (0, 1] (an
#   alternating series of shrinking terms from 1), so abs(acc) is acc;
# * tables: small ints convert to float exactly, and the last pair ends
#   at k = 60, where the signed loop stopped.
# Each entry is (2k-1, k, 2k+1, k+1) for odd k: one subtracted term and
# the added term after it.
_ASYM_PAIRS = tuple((2.0 * k - 1.0, float(k), 2.0 * k + 1.0, k + 1.0) for k in range(1, 60, 2))


def k0_asymptotic(z):
    """Large-z expansion, stopped at its smallest term."""
    z8 = 8.0 * z
    acc = 1.0
    mag = 1.0
    for a, j, b, k in _ASYM_PAIRS:
        nxt = mag * a * a / (j * z8)
        if nxt >= mag:
            break
        mag = nxt
        acc -= mag
        if mag < 5e-17 * acc:
            break
        nxt = mag * b * b / (k * z8)
        if nxt >= mag:
            break
        mag = nxt
        acc += mag
        if mag < 5e-17 * acc:
            break
    return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * acc


def k0(z):
    """Modified Bessel K0 for 0 < z <= ~700; domain checks live upstream."""
    if z < Z_ASYM_MIN:
        return k0_series(z) if z <= Z_SERIES_MAX else k0_bridge(z)
    return k0_asymptotic(z)  # one comparison on the widest interval
