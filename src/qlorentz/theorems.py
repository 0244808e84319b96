"""Identity suite for the quantum Lorentz transformation, plus the
classical transformation it mirrors.

Every record states an operator identity as two expression texts.  A
record verifies when ``normal_form(lhs) - normal_form(rhs)`` is exactly
empty; there is no tolerance anywhere in this module.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import normal_form
from .errors import (
    DomainError,
    InvalidFrame,
    NonpositiveMass,
    SpeedDomain,
    UnknownTheorem,
)
from .expr import parse

# Eq.-7-style transformed observables: t kept central, all products ordered.
XPRIME = "1/2*m^-1*c^-2*(H*x + x*H) - m^-1*t*p"
TPRIME = "m^-1*c^-2*(t*H - 1/2*(p*x + x*p))"

# Fully symmetrized originals before the centrality of t is used.
XPRIME_SYM = "1/2*m^-1*c^-2*(H*x + x*H - c^2*(p*t + t*p))"
TPRIME_SYM = "1/2*m^-1*c^-2*(H*t + t*H - (p*x + x*p))"

_TNON = "1/2*m*(p^-1*x + x*p^-1)"
_HNON_INV = "2*m*p^-2"
_TNON_NEG = "-1/2*m*(p^-1*x + x*p^-1)"
_HNON_INV_NEG = "-2*m*p^-2"


# lhs and rhs are trees; residual is the NormalForm lhs - rhs
TheoremRecord = namedtuple("TheoremRecord", "id lhs rhs citation status residual")


# id -> (lhs text, rhs text, citation)
_REGISTRY = {
    "T_eq6": (
        "H*t - t*H",
        "0",
        "time is central: H*t = t*H",
    ),
    "T_eq8": (
        "H^2*x - x*H^2",
        "2*H*(H*x - x*H)",
        "[H^2, x] = 2*H*[H, x]",
    ),
    "T_eq9": (
        "H^2*x - x*H^2",
        "-2*i*hbar*p*c^2",
        "[H^2, x] = -2*i*hbar*p*c^2 on the mass shell",
    ),
    "T_eq10": (
        "H*x - x*H",
        "-i*hbar*H^-1*p*c^2",
        "[H, x] = -i*hbar*H^-1*p*c^2",
    ),
    "T_eq7": (
        XPRIME_SYM,
        XPRIME,
        "the symmetrized boost of x rewrites, via central t, to "
        "1/2*m^-1*c^-2*(H*x + x*H) - m^-1*t*p",
    ),
    "T_velocity": (
        "i*hbar^-1*(H*x - x*H)",
        "H^-1*p*c^2",
        "velocity observable: (i/hbar)*[H, x] = H^-1*p*c^2",
    ),
    "T_a2": (
        f"(H*x + x*H)*t*p + t*p*(H*x + x*H) - t*H*(p*x + x*p) - (p*x + x*p)*t*H",
        "0",
        "cross terms of c^2*t'^2 - x'^2 cancel ([p, H] = 0, t central)",
    ),
    "T_a5": (
        "(2*x*p - i*hbar)*(2*x*p - i*hbar)",
        "4*x^2*p^2 - 8*i*hbar*x*p - hbar^2",
        "(2*x*p - i*hbar)^2 expands with one reordering of p past x",
    ),
    "T_a6": (
        "(2*x*H - i*hbar*H^-1*p*c^2)*(2*x*H - i*hbar*H^-1*p*c^2)",
        "4*x^2*H^2 - 8*i*hbar*x*p*c^2 - 2*hbar^2*c^2 + hbar^2*H^-2*p^2*c^4",
        "(2*x*H - i*hbar*H^-1*p*c^2)^2 expands on the mass shell",
    ),
    "T_a7": (
        "1/4*m^-2*c^-2*((2*x*p - i*hbar)*(2*x*p - i*hbar))"
        " - 1/4*m^-2*c^-4*((2*x*H - i*hbar*H^-1*p*c^2)*(2*x*H - i*hbar*H^-1*p*c^2))",
        "-x^2 + 1/4*hbar^2*c^2*H^-2",
        "the p-square and H-square blocks collapse to -x^2 + hbar^2*c^2*H^-2/4",
    ),
    "T_eq11": (
        f"c^2*({TPRIME})*({TPRIME}) - ({XPRIME})*({XPRIME})",
        "c^2*t^2 - x^2 + 1/4*hbar^2*c^2*H^-2",
        "the quantum interval picks up the invariant hbar^2*c^2*H^-2/4",
    ),
    "T_eq19": (
        f"({XPRIME})*({TPRIME}) - ({TPRIME})*({XPRIME})",
        "-1/2*i*hbar*(H^-1*x + x*H^-1)",
        "[x', t'] = -i*hbar*(H^-1*x + x*H^-1)/2",
    ),
    "T_eq20": (
        f"x*({_TNON}) - ({_TNON})*x",
        f"-1/4*i*hbar*(({_HNON_INV})*x + x*({_HNON_INV}))",
        "nonrelativistic check: [x, T] = -i*hbar*(Hnon^-1*x + x*Hnon^-1)/4 "
        "with T = m*(p^-1*x + x*p^-1)/2 and Hnon^-1 = 2*m*p^-2",
    ),
}

SUITE = tuple(_REGISTRY)

# derivation steps worth showing alongside a record
STEPS = {
    "T_eq10": ("T_eq8", "T_eq9"),
    "T_eq11": ("T_a2", "T_a5", "T_a6", "T_a7"),
}


def lorentz_operators():
    """(x', t') as expression trees, products ordered and t central."""
    return parse(XPRIME), parse(TPRIME)


def verify_identity(lhs, rhs):
    """(status, residual) for trees or normal forms."""
    residual = normal_form(lhs) - normal_form(rhs)
    return ("verified" if residual.is_zero() else "failed"), residual


def _record(tid, lhs_text, rhs_text, citation):
    lhs = parse(lhs_text)
    rhs = parse(rhs_text)
    status, residual = verify_identity(lhs, rhs)
    return TheoremRecord(tid, lhs, rhs, citation, status, residual)


def run_theorem(tid):
    try:
        entry = _REGISTRY[tid]
    except KeyError:
        raise UnknownTheorem(f"no theorem named {tid!r}") from None
    return _record(tid, *entry)


def run_all():
    """Verify the suite in its fixed order."""
    return [run_theorem(tid) for tid in SUITE]


def negative_branch_record():
    """The sign-flipped nonrelativistic branch; not part of the suite."""
    return _record(
        "T_eq20_neg",
        f"x*({_TNON_NEG}) - ({_TNON_NEG})*x",
        f"-1/4*i*hbar*(({_HNON_INV_NEG})*x + x*({_HNON_INV_NEG}))",
        "negative-energy branch of the nonrelativistic check",
    )


# ---------------------------------------------------------------------------
# classical counterpart

_REL_TOL = 1e-12


def _check_speed(v, c):
    if not c > 0:
        raise DomainError(f"c must be positive, got {c}")
    if not abs(v) < c:
        raise SpeedDomain(f"|v| = {abs(v)} exceeds c = {c}")


class FrameState(namedtuple("FrameState", "v E p m c")):
    """A boost frame: velocity, energy, momentum, mass (and c).

    Construction validates the kinematic constraints
    E^2 = p^2 c^2 + m^2 c^4 and v = p c^2 / E.
    """

    __slots__ = ()

    def __new__(cls, v, E, p, m, c=1.0):
        NonpositiveMass.check(m)
        _check_speed(v, c)
        # E^2 = p^2 c^2 + m^2 c^4 and v = p c^2/E, divided through by powers of
        # m c: gamma^2 = 1 + (gamma beta)^2 and beta gamma = gamma beta, with
        # gamma = E/(m c^2) and gamma beta = p/(m c).  These divide only by
        # m, c > 0, and a gamma that overflows is refused as off the shell
        g, gb = E / m / c / c, p / m / c
        if not abs(g * g - 1.0 - gb * gb) <= _REL_TOL * g * g < math.inf:
            raise InvalidFrame(f"E = {E} is off the mass shell: E/(m c^2) = {g}, p/(m c) = {gb}")
        if not abs(v / c * g - gb) <= _REL_TOL * abs(g):
            raise InvalidFrame(f"v = {v} is not p*c^2/E = {gb / g * c}")
        return super().__new__(cls, v, E, p, m, c)

    @classmethod
    def _make(cls, fields):
        # namedtuple's _make and _replace build through tuple.__new__; check here too
        return cls(*fields)

    @classmethod
    def from_velocity(cls, m, v, c=1.0):
        _check_speed(v, c)
        gamma = 1.0 / math.sqrt(1.0 - (v / c) ** 2)
        return cls(v=v, E=gamma * m * (c * c), p=gamma * m * v, m=m, c=c)


def _finite(tp, xp):
    if not (math.isfinite(tp) and math.isfinite(xp)):
        raise DomainError(f"the boosted (t', x') = ({tp}, {xp}) is past the double range")
    return tp, xp


def lorentz_classical(t, x, v, c=1.0):
    """Standard boost: (t', x') = gamma*(t - v x / c^2), gamma*(x - v t)."""
    _check_speed(v, c)
    beta = v / c
    gamma = 1.0 / math.sqrt(1.0 - beta**2)
    # v x / c^2 as beta x / c: c^2 alone overflows or underflows first
    return _finite(gamma * (t - beta * x / c), gamma * (x - v * t))


def lorentz_momentum_form(t, x, frame):
    """The same boost written through (E, p):

    t' = (E t - p x) / (m c^2),  x' = (E x - c^2 p t) / (m c^2),

    evaluated through E/(m c^2) and p/(m c), as the frame checks them.
    """
    m, c = frame.m, frame.c
    g, gb = frame.E / m / c / c, frame.p / m / c
    return _finite(g * t - gb * x / c, g * x - frame.p / m * t)
