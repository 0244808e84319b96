"""Exact commutative coefficient arithmetic.

Three layers, all over exact rationals (no floats anywhere):

* ``Terms``       -- a map from keys to nonzero values: the additive core
                     (zero, equality, +, -) of ``algebra.NormalForm``, and
                     the base of ``Poly``.  A value is zero when it is
                     falsy, so one merge serves ``int`` and ``Coeff``.
                     No zero value is stored; each operation that can make
                     one drops it there, so construction checks nothing.
* ``Poly``        -- Laurent polynomials in the central scalars
                     (hbar, c, m, p, i) with rational coefficients, kept
                     as nonzero ``int`` numerators over one positive
                     denominator coprime to their content (the layout of
                     FLINT's fmpq_poly), so most coefficient arithmetic is
                     on small ints.  hbar, c, m and p are invertible, so
                     their exponents may be negative (p^-1 is a generator
                     in its own right).  The exponent of i is kept in
                     {0, 1} by folding i^2 = -1 into the coefficient, so a
                     Gaussian coefficient a + b*i is two monomials.
* ``Coeff``       -- Poly divided by a power of the mass shell
                     ``shell = p^2 + m^2 c^2`` (so that 1/(p^2 c^2 + m^2 c^4)
                     is c^-2 * shell^-1).  Kept maximally reduced: the
                     numerator is never divisible by the shell, which makes
                     equality of values equality of representations.
"""

from __future__ import annotations

import functools
import math

# monomial index order: (hbar, c, m, p, i)
MON_ONE = (0, 0, 0, 0, 0)


def _merge(out, terms):
    """Add the map terms into the dict out, dropping each sum that is zero."""
    for key, g in terms.items():
        acc = out.get(key)
        if acc is None:
            out[key] = g
        else:
            acc = acc + g
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


class Terms:
    """Map key -> nonzero value; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return type(self)(_merge(dict(self.terms), other.terms))

    def __neg__(self):
        return type(self)({key: -g for key, g in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)


def _reduced(terms, den):
    """The Poly terms / den, with the common factor of den and the values cancelled."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            terms = {mono: v // g for mono, v in terms.items()}
            den //= g
    return Poly(terms, den)


def _sum(polys):
    """The sum of a nonempty sequence of Polys, over the lcm of their denominators."""
    den = math.lcm(*[f.den for f in polys])
    scaled = [
        f.terms if f.den == den else {mono: g * (den // f.den) for mono, g in f.terms.items()}
        for f in polys
    ]
    out = dict(scaled[0])
    for terms in scaled[1:]:
        _merge(out, terms)
    return _reduced(out, den)


class Poly(Terms):
    """Laurent polynomial in (hbar, c, m, p) over Q(i), as integer
    numerators over one denominator.

    terms: dict[(eh, ec, em, ep, ei)] -> nonzero int, ei in {0, 1}; the
    value is the sum of the terms divided by den.  Canonical: den >= 1,
    gcd(den, *values) == 1, and den == 1 when there are no terms.
    """

    __slots__ = ("den",)

    def __init__(self, terms=None, den=1):
        self.terms = terms or {}
        self.den = den

    @staticmethod
    def monomial(g, eh=0, ec=0, em=0, ep=0, ei=0):
        """g hbar^eh c^ec m^em p^ep i^ei for a rational g and any integer ei."""
        if not g:
            return Poly()
        num, den = g.as_integer_ratio()
        if ei & 2:  # i^k = -i^(k-2)
            num = -num
        return Poly({(eh, ec, em, ep, ei & 1): num}, den)

    def __eq__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    def __add__(self, other):
        return _sum((self, other))

    def __neg__(self):
        return Poly({mono: -g for mono, g in self.terms.items()}, self.den)

    def __mul__(self, other):
        out = {}
        for (h1, c1, m1, p1, i1), g1 in self.terms.items():
            for (h2, c2, m2, p2, i2), g2 in other.terms.items():
                g = g1 * g2
                ei = i1 + i2
                if ei == 2:  # i*i = -1
                    ei = 0
                    g = -g
                mono = (h1 + h2, c1 + c2, m1 + m2, p1 + p2, ei)
                acc = out.get(mono)
                if acc is None:
                    out[mono] = g
                else:
                    acc = acc + g
                    if acc:
                        out[mono] = acc
                    else:
                        del out[mono]
        return _reduced(out, self.den * other.den)

    def scale(self, q):
        """Multiply by the rational q."""
        if not q:
            return Poly()
        num, den = q.as_integer_ratio()
        return _reduced({mono: g * num for mono, g in self.terms.items()}, self.den * den)

    def shift(self, eh=0, ec=0, em=0, ep=0):
        """Multiply by the monomial hbar^eh c^ec m^em p^ep."""
        return Poly(
            {
                (m[0] + eh, m[1] + ec, m[2] + em, m[3] + ep, m[4]): g
                for m, g in self.terms.items()
            },
            self.den,
        )

    def diff_p(self):
        """Formal d/dp; exact on Laurent monomials."""
        return _reduced(
            {
                (eh, ec, em, ep - 1, ei): g * ep
                for (eh, ec, em, ep, ei), g in self.terms.items()
                if ep
            },
            self.den,
        )

    def div_shell(self):
        """Exact quotient by shell = p^2 + m^2 c^2, or None.

        Shell is monic in p, so division is plain synthetic division once
        negative p-exponents are shifted away (p is a unit, shell is not
        divisible by p, so the shift cannot hide or create divisibility).
        The quotient of the numerators is an integer polynomial, and shell
        is primitive, so by Gauss's lemma its content is that of self's
        numerators: the denominator carries over unreduced.
        """
        if not self.terms:
            return Poly()
        shift = min(m[3] for m in self.terms)
        if shift > 0:
            shift = 0
        # rem: dict[(eh, ec, em, ep, ei)] with ep >= 0
        rem = {(m[0], m[1], m[2], m[3] - shift, m[4]): g for m, g in self.terms.items()}
        quot = {}
        while rem:
            deg = max(m[3] for m in rem)
            if deg < 2:
                return None
            for mono in [m for m in rem if m[3] == deg]:
                g = rem.pop(mono)
                # each quotient monomial is met once: its p-degree falls
                quot[(mono[0], mono[1], mono[2], mono[3] - 2, mono[4])] = g
                # subtract g * p^(deg-2) * (m^2 c^2): the p^2 part cancelled
                low = (mono[0], mono[1] + 2, mono[2] + 2, mono[3] - 2, mono[4])
                acc = rem.get(low, 0) - g
                if acc:
                    rem[low] = acc
                elif low in rem:
                    del rem[low]
        return Poly({(m[0], m[1], m[2], m[3] + shift, m[4]): g for m, g in quot.items()}, self.den)

    def __repr__(self):
        return f"Poly({self.terms!r}, den={self.den})"


P_ONE = Poly.monomial(1)
P_P = Poly.monomial(1, ep=1)
# mass shell with the c^2 factored out: p^2 + m^2 c^2
SHELL = P_P * P_P + Poly.monomial(1, ec=2, em=2)
# H^2 = p^2 c^2 + m^2 c^4 = c^2 * shell
C2_SHELL = SHELL.shift(ec=2)


@functools.cache
def _shell_pow(k):
    """shell^k for k >= 0, built once per k."""
    return P_ONE if k == 0 else _shell_pow(k - 1) * SHELL


class Coeff:
    """num / shell^spow, maximally reduced."""

    __slots__ = ("num", "spow")

    def __init__(self, num, spow=0):
        if spow < 0:
            raise ValueError("negative shell power")
        if num.is_zero():
            spow = 0
        else:
            while spow > 0:
                q = num.div_shell()
                if q is None:
                    break
                num = q
                spow -= 1
        self.num = num
        self.spow = spow

    @staticmethod
    def zero():
        return Coeff(Poly())

    @staticmethod
    def one():
        return Coeff(P_ONE)

    def is_zero(self):
        return not self

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.spow == other.spow and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.spow))

    @staticmethod
    def sum(parts):
        """The sum of a nonempty sequence of Coeffs, reduced once."""
        if len(parts) == 1:
            return parts[0]
        k = max([c.spow for c in parts])
        nums = [c.num if c.spow == k else c.num * _shell_pow(k - c.spow) for c in parts]
        return Coeff(_sum(nums), k)

    def __add__(self, other):
        return Coeff.sum((self, other))

    def __neg__(self):
        return Coeff(-self.num, self.spow)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Coeff(self.num * other.num, self.spow + other.spow)

    def times_poly(self, poly):
        return Coeff(self.num * poly, self.spow)

    def scale(self, q):
        return Coeff(self.num.scale(q), self.spow)

    def diff_p(self, eps=0):
        # d/dp + eps p/shell, the derivative that moves f H^eps across x:
        # (N shell^-k)' + eps p N shell^-(k+1)
        #   = (N' shell - (2k - eps) p N) shell^-(k+1)
        k = self.spow
        if not k and not eps:
            return Coeff(self.num.diff_p())
        num = self.num.diff_p() * SHELL - self.num.shift(ep=1).scale(2 * k - eps)
        return Coeff(num, k + 1)

    def times_p_over_shell(self):
        return Coeff(self.num.shift(ep=1), self.spow + 1)

    def __repr__(self):
        return f"Coeff({self.num!r}, spow={self.spow})"
