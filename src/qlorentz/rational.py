"""Exact commutative coefficient arithmetic.

Three layers, all over exact rationals (no floats anywhere):

* ``GaussRat``    -- complex numbers a + b*i with Fraction parts.
* ``Poly``        -- Laurent polynomials in the central scalars
                     (hbar, c, m, p); exponents may be negative because
                     those scalars are invertible, and p^-1 exists as a
                     generator in its own right.
* ``Coeff``       -- Poly divided by a power of the mass shell
                     ``shell = p^2 + m^2 c^2`` (so that 1/(p^2 c^2 + m^2 c^4)
                     is c^-2 * shell^-1).  Kept maximally reduced: the
                     numerator is never divisible by the shell, which makes
                     equality of values equality of representations.
"""

from __future__ import annotations

from fractions import Fraction


class GaussRat:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, q):
        return GaussRat(self.re * q, self.im * q)

    def __repr__(self):
        return f"GaussRat({self.re}, {self.im})"


GR_ZERO = GaussRat()
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)

# i^k for k mod 4
_I_CYCLE = (GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))


def i_power(k):
    return _I_CYCLE[k % 4]


# monomial index order: (hbar, c, m, p)
MON_ONE = (0, 0, 0, 0)


class Poly:
    """Laurent polynomial in (hbar, c, m, p); immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict[(eh, ec, em, ep)] -> GaussRat, zeros stripped
        self.terms = terms or {}

    @staticmethod
    def zero():
        return Poly()

    @staticmethod
    def const(g):
        if not g:
            return Poly()
        return Poly({MON_ONE: g})

    @staticmethod
    def monomial(g, eh=0, ec=0, em=0, ep=0):
        if not g:
            return Poly()
        return Poly({(eh, ec, em, ep): g})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for mono, g in other.terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = g
            else:
                acc = acc + g
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return Poly(out)

    def __neg__(self):
        return Poly({mono: -g for mono, g in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, g1 in self.terms.items():
            for m2, g2 in other.terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                g = g1 * g2
                acc = out.get(mono)
                if acc is None:
                    if g:
                        out[mono] = g
                else:
                    acc = acc + g
                    if acc:
                        out[mono] = acc
                    else:
                        del out[mono]
        return Poly(out)

    def scale(self, g):
        if not g:
            return Poly()
        return Poly({mono: coeff * g for mono, coeff in self.terms.items()})

    def shift(self, eh=0, ec=0, em=0, ep=0):
        """Multiply by the monomial hbar^eh c^ec m^em p^ep."""
        return Poly(
            {
                (m[0] + eh, m[1] + ec, m[2] + em, m[3] + ep): g
                for m, g in self.terms.items()
            }
        )

    def pow(self, n):
        if n < 0:
            raise ValueError("Poly.pow expects n >= 0")
        out = P_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def diff_p(self):
        """Formal d/dp; exact on Laurent monomials."""
        out = {}
        for (eh, ec, em, ep), g in self.terms.items():
            if ep == 0:
                continue
            out[(eh, ec, em, ep - 1)] = g.scale(Fraction(ep))
        return Poly(out)

    def div_shell(self):
        """Exact quotient by shell = p^2 + m^2 c^2, or None.

        Shell is monic in p, so division is plain synthetic division once
        negative p-exponents are shifted away (p is a unit, shell is not
        divisible by p, so the shift cannot hide or create divisibility).
        """
        if not self.terms:
            return Poly()
        shift = min(m[3] for m in self.terms)
        if shift > 0:
            shift = 0
        # rem: dict[(eh, ec, em, ep)] with ep >= 0
        rem = {(m[0], m[1], m[2], m[3] - shift): g for m, g in self.terms.items()}
        quot = {}
        while rem:
            deg = max(m[3] for m in rem)
            if deg < 2:
                return None
            for mono in [m for m in rem if m[3] == deg]:
                g = rem.pop(mono)
                qm = (mono[0], mono[1], mono[2], mono[3] - 2)
                quot[qm] = quot.get(qm, GR_ZERO) + g
                # subtract g * p^(deg-2) * (m^2 c^2): the p^2 part cancelled
                low = (mono[0], mono[1] + 2, mono[2] + 2, mono[3] - 2)
                acc = rem.get(low, GR_ZERO) - g
                if acc:
                    rem[low] = acc
                elif low in rem:
                    del rem[low]
        return Poly({(m[0], m[1], m[2], m[3] + shift): g for m, g in quot.items()})

    def __repr__(self):
        return f"Poly({self.terms!r})"


P_ONE = Poly({MON_ONE: GR_ONE})
P_P = Poly({(0, 0, 0, 1): GR_ONE})
# mass shell with the c^2 factored out: p^2 + m^2 c^2
SHELL = Poly({(0, 0, 0, 2): GR_ONE, (0, 2, 2, 0): GR_ONE})
# H^2 = p^2 c^2 + m^2 c^4 = c^2 * shell
C2_SHELL = SHELL.shift(ec=2)


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

    @staticmethod
    def const(g):
        return Coeff(Poly.const(g))

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.spow == other.spow and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.spow))

    def __add__(self, other):
        k = max(self.spow, other.spow)
        a = self.num if self.spow == k else self.num * SHELL.pow(k - self.spow)
        b = other.num if other.spow == k else other.num * SHELL.pow(k - other.spow)
        return Coeff(a + b, k)

    def __neg__(self):
        return Coeff(-self.num, self.spow)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Coeff(self.num * other.num, self.spow + other.spow)

    def times_poly(self, poly):
        return Coeff(self.num * poly, self.spow)

    def scale(self, g):
        return Coeff(self.num.scale(g), self.spow)

    def diff_p(self):
        # d/dp [N shell^-k] = (N' shell - k N (2p)) shell^-(k+1)
        k = self.spow
        num = self.num.diff_p() * SHELL
        if k:
            num = num - self.num.shift(ep=1).scale(GaussRat(2 * k))
        return Coeff(num, k + 1)

    def times_p_over_shell(self):
        return Coeff(self.num.shift(ep=1), self.spow + 1)

    def __repr__(self):
        return f"Coeff({self.num!r}, spow={self.spow})"
