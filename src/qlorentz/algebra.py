"""Reduction of operator expressions to a canonical normal form.

The algebra is generated by x, t, p, H over the central scalars hbar, c,
m, i.  Each element reduces to a finite sum

    sum over (a, b, eps) of  x^a t^b f(p) H^eps

with a, b >= 0, eps in {0, 1}, and f an exact rational function of p
(a ``Coeff``).  The rewrite rules:

* t commutes with everything;
* p x = x p - i hbar, and generally f(p) x = x f(p) - i hbar f'(p);
* H x = x H - i hbar c^2 (p / (p^2 c^2 + m^2 c^4)) H;
* H H = p^2 c^2 + m^2 c^4  (mass shell, applied eagerly);
* H^-1 = (p^2 c^2 + m^2 c^4)^-1 H, so every power of H folds into the
  {0, 1} flag with shell factors absorbed by the coefficient.

The representation is canonical: two expressions equal in the algebra
produce identical term maps, so ``is_zero`` is just emptiness.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from math import comb

from .errors import DomainError, ExprError
from .expr import Atom, Power, Product, Rational, Sum, negate, print_terms
from .rational import C2_SHELL, Coeff, Poly, Terms, _merge


class NormalForm(Terms):
    """Map (x-power, t-power, H-flag) -> nonzero Coeff."""

    __slots__ = ()

    @staticmethod
    def scalar(coeff):
        return NormalForm({(0, 0, 0): coeff} if coeff else {})

    def __mul__(self, other):
        # move (f, H^e1) across x^a2, with D f = f' + e1 * (p / shell) f:
        # (f, H^e1) x^a2 = sum_k C(a2, k) (-i hbar)^k x^(a2-k) (D^k f, H^e1)
        # each product is kept as a (numerator, shell power) pair until its
        # key's Coeff.sum reduces it; H^e1 H^e2 = c^2 shell, when both flags
        # are set, folds into the pair's shell power
        top = max((a2 for a2, _, _ in other.terms), default=0)
        left = []
        for (a1, b1, e1), c1 in self.terms.items():
            # D^k c1 up to the highest x power on the right; D of a
            # p-free coefficient is 0, and so is every later link
            chain = [c1]
            while len(chain) <= top:
                d = chain[-1].diff_p(e1)
                if not d:
                    break
                chain.append(d)
            left.append((a1, b1, e1, chain))
        # a factor past the longest chain would meet no D^k c1
        longest = max((len(chain) for *_, chain in left), default=0)
        right = []
        for (a2, b2, e2), c2 in other.terms.items():
            # C(a2, k) (-i hbar)^k c2 for k <= a2 and k < longest, built once per term
            factors = [c2] + [
                c2.times_poly(Poly.monomial(comb(a2, k), eh=k, ei=3 * k))
                for k in range(1, min(a2 + 1, longest))
            ]
            right.append((a2, b2, e2, factors))
        parts = defaultdict(list)
        for a1, b1, e1, chain in left:
            for a2, b2, e2, factors in right:
                for k, (d, f) in enumerate(zip(chain, factors)):
                    n, s = d.num * f.num, d.spow + f.spow
                    if e1 and e2:
                        n, s = (n.shift(ec=2), s - 1) if s else (n * C2_SHELL, 0)
                    parts[a1 + a2 - k, b1 + b2, e1 ^ e2].append((n, s))
        out = {}
        for key, ps in parts.items():
            # a sum can cancel
            c = Coeff.sum(ps)
            if c:
                out[key] = c
        return NormalForm(out)

    # ------------------------------------------------------------------
    # printing

    def to_text(self):
        """Canonical text; re-parsing and re-normalizing reproduces self."""
        trees = []
        for key in sorted(self.terms, reverse=True):
            trees.extend(_term_trees(key, self.terms[key]))
        return print_terms(trees) or "0"

    def __repr__(self):
        return f"NormalForm<{self.to_text()}>"


NF_ONE = NormalForm.scalar(Coeff.one())


# ---------------------------------------------------------------------------
# expression evaluation

# the central scalars, by their exponent slot in a Poly monomial
_SCALAR_SLOTS = {"hbar": "eh", "c": "ec", "m": "em", "p": "ep", "i": "ei"}
# the generators, by their (x-power, t-power, H-flag) key
_GENERATOR_KEYS = {"x": (1, 0, 0), "t": (0, 1, 0), "H": (0, 0, 1)}


def _atom_nf(name, exponent=1):
    """An atom raised to 1 or to a negative power.

    ``Atom`` and ``Power`` have already refused unknown names and negative
    powers of x and t, so a negative power here is of a scalar or of H.
    """
    slot = _SCALAR_SLOTS.get(name)
    if slot is not None:
        return NormalForm.scalar(Coeff(Poly.monomial(1, **{slot: exponent})))
    if exponent == 1:
        return NormalForm({_GENERATOR_KEYS[name]: Coeff.one()})
    # H^-1 = shell^-1 H up to the c^2 of the mass shell:
    # H^-n = c^(-2 ceil(n/2)) shell^(-ceil(n/2)) H^(n mod 2)
    n = -exponent
    half = (n + 1) // 2
    coeff = Coeff(Poly.monomial(1, ec=-2 * half), spow=half)
    return NormalForm({(0, 0, n % 2): coeff})


# a power of n costs n - 1 products, so the exponent is bounded
_MAX_EXPONENT = 10_000


def normal_form(e):
    """Reduce a tree (or pass through a NormalForm) to canonical form."""
    if isinstance(e, NormalForm):
        return e
    if isinstance(e, Atom):
        return _atom_nf(e.name)
    if isinstance(e, Rational):
        return NormalForm.scalar(Coeff(Poly.monomial(e)))
    if isinstance(e, Sum):
        out = {}
        for term in e.terms:
            _merge(out, normal_form(term).terms)
        return NormalForm(out)
    if isinstance(e, Product):
        factors = map(normal_form, e.factors)
    elif isinstance(e, Power):
        if e.exponent < 0:
            return _atom_nf(e.base.name, e.exponent)
        if e.exponent > _MAX_EXPONENT:
            raise DomainError(f"exponents above {_MAX_EXPONENT} are not supported")
        factors = [normal_form(e.base)] * e.exponent
        if not factors:  # b^0
            return NF_ONE
    else:
        raise ExprError(f"cannot normalize {type(e).__name__}")
    # one left fold from the first factor, so nothing is multiplied by one
    return functools.reduce(NormalForm.__mul__, factors)


def commutator(a, b):
    """normal_form(a b - b a)."""
    na = normal_form(a)
    nb = normal_form(b)
    return na * nb - nb * na


def anticommutator(a, b):
    """normal_form(a b + b a)."""
    na = normal_form(a)
    nb = normal_form(b)
    return na * nb + nb * na


def symmetrize(a, b):
    """The Weyl-symmetrized product (a b + b a) / 2, as an unreduced tree."""
    return Product((Rational(1, 2), Sum((Product((a, b)), Product((b, a))))))


def is_zero(e):
    return normal_form(e).is_zero()


# ---------------------------------------------------------------------------
# normal forms as expression trees

_I = Atom("i")
_ONE = Rational(1)


def _gauss_terms(poly, ec):
    """Base monomial (hbar, c + ec, m, p) -> (re, im) of its coefficient, a part None if absent."""
    out = {}
    for (eh, c, em, ep, ei), g in poly.terms.items():
        q = Rational(g, poly.den)
        base = (eh, c + ec, em, ep)
        re, im = out.get(base, (None, None))
        out[base] = (re, q) if ei else (q, im)
    return out


@functools.cache
def _power(name, e):
    if e == 0:
        return None
    if e == 1:
        return Atom(name)
    return Power(Atom(name), e)


def _times(g, factors):
    """The tree of the Rational g times the factors, None entries skipped."""
    factors = [f for f in factors if f is not None]
    if (g.num, g.den) != (1, 1):
        factors.insert(0, g)
    if not factors:
        return _ONE
    return factors[0] if len(factors) == 1 else Product(factors)


def _coeff(re, im):
    """(g, head): the coefficient re + im*i is g times the factors in head.

    A coefficient with both parts is one parenthesised group with g = 1,
    so negating it adds a -1 head and keeps its parts.
    """
    if re and im:
        return _ONE, [Sum((re, _times(im, [_I])))]
    if im:
        return im, [_I]
    return re, []


def _term_trees(key, coeff):
    """The trees one normal-form term contributes to the top-level sum."""
    a, b, eps = key
    # fold shell^-spow into H^(-2 spow), compensating the c^2 per shell
    num = _gauss_terms(coeff.num, ec=2 * coeff.spow)
    x, t, h = _power("x", a), _power("t", b), _power("H", eps - 2 * coeff.spow)

    if len(num) == 1:
        ((eh, ec, em, ep), g), = num.items()
        g, head = _coeff(*g)
        rest = [_power("hbar", eh), _power("c", ec), _power("m", em), x, t, _power("p", ep), h]
        return [_times(g, head + rest)]

    summands = []
    for mono in sorted(num, key=lambda mono: (mono[3], mono[0], mono[2], mono[1]), reverse=True):
        eh, ec, em, ep = mono
        g, head = _coeff(*num[mono])
        rest = [_power("p", ep), _power("hbar", eh), _power("m", em), _power("c", ec)]
        summands.append((g, head + rest))
    if x is None and t is None and h is None:
        return [_times(g, factors) for g, factors in summands]
    # pull the lead sign out of the group
    lead = summands[0][0].num < 0
    group = Sum(tuple(_times(negate(g) if lead else g, factors) for g, factors in summands))
    return [_times(Rational(-1) if lead else _ONE, [x, t, group, h])]
