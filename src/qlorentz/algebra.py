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

from fractions import Fraction
from math import comb

from .errors import ExprError
from .expr import Atom, Power, Product, Rational, Sum
from .rational import C2_SHELL, Coeff, Poly


class NormalForm:
    """Map (x-power, t-power, H-flag) -> Coeff; zero coefficients dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    @staticmethod
    def zero():
        return NormalForm()

    @staticmethod
    def scalar(coeff):
        return NormalForm({(0, 0, 0): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc.is_zero():
                    del out[key]
                else:
                    out[key] = acc
        return NormalForm(out)

    def __neg__(self):
        return NormalForm({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a1, b1, e1), c1 in self.terms.items():
            for (a2, b2, e2), c2 in other.terms.items():
                # move (c1, H^e1) across x^a2:
                # (f, eps) x = x (f, eps) - i hbar (D f, eps) with
                # D f = f' + eps * (p / shell) f, iterated binomially
                cur = c1
                for k in range(a2 + 1):
                    if k:
                        cur = _x_derivative(cur, e1)
                    coeff = cur * c2
                    coeff = coeff.times_poly(
                        Poly.monomial(comb(a2, k), eh=k, ei=3 * k)
                    )
                    eps = e1 + e2
                    if eps == 2:
                        coeff = coeff.times_poly(C2_SHELL)
                        eps = 0
                    key = (a1 + a2 - k, b1 + b2, eps)
                    acc = out.get(key)
                    out[key] = coeff if acc is None else acc + coeff
        return NormalForm(out)

    def pow(self, n):
        if n < 0:
            raise ExprError("NormalForm.pow expects n >= 0")
        out = NF_ONE
        for _ in range(n):
            out = out * self
        return out

    # ------------------------------------------------------------------
    # printing

    def to_text(self):
        """Canonical text; re-parsing and re-normalizing reproduces self."""
        if not self.terms:
            return "0"
        out = []
        for key in sorted(self.terms, reverse=True):
            sign, body = _term_text(key, self.terms[key])
            if not out:
                out.append("-" + body if sign < 0 else body)
            else:
                out.append((" - " if sign < 0 else " + ") + body)
        return "".join(out)

    def __repr__(self):
        return f"NormalForm<{self.to_text()}>"


NF_ONE = NormalForm.scalar(Coeff.one())


def _x_derivative(coeff, eps):
    """The commutation derivative: [f(p) H^eps, x] = -i hbar * this * H^eps."""
    d = coeff.diff_p()
    if eps:
        d = d + coeff.times_p_over_shell()
    return d


# ---------------------------------------------------------------------------
# expression evaluation

# the central scalars, by their exponent slot in a Poly monomial
_SCALAR_SLOTS = {"hbar": "eh", "c": "ec", "m": "em", "p": "ep", "i": "ei"}


def _atom_nf(name, exponent=1):
    """An atom raised to 1 or to a negative power."""
    slot = _SCALAR_SLOTS.get(name)
    if slot is not None:
        return NormalForm.scalar(Coeff(Poly.monomial(1, **{slot: exponent})))
    if exponent == 1:
        if name == "x":
            return NormalForm({(1, 0, 0): Coeff.one()})
        if name == "t":
            return NormalForm({(0, 1, 0): Coeff.one()})
        if name == "H":
            return NormalForm({(0, 0, 1): Coeff.one()})
        raise ExprError(f"unknown atom {name!r}")
    if name == "H":
        # H^-1 = shell^-1 H up to the c^2 of the mass shell:
        # H^-n = c^(-2 ceil(n/2)) shell^(-ceil(n/2)) H^(n mod 2)
        n = -exponent
        half = (n + 1) // 2
        coeff = Coeff(Poly.monomial(1, ec=-2 * half), spow=half)
        return NormalForm({(0, 0, n % 2): coeff})
    raise ExprError(f"no inverse for atom {name!r}")


def normal_form(e):
    """Reduce a tree (or pass through a NormalForm) to canonical form."""
    if isinstance(e, NormalForm):
        return e
    if isinstance(e, Atom):
        return _atom_nf(e.name)
    if isinstance(e, Rational):
        return NormalForm.scalar(Coeff(Poly.monomial(Fraction(e.num, e.den))))
    if isinstance(e, Sum):
        out = NormalForm.zero()
        for term in e.terms:
            out = out + normal_form(term)
        return out
    if isinstance(e, Product):
        out = NF_ONE
        for factor in e.factors:
            out = out * normal_form(factor)
        return out
    if isinstance(e, Power):
        if e.exponent >= 0:
            return normal_form(e.base).pow(e.exponent)
        if not isinstance(e.base, Atom):
            raise ExprError("negative exponent requires an invertible atom")
        return _atom_nf(e.base.name, e.exponent)
    raise ExprError(f"cannot normalize {type(e).__name__}")


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
# normal-form printing helpers

def _gauss_terms(poly, ec):
    """Base monomial (hbar, c + ec, m, p) -> (re, im) of its coefficient."""
    out = {}
    for (eh, c, em, ep, ei), q in poly.terms.items():
        base = (eh, c + ec, em, ep)
        re, im = out.get(base, (0, 0))
        out[base] = (re, q) if ei else (q, im)
    return out


def _gauss_parts(re, im):
    """(sign, magnitude_text, imag_flag, mixed_text) for one coefficient."""
    if re and im:
        return 1, None, False, _mixed_text(re, im)
    if im:
        sign = 1 if im > 0 else -1
        return sign, _frac_text(abs(im)), True, None
    sign = 1 if re > 0 else -1
    return sign, _frac_text(abs(re)), False, None


def _frac_text(q):
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _mixed_text(re, im):
    body = _frac_text(re) if re >= 0 else "-" + _frac_text(-re)
    if im >= 0:
        body += " + " + (_frac_text(im) + "*i" if abs(im) != 1 else "i")
    else:
        body += " - " + (_frac_text(-im) + "*i" if abs(im) != 1 else "i")
    return "(" + body + ")"


def _power_seg(name, e):
    if e == 0:
        return None
    if e == 1:
        return name
    return f"{name}^{e}"


_R_ORDER = ("p", "hbar", "m", "c")
_R_INDEX = {"hbar": 0, "c": 1, "m": 2, "p": 3}


def _coeff_segs(g):
    """(sign, segments) of an (re, im) coefficient: its magnitude unless 1, then i."""
    sign, mag, imag, mixed = _gauss_parts(*g)
    segs = []
    if mixed:
        segs.append(mixed)
    elif mag != "1":
        segs.append(mag)
    if imag:
        segs.append("i")
    return sign, segs


def _r_term_segs(mono, g):
    """Segments for one monomial inside a polynomial tail."""
    sign, segs = _coeff_segs(g)
    for name in _R_ORDER:
        seg = _power_seg(name, mono[_R_INDEX[name]])
        if seg:
            segs.append(seg)
    if not segs:
        segs.append("1")
    return sign, segs


def _poly_text(terms, relative=True):
    """(sign, text) of a ``_gauss_terms`` map, with the leading sign pulled out.

    With relative=True the inner signs are taken against the extracted
    one, which is right only when the caller wraps the text in parens;
    a bare group needs relative=False so '-a + b' keeps its meaning.
    """
    order = sorted(
        terms,
        key=lambda mono: (mono[3], mono[0], mono[2], mono[1]),
        reverse=True,
    )
    lead_sign = None
    parts = []
    for mono in order:
        sign, segs = _r_term_segs(mono, terms[mono])
        if lead_sign is None:
            lead_sign = sign
        body = "*".join(segs)
        if not parts:
            parts.append(body)
        elif relative:
            parts.append((" + " if sign == lead_sign else " - ") + body)
        else:
            parts.append((" + " if sign > 0 else " - ") + body)
    return lead_sign, "".join(parts)


def _term_text(key, coeff):
    """(sign, body) for one normal-form term."""
    a, b, eps = key
    hexp = eps - 2 * coeff.spow
    # fold shell^-spow into H^(-2 spow), compensating the c^2 per shell
    num = _gauss_terms(coeff.num, ec=2 * coeff.spow)

    xt = []
    for name, e in (("x", a), ("t", b)):
        seg = _power_seg(name, e)
        if seg:
            xt.append(seg)
    hseg = _power_seg("H", hexp) if hexp else None

    if len(num) == 1:
        ((eh, ec, em, ep), g), = num.items()
        sign, segs = _coeff_segs(g)
        for name, e in (("hbar", eh), ("c", ec), ("m", em)):
            seg = _power_seg(name, e)
            if seg:
                segs.append(seg)
        segs.extend(xt)
        pseg = _power_seg("p", ep)
        if pseg:
            segs.append(pseg)
        if hseg:
            segs.append(hseg)
        if not segs:
            segs.append("1")
        return sign, "*".join(segs)

    wrap = bool(xt) or hseg is not None
    sign, body = _poly_text(num, relative=wrap)
    if not wrap:
        return sign, body
    segs = xt + ["(" + body + ")"]
    if hseg:
        segs.append(hseg)
    return sign, "*".join(segs)
