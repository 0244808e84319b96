"""Coefficient arithmetic: Laurent polynomials over the Gaussian
rationals, and shell-denominator fractions.

The main oracle here is evaluation: substituting random rational values
for (hbar, c, m, p) and i -> (0, 1) turns every structural operation into
plain arithmetic on exact (re, im) pairs of Fractions, which catches
bookkeeping mistakes without repeating the implementation.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qlorentz.algebra import NormalForm, normal_form
from qlorentz.expr import Power, parse
from qlorentz.rational import (
    C2_SHELL,
    Coeff,
    MON_ONE,
    P_ONE,
    P_P,
    Poly,
    SHELL,
    _shell_pow,
)
from qlorentz.theorems import XPRIME
from conftest import make_tree

_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)

_I = (0, 0, 0, 0, 1)  # the monomial key of i


def _gauss(a, b):
    """a + b*i as a Poly."""
    return Poly.monomial(a) + Poly.monomial(b, ei=1)


def _cadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _eval_poly(poly: Poly, hv: Fraction, cv: Fraction, mv: Fraction, pv: Fraction):
    total = (Fraction(0), Fraction(0))
    for (eh, ec, em, ep, ei), g in poly.terms.items():
        value = Fraction(g, poly.den) * hv**eh * cv**ec * mv**em * pv**ep
        total = _cadd(total, (0, value) if ei else (value, 0))
    return total


def _eval_coeff(coeff: Coeff, hv, cv, mv, pv):
    shell = pv * pv + mv * mv * cv * cv
    re, im = _eval_poly(coeff.num, hv, cv, mv, pv)
    return (re / shell**coeff.spow, im / shell**coeff.spow)


def _rand_frac(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _rand_poly(rng, allow_negative_p=True):
    lo = -2 if allow_negative_p else 0
    out = Poly.zero()
    for _ in range(rng.randint(1, 4)):
        mono = dict(
            eh=rng.randint(0, 2),
            ec=rng.randint(0, 2),
            em=rng.randint(0, 2),
            ep=rng.randint(lo, 3),
        )
        # any exponent of i: monomial() reduces it
        k = rng.randint(-4, 7)
        out = out + Poly.monomial(_rand_frac(rng), ei=k, **mono)
        out = out + Poly.monomial(_rand_frac(rng), ei=k + 1, **mono)
    return out if not out.is_zero() else P_ONE


def _rand_coeff(rng):
    return Coeff(_rand_poly(rng), rng.randint(0, 2))


_SAMPLE_POINTS = [
    (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3)),
    (Fraction(1, 3), Fraction(2), Fraction(3), Fraction(-7, 2)),
    (Fraction(5), Fraction(1, 2), Fraction(2, 3), Fraction(1)),
]


class TestGaussian:
    @given(a=_fracs, b=_fracs, c=_fracs, d=_fracs)
    @settings(max_examples=100, deadline=None)
    def test_mul_matches_complex(self, a, b, c, d):
        got = _gauss(a, b) * _gauss(c, d)
        assert got == _gauss(a * c - b * d, a * d + b * c)

    def test_i_power_cycle(self):
        # 1, i, -1, -i written out as term maps
        cycle = [
            Poly({MON_ONE: Fraction(1)}),
            Poly({_I: Fraction(1)}),
            Poly({MON_ONE: Fraction(-1)}),
            Poly({_I: Fraction(-1)}),
        ]
        for k in range(-4, 8):
            assert Poly.monomial(1, ei=k) == cycle[k % 4], k


class TestPoly:
    def test_ring_axioms_under_evaluation(self):
        rng = random.Random(101)
        for _ in range(40):
            f, g = _rand_poly(rng), _rand_poly(rng)
            for hv, cv, mv, pv in _SAMPLE_POINTS:
                ev = lambda q: _eval_poly(q, hv, cv, mv, pv)
                assert ev(f + g) == _cadd(ev(f), ev(g))
                assert ev(f * g) == _cmul(ev(f), ev(g))
                assert ev(-f) == _cmul((-1, 0), ev(f))

    def test_mul_commutes(self):
        rng = random.Random(77)
        for _ in range(30):
            f, g = _rand_poly(rng), _rand_poly(rng)
            assert f * g == g * f

    def test_pow_is_repeated_mul(self):
        product = P_ONE
        for k in range(5):
            assert _shell_pow(k) == product
            product = product * SHELL

    def test_diff_monomials(self):
        m = Poly.monomial(1, eh=1, ep=3)
        assert m.diff_p() == Poly.monomial(3, eh=1, ep=2)
        inv = Poly.monomial(1, ep=-2, ei=1)
        assert inv.diff_p() == Poly.monomial(-2, ep=-3, ei=1)
        assert P_ONE.diff_p().is_zero()

    def test_diff_product_rule(self):
        rng = random.Random(13)
        for _ in range(30):
            f, g = _rand_poly(rng), _rand_poly(rng)
            assert (f * g).diff_p() == f.diff_p() * g + f * g.diff_p()

    def test_shell_division_round_trip(self):
        rng = random.Random(23)
        for _ in range(40):
            f = _rand_poly(rng)
            assert (f * SHELL).div_shell() == f

    def test_shell_division_rejects_remainder(self):
        assert (SHELL * P_P + P_ONE).div_shell() is None
        assert P_P.div_shell() is None
        assert Poly.zero().div_shell() == Poly.zero()

    def test_c2_shell_relation(self):
        assert C2_SHELL == SHELL.shift(ec=2)

    def test_equal_values_share_one_representation(self):
        """Values reached by different routes are equal, hash equally and
        keep the smallest denominator: a cleared one is 1."""
        half = Poly.monomial(Fraction(1, 2))
        routes = [
            (half + half, P_ONE),
            (Poly.monomial(Fraction(1, 6)) + Poly.monomial(Fraction(1, 3)), half),
            (Poly.monomial(Fraction(1, 2), ep=2).diff_p(), P_P),
            (Poly.monomial(Fraction(3, 6)), half),
            (half * Poly.monomial(2), P_ONE),
            (Poly.monomial(2).scale(Fraction(1, 4)), half),
            (half - half, Poly.zero()),
        ]
        for got, expect in routes:
            assert got == expect and hash(got) == hash(expect), (got, expect)
            assert got.den == expect.den, (got, expect)
            _assert_canonical(got)
        assert half.den == 2 and P_ONE.den == 1

    @given(
        monomials=st.lists(
            st.tuples(
                st.fractions(min_value=-5, max_value=5, max_denominator=12),
                st.integers(0, 2),
                st.integers(-2, 3),
                st.integers(0, 3),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_shell_division_keeps_the_denominator(self, monomials):
        """(f * shell) / shell is f, denominator included, for f whose
        coefficients have mixed denominators."""
        f = Poly.zero()
        for g, em, ep, ei in monomials:
            f = f + Poly.monomial(g, em=em, ep=ep, ei=ei)
        q = (f * SHELL).div_shell()
        assert q == f and q.den == f.den and hash(q) == hash(f)
        _assert_canonical(q)


class TestCoeff:
    def test_constructor_reduces(self):
        rng = random.Random(3)
        for _ in range(25):
            f = _rand_poly(rng)
            assert Coeff(f * SHELL, 2) == Coeff(f, 1)
            assert Coeff(f * SHELL * SHELL, 2) == Coeff(f, 0)

    def test_field_ops_under_evaluation(self):
        rng = random.Random(41)
        for _ in range(30):
            a, b = _rand_coeff(rng), _rand_coeff(rng)
            for hv, cv, mv, pv in _SAMPLE_POINTS:
                ev = lambda q: _eval_coeff(q, hv, cv, mv, pv)
                assert ev(a + b) == _cadd(ev(a), ev(b))
                assert ev(a * b) == _cmul(ev(a), ev(b))
                assert ev(a - b) == _cadd(ev(a), _cmul((-1, 0), ev(b)))

    def test_unequal_shell_powers_align(self):
        a = Coeff(P_ONE, 0)
        b = Coeff(P_P, 2)
        s = a + b
        assert s.spow == 2
        assert s.num == SHELL * SHELL + P_P

    def test_diff_quotient_rule(self):
        # (d/dp + eps p/shell) [N / shell^k] for eps in {0, 1}, evaluated
        # two ways: structurally, and by differentiating the equivalent
        # single-denominator polynomial N' * shell - (2k - eps) p N over
        # shell^(k+1); at eps = 1 it is also f' + (p / shell) f.
        rng = random.Random(59)
        for _ in range(30):
            a = _rand_coeff(rng)
            for eps in (0, 1):
                got = a.diff_p(eps)
                expect = Coeff(
                    a.num.diff_p() * SHELL - P_P.scale(2 * a.spow - eps) * a.num,
                    a.spow + 1,
                )
                assert got == expect
                _assert_canonical(NormalForm.scalar(got))
            assert a.diff_p(1) == a.diff_p() + Coeff(a.num.shift(ep=1), a.spow + 1)
            if a.spow == 0:
                assert a.diff_p() == Coeff(a.num.diff_p())

    def test_times_p_over_shell(self):
        a = Coeff(P_ONE, 0)
        assert a.times_p_over_shell() == Coeff(P_P, 1)

    def test_zero_detection(self):
        assert Coeff.zero().is_zero()
        assert not Coeff.one().is_zero()
        assert not Coeff.zero() and Coeff.one()
        rng = random.Random(71)
        a = _rand_coeff(rng)
        assert (a - a).is_zero()


def test_uniqueness_of_representation():
    """Equal values compare equal regardless of construction route."""
    rng = random.Random(97)
    for _ in range(25):
        f = _rand_poly(rng)
        k = rng.randint(0, 2)
        a = Coeff(f, k)
        b = Coeff(f * SHELL, k + 1)
        c = Coeff(f * SHELL * SHELL, k + 2)
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)


def _assert_canonical(value):
    """A Poly keeps i's exponent in {0, 1} and nonzero int numerators over a
    denominator den >= 1 coprime to their content, den == 1 when it is zero;
    a NormalForm keys its terms by (a >= 0, b >= 0, eps in {0, 1}) and holds
    maximally reduced Coeffs; neither stores a zero."""
    if isinstance(value, NormalForm):
        for key, coeff in value.terms.items():
            a, b, eps = key
            assert a >= 0 and b >= 0 and eps in (0, 1), key
            assert type(coeff) is Coeff and coeff, (key, coeff)
            assert coeff.spow == 0 or coeff.num.div_shell() is None, (key, coeff)
            _assert_canonical(coeff.num)
        return
    for mono, g in value.terms.items():
        assert len(mono) == 5 and mono[4] in (0, 1), mono
        assert type(g) is int and g != 0, (mono, g)
    assert type(value.den) is int and value.den >= 1, value
    assert math.gcd(value.den, *value.terms.values()) == 1, value


def test_canonical_form_invariant():
    """Every result keeps i's exponent in {0, 1} and stores no zero,
    normal forms included where a zero arises: a literal 0, a cancelled
    sum, and the vanishing derivative of a p-free coefficient (m*x)."""
    rng = random.Random(131)
    results = []
    for _ in range(60):
        f, g = _rand_poly(rng), _rand_poly(rng)
        results += [f + g, f - g, f - f, f * g, (f * g).diff_p(), -f.diff_p()]
        results.append((f * SHELL).div_shell())
        a, b = _rand_coeff(rng), _rand_coeff(rng)
        for c in (a + b, a * b, a - b, a.diff_p(), Coeff(b.num.shift(ep=1), b.spow + 1)):
            results.append(c.num)
    results += [normal_form(parse(text)) for text in ("0", "0*x", "m*x", "x - x")]
    for _ in range(40):
        u, v = normal_form(make_tree(rng)), normal_form(make_tree(rng))
        results += [u + v, u - v, u - u, u * v, u * v - v * u]
    xprime = parse(XPRIME)
    results += [normal_form(Power(xprime, k)) for k in range(4)]
    for value in results:
        _assert_canonical(value)


def test_coeff_sum_matches_left_fold():
    """Coeff.sum(parts) equals the left fold of + over parts with mixed
    shell powers, when the parts cancel and when their sum is divisible by
    the shell; the result is canonical and the parts are left unchanged."""
    rng = random.Random(151)
    cases = []
    for _ in range(40):
        parts = [_rand_coeff(rng) for _ in range(rng.randint(1, 5))]
        cases.append(parts)
        cases.append(parts + [-c for c in reversed(parts)])
        # a and b carry shell powers; the sum f is shell-free
        a, b = Coeff(_rand_poly(rng), rng.randint(1, 2)), Coeff(_rand_poly(rng), 1)
        f = Coeff(_rand_poly(rng))
        cases.append([a, b, f - a - b])
    for parts in cases:
        before = [(dict(c.num.terms), c.spow) for c in parts]
        got = Coeff.sum(parts)
        expect = parts[0]
        for c in parts[1:]:
            expect = expect + c
        assert got == expect
        assert [(c.num.terms, c.spow) for c in parts] == before
        if got:
            _assert_canonical(NormalForm.scalar(got))
        else:
            assert got.spow == 0
    # the cancelling and the shell-divisible lists are all there
    assert sum(not Coeff.sum(parts) for parts in cases) >= 40
    assert sum(Coeff.sum(parts).spow < max(c.spow for c in parts) for parts in cases) >= 40
