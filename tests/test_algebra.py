"""Normal-form engine: rewrite goldens, ring homomorphism, operator rules."""

import math
import random

import pytest

from qlorentz.algebra import (
    NormalForm,
    anticommutator,
    commutator,
    is_zero,
    normal_form,
    symmetrize,
)
from qlorentz.errors import DomainError, ExprError
from qlorentz.expr import Atom, Power, Product, Rational, Sum, parse, print_expr
from qlorentz.rational import Coeff
from conftest import make_poly_tree, make_tree


def nf(text):
    return normal_form(parse(text))


# ---------------------------------------------------------------------------
# rewrite goldens


@pytest.mark.parametrize(
    "source,expected",
    [
        ("p*x", "x*p - i*hbar"),
        ("H*H", "p^2*c^2 + m^2*c^4"),
        ("H^2", "p^2*c^2 + m^2*c^4"),
        ("H*x", "x*H - i*hbar*c^2*p*H^-1"),
        ("H*t", "t*H"),
        ("t*x", "x*t"),
        ("p*x^2", "x^2*p - 2*i*hbar*x"),
        ("H^3", "(p^2*c^2 + m^2*c^4)*H"),
        ("H^-2*(p^2*c^2 + m^2*c^4)", "1"),
        ("i*i", "-1"),
        ("i^-1", "-i"),
    ],
)
def test_reduction_agrees(source, expected):
    assert nf(source) == nf(expected)


@pytest.mark.parametrize(
    "source,text",
    [
        ("p*x", "x*p - i*hbar"),
        ("H*H", "p^2*c^2 + m^2*c^4"),
        ("H*x", "x*H - i*hbar*c^2*p*H^-1"),
        ("x*p - p*x", "i*hbar"),
        ("H^2*x - x*H^2", "-2*i*hbar*c^2*p"),
        ("t - t", "0"),
    ],
)
def test_canonical_text(source, text):
    assert nf(source).to_text() == text


@pytest.mark.parametrize(
    "source,text",
    [
        ("x + i*x", "(1 + i)*x"),
        ("(-1/2 - i)*H", "(-1/2 - i)*H"),
        (
            "(2 + i)*(p^2 - i*m*c)*x*H^-1",
            "x*((2 + i)*p^2 + (1 - 2*i)*m*c)*H^-1 + (2 - 4*i)*hbar*p*H^-1",
        ),
        ("x*(1 + i)*(1 - i)", "2*x"),
    ],
)
def test_mixed_gaussian_text(source, text):
    """Coefficients with both a real and an imaginary part print as one group."""
    assert nf(source).to_text() == text


def test_commutator_goldens():
    assert commutator(parse("x"), parse("p")).to_text() == "i*hbar"
    assert commutator(parse("H"), parse("t")).to_text() == "0"
    assert commutator(parse("H^2"), parse("x")).to_text() == "-2*i*hbar*c^2*p"


def test_anticommutator_golden():
    assert anticommutator(parse("x"), parse("p")) == nf("2*x*p - i*hbar")


def test_symmetrize_tree_shape():
    sym = symmetrize(Atom("H"), Atom("x"))
    assert print_expr(sym) == "1/2*(H*x + x*H)"
    assert normal_form(sym) == nf("1/2*(H*x + x*H)")


def test_inverse_hamiltonian_commutator():
    # [H^-1, x] pulls one extra shell power into the denominator
    got = commutator(parse("H^-1"), parse("x"))
    assert got == nf("i*hbar*c^2*p*H^-3")


def test_h_inverse_is_inverse():
    assert nf("H*H^-1") == nf("1")
    assert nf("H^-1*H") == nf("1")
    assert nf("H^2*H^-2") == nf("1")


def test_p_inverse_reduction():
    assert nf("p*p^-1") == nf("1")
    assert nf("p^-1*x") == nf("x*p^-1 + i*hbar*p^-2")


# ---------------------------------------------------------------------------
# structural properties


def test_t_is_central():
    rng = random.Random(11)
    t = Atom("t")
    for _ in range(60):
        w = make_tree(rng, depth=2)
        assert commutator(w, t).is_zero()


def test_normal_form_is_ring_homomorphism():
    rng = random.Random(17)
    for _ in range(120):
        a, b = make_tree(rng, depth=2), make_tree(rng, depth=2)
        assert normal_form(Sum((a, b))) == normal_form(a) + normal_form(b)
        assert normal_form(Product((a, b))) == normal_form(a) * normal_form(b)


def test_product_reassociation():
    rng = random.Random(19)
    for _ in range(80):
        a, b, c = (make_tree(rng, depth=2) for _ in range(3))
        left = normal_form(Product((Product((a, b)), c)))
        right = normal_form(Product((a, Product((b, c)))))
        assert left == right
        assert left == normal_form(Product((a, b, c)))


def test_power_matches_repeated_mul():
    rng = random.Random(29)
    for _ in range(25):
        a = make_tree(rng, depth=1)
        na = normal_form(a)
        assert normal_form(Power(a, 3)) == na * na * na


def test_products_fold_from_their_first_factor(monkeypatch):
    """A product of k factors takes k - 1 multiplications and a power b^n
    takes n - 1 (b^0 none), so nothing is multiplied by one; a sum merges
    its terms' maps without adding normal forms."""
    muls, adds = [], []
    mul, add = NormalForm.__mul__, NormalForm.__add__
    monkeypatch.setattr(NormalForm, "__mul__", lambda a, b: muls.append(1) or mul(a, b))
    monkeypatch.setattr(NormalForm, "__add__", lambda a, b: adds.append(1) or add(a, b))
    base = parse("x + p")
    for k in (2, 3, 5):
        muls.clear()
        assert normal_form(Product([base] * k)) == normal_form(Power(base, k))
        assert len(muls) == 2 * (k - 1)
    for n in (0, 1, 2, 6):
        muls.clear()
        normal_form(Power(base, n))
        assert len(muls) == max(n - 1, 0)
    assert normal_form(parse("x + p + H - x + 3")) == nf("p + H + 3")
    assert adds == []


def test_exponent_bound():
    assert nf("p^10000").to_text() == "p^10000"
    for text in ("p^10001", "(x + p)^20000", "(p^10001)^0"):
        with pytest.raises(DomainError, match="above 10000"):
            nf(text)
    # negative exponents stand only on atoms and cost one term
    assert nf("p^-100000*H^-100001").to_text() == "p^-100000*H^-100001"


def _hand_derivative(coeffs, n):
    """The tree of the n-th p-derivative of sum_k coeffs[k] p^k, assembled
    from the raw coefficient list rather than the engine's own derivative."""
    parts = []
    for k, q in coeffs.items():
        if k < n:
            continue
        scaled = Rational(q.num * math.perm(k, n), q.den)
        if k == n:
            parts.append(scaled)
        elif k == n + 1:
            parts.append(Product((scaled, Atom("p"))))
        else:
            parts.append(Product((scaled, Power(Atom("p"), k - n))))
    if not parts:
        return Rational(0)
    return parts[0] if len(parts) == 1 else Sum(tuple(parts))


def test_derivative_rule_against_hand_built_derivative():
    """f(p)*x - x*f(p) must equal -i*hbar*f'(p)."""
    rng = random.Random(37)
    x = Atom("x")
    for _ in range(60):
        f, coeffs = make_poly_tree(rng)
        fprime = _hand_derivative(coeffs, 1)
        expected = Product((Rational(-1), Atom("i"), Atom("hbar"), fprime))
        assert commutator(f, x) == normal_form(expected)


@pytest.mark.parametrize(
    "a,rule",
    [
        (2, "x^2*({0}) - 2*i*hbar*x*({1}) - hbar^2*({2})"),
        (3, "x^3*({0}) - 3*i*hbar*x^2*({1}) - 3*hbar^2*x*({2}) + i*hbar^3*({3})"),
    ],
)
def test_binomial_chain_against_hand_built_derivatives(a, rule):
    """f(p)*x^a = sum_k C(a, k) (-i hbar)^k x^(a-k) f^(k)(p): the rule with
    every f^(k) written out from the raw coefficients."""
    rng = random.Random(41 + a)
    for _ in range(30):
        f, coeffs = make_poly_tree(rng)
        derivatives = [print_expr(_hand_derivative(coeffs, k)) for k in range(a + 1)]
        assert normal_form(Product((f, Power(Atom("x"), a)))) == nf(rule.format(*derivatives))


def test_hamiltonian_derivative_against_hand_built_derivative():
    """[f(p)*H, x] = -i*hbar*(f' + f*p/shell)*H, with p/shell*H written
    p*c^2*H^-1 since H^2 = c^2*shell."""
    rng = random.Random(47)
    for _ in range(40):
        f, coeffs = make_poly_tree(rng)
        f0, f1 = (print_expr(_hand_derivative(coeffs, k)) for k in (0, 1))
        expected = nf(f"-i*hbar*(({f1})*H + ({f0})*p*c^2*H^-1)")
        assert commutator(Product((f, Atom("H"))), Atom("x")) == expected


def test_round_trip_through_text():
    rng = random.Random(43)
    for _ in range(60):
        w = make_tree(rng, depth=2)
        a = normal_form(w)
        assert normal_form(parse(a.to_text())) == a
    # a -1 heading a nested product prints folded, with the same value
    e = Product((Rational(-1), Product((Atom("x"), Atom("x")))))
    assert print_expr(e) == "-x*x"
    assert nf("-x*x") == normal_form(e)


def test_normal_form_input_types():
    a = nf("x*p")
    assert normal_form(a) is a
    with pytest.raises(ExprError):
        normal_form(object())


def test_is_zero_helper():
    assert is_zero(parse("x*p - p*x - i*hbar"))
    assert not is_zero(parse("x*p - p*x"))


def test_zero_prints_as_zero():
    assert NormalForm.zero().to_text() == "0"
    assert nf("x - x").to_text() == "0"


def test_key_ordering_in_text():
    # descending lexicographic (x power, t power, H flag)
    text = nf("x^2 + x*t + t + H + 1").to_text()
    assert text == "x^2 + x*t + t + H + 1"


def test_products_build_only_the_factors_a_chain_reaches(monkeypatch):
    """C(a2, k) (-i hbar)^k c2 is built only for k below the longest left
    chain D^k c1: none for a p-free left side, two for p^2 (D p^2 = 2p,
    D 2p = 2), however high the power of x on the right."""
    calls = []
    times_poly = Coeff.times_poly
    monkeypatch.setattr(Coeff, "times_poly", lambda c, poly: calls.append(1) or times_poly(c, poly))
    for left, right, text, built in (
        ("x^50", "x^50", "x^100", 0),
        ("3*t", "x^7", "3*x^7*t", 0),
        ("p^2", "x^3", "x^3*p^2 - 6*i*hbar*x^2*p - 6*hbar^2*x", 2),
    ):
        a, b = nf(left), nf(right)
        calls.clear()
        assert (a * b).to_text() == text
        assert len(calls) == built, (left, right)
