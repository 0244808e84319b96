"""Operator expression trees, the text grammar, and the canonical printer.

This is the package's one printer: ``print_expr`` spells a tree, and
``NormalForm.to_text`` spells its terms as trees through ``print_terms``, so
how signs fold and how rationals, powers and groups are written is decided
here alone.

Grammar (whitespace between tokens is ignored)::

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := ("-")? base ("^" signed_int)?
    base     := "(" expr ")" | atom | rational
    atom     := "x" | "t" | "p" | "H" | "hbar" | "c" | "m" | "i"
    rational := int ("/" posint)?

There is no division operator; fractions exist only as rational literals
and as negative powers of the invertible atoms (p, H, hbar, c, m, i).
Negative exponents on x or t are rejected: those generators have no
inverse in the algebra.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, ExprError, ParseError

ATOM_NAMES = ("x", "t", "p", "H", "hbar", "c", "m", "i")

# x and t have no inverse; everything else may carry a negative exponent.
_NO_INVERSE = frozenset({"x", "t"})


class _Node:
    """A tree node: equal only to a node of the same type with equal fields.

    Nodes are immutable by convention, as ``Terms``, ``Poly`` and ``Coeff``
    are: each ``__init__`` validates and normalizes its fields, and nothing
    assigns to them afterwards (``algebra._power`` hands cached nodes out).
    """

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Atom(_Node):
    __slots__ = ("name",)

    def __init__(self, name):
        if name not in ATOM_NAMES:
            raise ExprError(f"unknown atom {name!r}")
        self.name = name


class Rational(_Node):
    """Literal num/den, stored gcd-reduced with den > 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if type(num) is not int or type(den) is not int:
            raise ExprError(f"rational literal needs int parts, got {num!r}/{den!r}")
        if den == 0:
            raise ExprError("rational literal with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        self.num = num // g
        self.den = den // g


class Sum(_Node):
    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        if len(terms) < 2:
            raise ExprError("Sum needs at least two terms")
        self.terms = terms


class Product(_Node):
    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ExprError("Product needs at least two factors")
        self.factors = factors


class Power(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        if type(exponent) is not int:
            raise ExprError("Power exponent must be an int")
        if exponent < 0 and not (isinstance(base, Atom) and base.name not in _NO_INVERSE):
            raise ExprError("negative exponent requires an invertible atom")
        self.base = base
        self.exponent = exponent


def negate(e):
    """-e, folding the sign into a leading rational when possible."""
    if isinstance(e, Rational):
        return Rational(-e.num, e.den)
    if isinstance(e, Product):
        head = e.factors[0]
        if isinstance(head, Rational):
            return Product((Rational(-head.num, head.den),) + e.factors[1:])
        return Product((Rational(-1),) + e.factors)
    return Product((Rational(-1), e))


# ---------------------------------------------------------------------------
# lexer

_PUNCT = "+-*^/()"


def _unexpected(value, pos, expected, what="token"):
    """The error for what may not stand at pos; a value of None is the end of input."""
    text = "end of input" if value is None else f"{what} {str(value)!r}"
    return ParseError(f"unexpected {text}", pos, expected)


def _tokenize(text):
    """(kind, value, offset) triples, kind 'int' | 'name' | punctuation, then 'end'."""
    toks = []
    n = len(text)
    pos = 0
    while pos < n:
        ch = text[pos]
        start = pos
        pos += 1
        if ch in " \t\r\n":
            continue
        if ch in _PUNCT:
            toks.append((ch, ch, start))
        elif ch.isdecimal():  # exactly the digits int() reads; "²" is isdigit() only
            while pos < n and text[pos].isdecimal():
                pos += 1
            try:
                toks.append(("int", int(text[start:pos]), start))
            except ValueError:  # the interpreter's int/str digit limit
                raise ParseError(
                    f"integer literal longer than {sys.get_int_max_str_digits()} digits",
                    start,
                ) from None
        elif ch.isalpha() or ch == "_":
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            toks.append(("name", text[start:pos], start))
        else:
            raise _unexpected(ch, start, ("token",), "character")
    toks.append(("end", None, n))
    return toks


# each level of parentheses takes four frames of the parser and one or two
# of the evaluator and the printer, so this keeps all three well inside
# the interpreter's recursion limit
_MAX_NESTING = 100


def _build(node, pos, expected, *args):
    """node(*args); the node's own check refuses it as a ParseError at pos."""
    try:
        return node(*args)
    except ExprError as exc:
        raise ParseError(str(exc), pos, expected) from None


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def accept(self, kind):
        """Consume the next token if it is of this kind, and say whether it was."""
        if self.toks[self.idx][0] != kind:
            return False
        self.idx += 1
        return True

    def expect(self, kind, expected):
        tok = self.toks[self.idx]
        if tok[0] != kind:
            raise _unexpected(tok[1], tok[2], expected)
        self.idx += 1
        return tok

    def parse(self):
        e = self.expr()
        self.expect("end", ("+", "-", "*", "end of input"))
        return e

    def expr(self):
        terms = [self.term()]
        while (op := self.toks[self.idx][0]) in ("+", "-"):
            self.idx += 1
            t = self.term()
            terms.append(negate(t) if op == "-" else t)
        return terms[0] if len(terms) == 1 else Sum(terms)

    def term(self):
        factors = [self.factor()]
        while self.accept("*"):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(factors)

    def factor(self):
        negated = self.accept("-")
        base = self.base()
        if self.accept("^"):
            pos = self.toks[self.idx][2]
            sign = -1 if self.accept("-") else 1
            exponent = sign * self.expect("int", ("integer",))[1]
            base = _build(Power, pos, (), base, exponent)
        return negate(base) if negated else base

    def base(self):
        kind, value, pos = self.toks[self.idx]
        self.idx += 1
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            self.expect(")", (")",))
            return e
        if kind == "name":
            return _build(Atom, pos, ATOM_NAMES, value)
        if kind == "int":
            if not self.accept("/"):
                return Rational(value)
            _, den, den_pos = self.expect("int", ("positive integer",))
            return _build(Rational, den_pos, ("positive integer",), value, den)
        raise _unexpected(value, pos, ("(", "atom", "integer", "-"))


def parse(text):
    """Parse expression text into a tree; raises ParseError on bad input."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 0, expected=("expression",))
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printer

def _fraction_text(num, den):
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # the interpreter's int/str digit limit
        raise DomainError(
            f"an integer longer than {sys.get_int_max_str_digits()} digits cannot be printed"
        ) from None


def _print_factor(e):
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, Rational):
        text = _fraction_text(e.num, e.den)
        return "(" + text + ")" if e.num < 0 else text
    if isinstance(e, Power):
        base = e.base
        if isinstance(base, Atom):
            base_text = base.name
        elif isinstance(base, Rational) and base.den == 1 and base.num >= 0:
            base_text = _fraction_text(base.num, 1)
        else:
            base_text = "(" + _print_tree(base) + ")"
        return f"{base_text}^{_fraction_text(e.exponent, 1)}"
    # grouped subexpression
    return "(" + _print_tree(e) + ")"


def _print_term(e):
    if isinstance(e, Product):
        return "*".join(_print_factor(f) for f in e.factors)
    return _print_factor(e)


def _signed_term(e, first):
    """e after the sign that joins it to a sum.

    A term headed by a negative rational (the inverse of negate) prints
    as "-" and its magnitude, except for a -1 head before a rational or
    product factor: on re-parse negate merges the "-" into that factor
    ("-0" reads as 0, "-(-1)" as 1, "-(x*x)*x" as ((-1)*x*x)*x), so the
    printed form would not be a fixed point.
    """
    factors = e.factors if isinstance(e, Product) else (e,)
    head, rest = factors[0], factors[1:]
    body = None
    if isinstance(head, Rational) and head.num < 0:
        if head.num != -1 or head.den != 1 or not rest:
            body = [_fraction_text(-head.num, head.den)] + [_print_factor(f) for f in rest]
        else:
            if len(rest) == 1 and isinstance(rest[0], Product):
                rest = rest[0].factors
            if not isinstance(rest[0], (Rational, Product)):
                body = [_print_factor(f) for f in rest]
    if body is None:
        return _print_term(e) if first else " + " + _print_term(e)
    return ("-" if first else " - ") + "*".join(body)


def print_terms(terms):
    """Terms joined by their signs as in a sum; a ``Sum`` term keeps its parens."""
    return "".join(_signed_term(t, i == 0) for i, t in enumerate(terms))


def _print_tree(e):
    return print_terms(e.terms if isinstance(e, Sum) else (e,))


def print_expr(e):
    """Canonical text for a tree; ``parse(print_expr(e)) == e``."""
    if isinstance(e, _Node):
        return _print_tree(e)
    raise TypeError(f"cannot print {type(e).__name__}")
