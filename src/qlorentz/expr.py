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

from .errors import ExprError, ParseError

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

_PUNCT = {"+": "+", "-": "-", "*": "*", "^": "^", "/": "/", "(": "(", ")": ")"}


def _tokenize(text):
    """Yield (kind, value, offset) triples; kind 'int' | 'name' | punctuation."""
    toks = []
    n = len(text)
    pos = 0
    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch in _PUNCT:
            toks.append((_PUNCT[ch], ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            toks.append(("int", int(text[start:pos]), start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            toks.append(("name", text[start:pos], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", pos, expected=("token",))
    toks.append(("end", None, n))
    return toks


# each level of parentheses takes four frames of the parser and one or two
# of the evaluator and the printer, so this keeps all three well inside
# the interpreter's recursion limit
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.idx]

    def advance(self):
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind, expected):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected {self._describe(tok)}", tok[2], expected=expected)
        return self.advance()

    @staticmethod
    def _describe(tok):
        if tok[0] == "end":
            return "end of input"
        return f"token {str(tok[1])!r}"

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"unexpected {self._describe(tok)}",
                tok[2],
                expected=("+", "-", "*", "end of input"),
            )
        return e

    def expr(self):
        terms = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            t = self.term()
            terms.append(negate(t) if op == "-" else t)
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.advance()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def factor(self):
        negated = False
        if self.peek()[0] == "-":
            self.advance()
            negated = True
        base = self.base()
        if self.peek()[0] == "^":
            self.advance()
            exponent, exp_pos = self.signed_int()
            if exponent < 0:
                if not isinstance(base, Atom):
                    raise ParseError(
                        "negative exponent requires an invertible atom", exp_pos, expected=()
                    )
                if base.name in _NO_INVERSE:
                    raise ParseError(
                        f"negative exponent not allowed on {base.name}", exp_pos, expected=()
                    )
            base = Power(base, exponent)
        return negate(base) if negated else base

    def signed_int(self):
        sign = 1
        tok = self.peek()
        pos = tok[2]
        if tok[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("int", expected=("integer",))
        return sign * tok[1], pos

    def base(self):
        tok = self.peek()
        if tok[0] == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {_MAX_NESTING}", tok[2], expected=()
                )
            self.advance()
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            self.expect(")", expected=(")",))
            return e
        if tok[0] == "name":
            if tok[1] not in ATOM_NAMES:
                raise ParseError(
                    f"unknown atom {tok[1]!r}", tok[2], expected=ATOM_NAMES
                )
            self.advance()
            return Atom(tok[1])
        if tok[0] == "int":
            self.advance()
            num = tok[1]
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.expect("int", expected=("positive integer",))
                if dtok[1] == 0:
                    raise ParseError("zero denominator", dtok[2], expected=("positive integer",))
                return Rational(num, dtok[1])
            return Rational(num)
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            tok[2],
            expected=("(", "atom", "integer", "-"),
        )


def parse(text):
    """Parse expression text into a tree; raises ParseError on bad input."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 0, expected=("expression",))
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printer

def _fraction_text(num, den):
    return str(num) if den == 1 else f"{num}/{den}"


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
            base_text = str(base.num)
        else:
            base_text = "(" + _print_tree(base) + ")"
        return f"{base_text}^{e.exponent}"
    # grouped subexpression
    return "(" + _print_tree(e) + ")"


def _print_term(e):
    if isinstance(e, Product):
        return "*".join(_print_factor(f) for f in e.factors)
    if isinstance(e, Sum):
        return "(" + _print_tree(e) + ")"
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
