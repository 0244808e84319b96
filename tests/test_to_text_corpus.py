"""Byte-identity gate for ``NormalForm.to_text`` over a fixed corpus.

``tests/data/to_text_corpus.txt`` holds one canonical text per line, in the
order ``corpus()`` yields them.  The test rebuilds every text and names the
first one that differs, with the input it came from.  Any change to the
printed format shows up here before it reaches a golden or a user.

Rewrite the file only when the format is meant to change:

    PYTHONPATH=src python tests/test_to_text_corpus.py
"""

import random
from pathlib import Path

from qlorentz.algebra import normal_form
from qlorentz.expr import Power, parse
from qlorentz.theorems import (
    SUITE,
    TPRIME,
    XPRIME,
    lorentz_operators,
    negative_branch_record,
    run_theorem,
)

from conftest import make_tree

CORPUS = Path(__file__).resolve().parent / "data" / "to_text_corpus.txt"

# factors of the random sums: every atom, inverses, and mixed Gaussians
_FACTORS = (
    "x", "t", "p", "H", "hbar", "c", "m", "i",
    "x^2", "t^2", "p^2", "p^-1", "p^-2", "H^-1", "H^-2", "H^3",
    "hbar^2", "c^-2", "m^-1",
    "(2 - 3*i)", "(1/2 + i)", "(-1 - i)", "(-2/3 + 5/4*i)",
    "(p^2 + m^2*c^2)", "(p - i*hbar)",
)
_COEFFS = ("1", "-1", "2", "-3", "1/2", "-1/4", "i", "-i", "2*i", "-1/3*i")


def _random_sum(rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [rng.choice(_COEFFS)]
        factors += rng.choices(_FACTORS, k=rng.randint(1, 3))
        terms.append("*".join(factors))
    return " + ".join(terms)


def corpus():
    """Yield (source, text) pairs; the source says which input gave the text."""
    records = [run_theorem(tid) for tid in SUITE] + [negative_branch_record()]
    for rec in records:
        yield f"{rec.id} residual", rec.residual.to_text()
        yield f"{rec.id} lhs", normal_form(rec.lhs).to_text()
        yield f"{rec.id} rhs", normal_form(rec.rhs).to_text()
    for name, op in zip(("x'", "t'"), lorentz_operators()):
        for k in range(1, 6):
            yield f"({name})^{k}", normal_form(Power(op, k)).to_text()
    rng = random.Random(11)
    for n in range(1500):
        yield f"make_tree draw {n}", normal_form(make_tree(rng, 3)).to_text()
    rng = random.Random(23)
    for _ in range(1000):
        source = _random_sum(rng)
        yield source, normal_form(parse(source)).to_text()
    # the heaviest normal forms of the algebra benchmark, as it spells them
    for name, text in (
        ("(x')^6", f"({XPRIME})^6"),
        ("(t')^6", f"({TPRIME})^6"),
        ("(x')^3*(t')^3", f"({XPRIME})^3*({TPRIME})^3"),
    ):
        yield name, normal_form(parse(text)).to_text()


def test_to_text_matches_corpus():
    expected = CORPUS.read_text(encoding="utf-8").splitlines()
    n = 0
    for n, (source, text) in enumerate(corpus()):
        assert n < len(expected), f"corpus file ends before text {n} ({source})"
        assert text == expected[n], f"text {n} differs; source: {source}"
    assert n + 1 == len(expected), f"corpus file has {len(expected) - n - 1} extra lines"


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("".join(text + "\n" for _, text in corpus()), encoding="utf-8")
