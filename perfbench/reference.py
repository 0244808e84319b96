"""Independent references for every output the benchmark checks.

Nothing here imports qlorentz.  The numeric references work from the
exact rational value of the float inputs: the interval xi^2 - tau^2 is a
``Fraction``, z is its square root in mpmath at raised precision, and K0
is ``mpmath.besselk``.  Bulk scan rows are checked in full against
``scipy.special.k0`` (the Cephes routine), and a seeded sample of each
scan against mpmath, which also checks scipy.

Operator texts are checked by a second, independent model of the
algebra: the momentum representation, where p multiplies, x acts as
i*hbar*d/dp, H multiplies by E(p) = sqrt(p^2 c^2 + m^2 c^4) and t is a
central number.  An expression is applied to a generic test function,
kept as a truncated Taylor series around a point p0, and two texts denote
the same operator only if they give the same series at two unrelated
parameter sets.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import scipy.special

TWO_PI = 2.0 * math.pi

# Gates, as in the package's own tests: the kernel route must match K0 to
# 1e-10, the quadrature route to 1e-6.  Printed values carry 12
# significant digits, which the 1e-10 gate already covers.
BESSEL_TOL = 1e-10
QUAD_TOL = 1e-6
Z_TOL = 1e-10
REF_DPS = 40

# Classification boundaries on xi^2 - tau^2, inclusive on the
# nonnegligible side.
BOUNDARY = {"eq2": Fraction(1), "eq13": Fraction(1, 4)}
TIMELIKE = "timelike_or_lightlike"
NONNEG = "spacelike_nonnegligible"
NEG = "spacelike_negligible"


# ---------------------------------------------------------------------------
# intervals, z and K0


def exact_s(tau: float, xi: float) -> Fraction:
    """xi^2 - tau^2 of the two doubles, exactly."""
    return Fraction(xi) ** 2 - Fraction(tau) ** 2


def classify_ref(s: Fraction, criterion: str) -> str:
    if s <= 0:
        return TIMELIKE
    return NONNEG if s <= BOUNDARY[criterion] else NEG


def z_ref(s: Fraction) -> mpmath.mpf:
    with mpmath.workdps(REF_DPS):
        return mpmath.sqrt(mpmath.mpf(s.numerator) / s.denominator)


def k0_ref(z) -> mpmath.mpf:
    with mpmath.workdps(REF_DPS):
        return mpmath.besselk(0, mpmath.mpf(z))


def rel_err(got: float, want) -> float:
    with mpmath.workdps(REF_DPS):
        want = mpmath.mpf(want)
        return float(abs(mpmath.mpf(got) - want) / abs(want))


def point_reference(tau: float, xi: float) -> dict:
    """z, gamma = K0(z)/2pi and both classes for one spacetime point."""
    s = exact_s(tau, xi)
    ref = {"s": s, "eq2": classify_ref(s, "eq2"), "eq13": classify_ref(s, "eq13")}
    if s > 0:
        z = z_ref(s)
        with mpmath.workdps(REF_DPS):
            ref["z"] = z
            ref["gamma"] = k0_ref(z) / (2 * mpmath.pi)
    return ref


def check_crosscheck(tau: float, xi: float, out: dict, ref: dict | None = None) -> list[str]:
    """Failure tags for one crosscheck point; empty when every part is right.

    ``out`` holds what the program returned: ``bessel`` and ``quad``
    (floats, or an ``error`` string under ``bessel_error``/``quad_error``),
    ``eq2`` and ``eq13`` (class values).
    """
    ref = ref or point_reference(tau, xi)
    fails = []
    for route, tol in (("bessel", BESSEL_TOL), ("quad", QUAD_TOL)):
        if out.get(route + "_error"):
            fails.append(route + "_refused")
        elif not (rel_err(out[route], ref["gamma"]) <= tol):
            fails.append(route + "_wrong")
    for crit in ("eq2", "eq13"):
        if out.get(crit) != ref[crit]:
            fails.append("classify_wrong")
            break
    return fails


# ---------------------------------------------------------------------------
# propagator and scan output of the command line


def _parse_complex(text: str) -> complex:
    m = re.fullmatch(r"(\S+) ([+-]) (\S+)\*i", text.strip())
    if not m:
        raise ValueError(f"not a complex value: {text!r}")
    im = float(m.group(3))
    return complex(float(m.group(1)), -im if m.group(2) == "-" else im)


def check_propagator_stdout(tau: float, xi: float, method: str, stdout: str) -> list[str]:
    """Check ``qlorentz propagator`` key = value lines in natural units."""
    try:
        kv = dict(line.split(" = ", 1) for line in stdout.strip().splitlines())
    except ValueError:
        return ["unparsable_output"]
    ref = point_reference(tau, xi)
    fails = []
    if "z" not in ref:
        return ["reference_not_spacelike"]
    want_keys = {"tau", "xi", "z", "interval_over_lambdabar2", "prob", "class_eq2", "class_eq13"}
    if method in ("bessel", "both"):
        want_keys.add("gamma_bessel")
    if method in ("quadrature", "both"):
        want_keys.add("gamma_quadrature")
    if method == "both":
        want_keys.add("rel_discrepancy")
    if set(kv) != want_keys:
        return ["wrong_keys"]
    try:
        if rel_err(float(kv["z"]), ref["z"]) > Z_TOL:
            fails.append("z_wrong")
        if rel_err(float(kv["interval_over_lambdabar2"]), -ref["s"].numerator / mpmath.mpf(ref["s"].denominator)) > Z_TOL:
            fails.append("interval_wrong")
        for key, tol in (("gamma_bessel", BESSEL_TOL), ("gamma_quadrature", QUAD_TOL)):
            if key in kv:
                g = _parse_complex(kv[key])
                if g.imag != 0.0 or rel_err(g.real, ref["gamma"]) > tol:
                    fails.append(key + "_wrong")
        if rel_err(float(kv["prob"]), ref["gamma"] ** 2) > 2 * BESSEL_TOL:
            fails.append("prob_wrong")
    except ValueError:
        return fails + ["unparsable_output"]
    if kv["class_eq2"] != ref["eq2"] or kv["class_eq13"] != ref["eq13"]:
        fails.append("classify_wrong")
    return fails


def _k0_vec(z: np.ndarray) -> np.ndarray:
    return scipy.special.k0(z)


SCAN_FIELDS = ("z", "interval_over_lambdabar2", "gamma_re", "gamma_im", "prob", "class_eq2", "class_eq13")
_TINY = 1e-290  # below this the printed probability has lost its relative precision


MP_SAMPLES = 2  # rows per scan also checked against mpmath (and so checking scipy)


def check_scan_rows(z_min: float, z_max: float, steps: int, cols: list, sample_seed: int) -> list[str]:
    """Check a scan given as seven columns (five numeric arrays, two class arrays)."""
    grid = np.linspace(z_min, z_max, steps)
    if any(len(c) != steps for c in cols):
        return ["wrong_row_count"]
    z, iv, gre, gim, prob = (np.fromiter(map(float, c), float, steps) for c in cols[:5])
    gamma = _k0_vec(grid) / TWO_PI
    fails = []

    def bad(got, want, tol):
        return np.abs(got - want) > tol * np.abs(want)

    if bad(z, grid, Z_TOL).any():
        fails.append("z_wrong")
    if bad(iv, -grid * grid, Z_TOL).any():
        fails.append("interval_wrong")
    if bad(gre, gamma, BESSEL_TOL).any() or (gim != 0.0).any():
        fails.append("gamma_wrong")
    pref = gamma * gamma
    small = pref < _TINY
    if (bad(prob, pref, 2 * BESSEL_TOL) & ~small).any() or (np.abs(prob - pref) > _TINY)[small].any():
        fails.append("prob_wrong")
    # tau = 0, so xi^2 <= b  <=>  xi <= sqrt(b), exactly, for b = 1 and 1/4
    want2 = np.where(grid <= 1.0, NONNEG, NEG)
    want13 = np.where(grid <= 0.5, NONNEG, NEG)
    if (np.asarray(cols[5]) != want2).any() or (np.asarray(cols[6]) != want13).any():
        fails.append("classify_wrong")
    rng = random.Random(sample_seed)
    for idx in rng.sample(range(steps), min(MP_SAMPLES, steps)):
        want = k0_ref(float(grid[idx])) / (2 * mpmath.pi)
        if rel_err(float(gre[idx]), want) > BESSEL_TOL:
            fails.append("gamma_wrong_mpmath")
            break
    return sorted(set(fails))


def check_scan_stdout(z_min: float, z_max: float, steps: int, fmt: str, stdout: str, sample_seed: int) -> list[str]:
    """Check ``qlorentz scan`` output in csv or json format."""
    try:
        if fmt == "json":
            import json

            records = json.loads(stdout)
            if not records or set(records[0]) != set(SCAN_FIELDS):
                return ["wrong_fields"]
            cols = [[r[k] for r in records] for k in SCAN_FIELDS]
        else:
            header, _, body = stdout.partition("\n")
            if header != ",".join(SCAN_FIELDS):
                return ["wrong_header"]
            body = body.rstrip("\n")
            flat = body.replace("\n", ",").split(",")
            if len(flat) != 7 * (body.count("\n") + 1):
                return ["wrong_row_shape"]
            cols = [flat[k::7] for k in range(7)]
    except (ValueError, KeyError, TypeError):
        return ["unparsable_output"]
    try:
        return check_scan_rows(z_min, z_max, steps, cols, sample_seed)
    except ValueError:
        return ["unparsable_output"]


def falloff_ref(z_lo: float, z_hi: float, n: int) -> float:
    """The falloff slope recomputed from reference K0 values."""
    zs = np.logspace(math.log10(z_lo), math.log10(z_hi), n)
    ys = np.log((_k0_vec(zs) / TWO_PI) ** 2 * zs)
    slope, _ = np.polyfit(zs, ys, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# operator texts in the momentum representation

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")
_ATOMS = {"x", "t", "p", "H", "hbar", "c", "m", "i"}


def _tokens(text: str) -> list:
    out = []
    for num, name, punct in _TOKEN.findall(text):
        if num:
            out.append(("int", int(num)))
        elif name:
            if name not in _ATOMS:
                raise ValueError(f"unknown atom {name!r}")
            out.append(("atom", name))
        elif punct.strip():
            if punct not in "+-*^/()":
                raise ValueError(f"unexpected character {punct!r}")
            out.append((punct, None))
    out.append(("end", None))
    return out


class _Reader:
    """Recursive descent over the grammar the package documents.

    Trees are tuples: ("num", Fraction), ("atom", name), ("sum", [...]),
    ("prod", [...]), ("pow", base, n), ("neg", node).
    """

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i][0]

    def _take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind}, found {tok[0]}")
        self.i += 1
        return tok

    def read(self):
        node = self._expr()
        self._take("end")
        return node

    def _expr(self):
        terms = [self._term()]
        while self._peek() in "+-":
            op = self._take()[0]
            t = self._term()
            terms.append(("neg", t) if op == "-" else t)
        return terms[0] if len(terms) == 1 else ("sum", terms)

    def _term(self):
        factors = [self._factor()]
        while self._peek() == "*":
            self._take()
            factors.append(self._factor())
        return factors[0] if len(factors) == 1 else ("prod", factors)

    def _factor(self):
        neg = self._peek() == "-"
        if neg:
            self._take()
        base = self._base()
        if self._peek() == "^":
            self._take()
            sign = -1 if self._peek() == "-" else 1
            if sign < 0:
                self._take()
            base = ("pow", base, sign * self._take("int")[1])
        return ("neg", base) if neg else base

    def _base(self):
        kind = self._peek()
        if kind == "(":
            self._take()
            node = self._expr()
            self._take(")")
            return node
        if kind == "atom":
            return ("atom", self._take()[1])
        num = self._take("int")[1]
        if self._peek() == "/":
            self._take()
            return ("num", Fraction(num, self._take("int")[1]))
        return ("num", Fraction(num))


def read_operator(text: str):
    """Parse operator text into the reference's own tuple tree."""
    return _Reader(text).read()


def _x_degree(node) -> int:
    kind = node[0]
    if kind == "atom":
        return 1 if node[1] == "x" else 0
    if kind == "sum":
        return max(_x_degree(t) for t in node[1])
    if kind == "prod":
        return sum(_x_degree(f) for f in node[1])
    if kind == "pow":
        return _x_degree(node[1]) * max(node[2], 0)
    if kind == "neg":
        return _x_degree(node[1])
    return 0


def _smul(a, b):
    n = min(len(a), len(b))
    return [mpmath.fsum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n)]


def _sinv(a):
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-mpmath.fsum(a[j] * out[k - j] for j in range(1, k + 1)) / a[0])
    return out


def _ssqrt(a):
    out = [mpmath.sqrt(a[0])]
    for k in range(1, len(a)):
        acc = a[k] - mpmath.fsum(out[j] * out[k - j] for j in range(1, k))
        out.append(acc / (2 * out[0]))
    return out


class _Model:
    """One parameter set of the momentum representation, series length n."""

    def __init__(self, hbar, c, m, t, p0, n):
        self.scalars = {"hbar": hbar, "c": c, "m": m, "t": t, "i": mpmath.mpc(0, 1)}
        self.hbar = hbar
        self.n = n
        zero = [mpmath.mpf(0)] * n
        self.p = ([p0, mpmath.mpf(1)] + zero)[:n]
        shell = ([c * c * p0 * p0 + m * m * c ** 4, 2 * c * c * p0, c * c] + zero)[:n]
        self.E = _ssqrt(shell)
        self.inv = {"p": _sinv(self.p), "H": _sinv(self.E)}
        self.mul = {"p": self.p, "H": self.E}

    def apply(self, node, f):
        kind = node[0]
        if kind == "num":
            return [v * node[1].numerator / node[1].denominator for v in f]
        if kind == "neg":
            return [-v for v in self.apply(node[1], f)]
        if kind == "sum":
            parts = [self.apply(t, f) for t in node[1]]
            n = min(len(p) for p in parts)
            return [mpmath.fsum(p[k] for p in parts) for k in range(n)]
        if kind == "prod":
            for factor in reversed(node[1]):
                f = self.apply(factor, f)
            return f
        if kind == "pow":
            base, e = node[1], node[2]
            if e < 0:
                if base[0] == "num":
                    return self.apply(("num", base[1] ** e), f)
                name = base[1]
                if name in self.inv:
                    for _ in range(-e):
                        f = _smul(self.inv[name], f)
                    return f
                if name in self.scalars:
                    return [v * self.scalars[name] ** e for v in f]
                raise ValueError(f"no inverse for {name}")
            for _ in range(e):
                f = self.apply(base, f)
            return f
        name = node[1]
        if name == "x":
            # x = i*hbar*d/dp; the derivative shortens the valid series by one
            return [mpmath.mpc(0, 1) * self.hbar * (k + 1) * f[k + 1] for k in range(len(f) - 1)]
        if name in self.mul:
            return _smul(self.mul[name], f)
        return [v * self.scalars[name] for v in f]


_KEEP = 3  # Taylor coefficients compared at the end
_PARAMS = (
    # (hbar, c, m, t, p0): unrelated values, so no identity holds by accident
    ("0.37", "1.3", "0.7", "1.9", "0.9"),
    ("1.21", "0.61", "1.7", "-0.43", "-1.35"),
)


def _test_function(n):
    rng = random.Random(20070705)
    return [mpmath.mpc(rng.uniform(0.5, 1.5), rng.uniform(-1, 1)) for _ in range(n)]


def operator_signature(*trees):
    """Series of each tree applied to the test function, at every parameter set."""
    n = max(_x_degree(t) for t in trees) + _KEEP
    out = []
    with mpmath.workdps(REF_DPS):
        f = _test_function(n)
        for params in _PARAMS:
            model = _Model(*(mpmath.mpf(v) for v in params), n)
            out.append([model.apply(t, f)[:_KEEP] for t in trees])
    return out


def same_operator(text_a: str, text_b: str) -> bool:
    """True when two operator texts denote the same element of the algebra."""
    a, b = read_operator(text_a), read_operator(text_b)
    for sig_a, sig_b in operator_signature(a, b):
        with mpmath.workdps(REF_DPS):
            scale = max([mpmath.mpf(1)] + [abs(v) for v in sig_a + sig_b])
            if any(abs(u - v) > scale * mpmath.mpf(10) ** (8 - REF_DPS) for u, v in zip(sig_a, sig_b)):
                return False
    return True


def commutator_text(a: str, b: str) -> str:
    return f"({a})*({b}) - ({b})*({a})"
