"""Seeded input generators, one per workload.

Each generator returns ``(ops, meta)``: ``ops`` is the list the program
receives (and nothing else), ``meta`` holds, per op, what the checks need
to know about how the input was made (its kind, the intended z).  The
same seed gives the same lists.  Lists are longer than any run needs; a
run that outlasts one wraps around.  The crosscheck list is one pass,
and a crosscheck run does that pass once (see MAX_BLOCKS).
"""

from __future__ import annotations

import math
import random

from reference import exact_s

# Why each workload exists, recorded with every result.
REASONS = {
    "cli": "what a command-line user pays per call: interpreter start and imports dominate, so a lazy-import change shows here",
    "algebra": "exact normal forms in-process, where Fraction arithmetic and NormalForm.__mul__ do almost all the work and the kernels none",
    "scan": "bulk tabulation of the amplitude, where the K0 kernel, point_at, classification and .12g formatting share the time",
    "crosscheck": "both amplitude routes one point at a time over the whole advertised z domain, including large rapidity and the light cone",
}

# Smallest number of latency samples a run collects before it may stop,
# so that the tail percentile (see stats.tail_percentile) is fixed per
# workload and does not move with the program's speed.
MIN_SAMPLES = {"cli": 40, "algebra": 1000, "scan": 40, "crosscheck": 100}

# A run stops only after a whole number of these blocks of operations:
# the cli cycle, the algebra round, the crosscheck pass (see
# crosscheck_ops).  Each block has a fixed composition, so the mix a run
# measures does not depend on where the time ran out.
BLOCK = {"cli": 10, "algebra": 42, "scan": 1, "crosscheck": 240}

# The most blocks a run may do.  A crosscheck run does exactly one pass,
# however fast the program is: a second pass would find the quadrature's
# per-precision caches warm (a repeated point is ~12% cheaper) and mix
# two regimes in one run.
MAX_BLOCKS = {"crosscheck": 1}

# The transformed observables of the paper, as the identity suite writes them.
XPRIME = "1/2*m^-1*c^-2*(H*x + x*H) - m^-1*t*p"
TPRIME = "m^-1*c^-2*(t*H - 1/2*(p*x + x*p))"

SUITE_IDS = (
    "T_eq6", "T_eq8", "T_eq9", "T_eq10", "T_eq7", "T_velocity", "T_a2",
    "T_a5", "T_a6", "T_a7", "T_eq11", "T_eq19", "T_eq20",
)

Z_MAX = 700.0  # the advertised domain of both amplitude routes is (0, 700]
Z_MIN_CROSS = 1e-4


# ---------------------------------------------------------------------------
# operator expressions


_LEAVES = ("x", "t", "p", "H", "hbar", "c", "m", "i", "p^-1", "H^-1", "x^2", "p^2", "1/2", "-3", "2/3")


def random_expr(rng: random.Random, depth: int = 2) -> str:
    """A small random expression text; sums are parenthesised."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_LEAVES)
    parts = [random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        signs = [rng.choice((" + ", " - ")) for _ in parts[1:]]
        body = parts[0] + "".join(s + p for s, p in zip(signs, parts[1:]))
        return "(" + body + ")"
    return "*".join(parts)


ALGEBRA_ROUNDS = 200


def algebra_ops(seed: int):
    """Rounds of 42 normal forms: the suite, powers of x' and t', mixed
    products and commutators of random trees.

    The round's composition is fixed so that its cost does not depend on
    the seed; the seed picks the mixed splits, the trees and the order.
    """
    rng = random.Random(seed)
    ops, meta = [], []
    for _ in range(ALGEBRA_ROUNDS):
        block = [{"kind": "theorem", "id": tid} for tid in SUITE_IDS]
        for k in range(1, 7):
            block.append({"kind": "normalize", "expr": f"({XPRIME})^{k}"})
            block.append({"kind": "normalize", "expr": f"({TPRIME})^{k}"})
        for k in range(2, 6):
            a = rng.randint(1, k - 1)
            block.append({"kind": "normalize", "expr": f"({XPRIME})^{a}*({TPRIME})^{k - a}"})
        block.append({"kind": "normalize", "expr": f"({XPRIME})^3*({TPRIME})^3"})
        for _ in range(12):
            block.append({"kind": "commutator", "a": random_expr(rng), "b": random_expr(rng)})
        rng.shuffle(block)
        ops.extend(block)
        meta.extend({} for _ in block)
    return ops, meta


# ---------------------------------------------------------------------------
# spacetime points


def _spacelike_pair(z: float, eta: float) -> tuple[float, float]:
    return z * math.sinh(eta), z * math.cosh(eta)


def _near_cone_pair(z: float, k: int) -> tuple[float, float]:
    """xi k ulps above tau, with tau chosen so the exact z is near z."""
    tau = z / math.sqrt(2.0 * k * 1.5 * 2.0**-52)
    xi = tau
    for _ in range(k):
        xi = math.nextafter(xi, math.inf)
    return tau, xi


def _exact_z(tau: float, xi: float) -> float:
    s = exact_s(tau, xi)
    return math.sqrt(s) if s > 0 else 0.0


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one in the middle half of each of n equal
    strata, shuffled."""
    u = [(k + 0.25 + 0.5 * rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def crosscheck_ops(seed: int):
    """One pass of 240 points with z log-uniform over (Z_MIN_CROSS, 700].

    Six in eight are ordinary (rapidity in [-2, 2]), one in eight sits at
    large rapidity (|eta| in [6, 16]) and one in eight 1 to 6 ulps off
    the light cone.  Each kind's log z, and the large rapidities, are
    stratified: one seeded point per equal stratum.  A few points near
    z = 700 cost as much as all the rest, so a run does the whole pass
    (see BLOCK and MAX_BLOCKS) and its mix does not depend on the seed.
    """
    rng = random.Random(seed)
    lo, hi = math.log(Z_MIN_CROSS), math.log(Z_MAX)
    kinds = ["rapidity" if i % 8 == 3 else "cone" if i % 8 == 7 else "ordinary" for i in range(BLOCK["crosscheck"])]
    ops, meta = [], []
    where = {kind: _strata(rng, kinds.count(kind)) for kind in ("ordinary", "rapidity", "cone")}
    etas = _strata(rng, kinds.count("rapidity"))
    for j, kind in enumerate(kinds):
        u = where[kind].pop()
        z = math.exp(lo + (hi - lo) * u)
        while True:
            if kind == "ordinary":
                tau, xi = _spacelike_pair(z, rng.uniform(-2.0, 2.0))
            elif kind == "rapidity":
                eta = 6.0 + 10.0 * etas[len(where[kind])]
                tau, xi = _spacelike_pair(z, eta if j % 16 == 3 else -eta)
            else:
                tau, xi = _near_cone_pair(z, 1 + len(where[kind]) % 6)
            # keep the exact z inside the advertised domain
            if 0.0 < _exact_z(tau, xi) <= Z_MAX:
                break
            z *= 0.9
        ops.append({"tau": tau, "xi": xi})
        meta.append({"kind": kind, "z": _exact_z(tau, xi)})
    return ops, meta


# ---------------------------------------------------------------------------
# bulk scans


SCAN_CALLS = 300
SCAN_STEPS = 25_000
FALLOFF_POINTS = 2_500


def scan_ops(seed: int):
    """One call per op: a scan over a seeded range that crosses both
    kernel splices (z = 2 and z = 14), then a falloff fit."""
    rng = random.Random(seed)
    ops = []
    for _ in range(SCAN_CALLS):
        ops.append({
            "z_min": rng.uniform(0.02, 1.5),
            "z_max": rng.uniform(30.0, 400.0),
            "steps": SCAN_STEPS,
            "falloff": [rng.uniform(1.0, 5.0), rng.uniform(50.0, 300.0), FALLOFF_POINTS],
        })
    return ops, [{} for _ in ops]


# ---------------------------------------------------------------------------
# command-line processes


CLI_CALLS = 400


def cli_ops(seed: int):
    """A fixed cycle of ten command lines over all five subcommands, with
    seeded arguments: suite ids, short expressions, propagator points
    (one in ten with --method both at small z) and scans of a few hundred
    steps."""
    rng = random.Random(seed)
    ops, meta = [], []

    def point(z_lo, z_hi):
        z = math.exp(rng.uniform(math.log(z_lo), math.log(z_hi)))
        return _spacelike_pair(z, rng.uniform(-1.5, 1.5))

    def scan_args(fmt):
        z_min = rng.uniform(0.05, 1.5)
        z_max = rng.uniform(15.0, 60.0)
        steps = rng.randint(200, 400)
        argv = ["scan", f"--z-min={z_min!r}", f"--z-max={z_max!r}", f"--steps={steps}"]
        if fmt == "json":
            argv.append("--format=json")
        return argv, {"z_min": z_min, "z_max": z_max, "steps": steps, "format": fmt}

    for i in range(CLI_CALLS):
        slot = i % 10
        info: dict = {}
        if slot == 0:
            argv = ["verify"]
        elif slot == 1:
            argv = ["verify", f"--theorem={rng.choice(SUITE_IDS)}"]
            if rng.random() < 0.5:
                argv.append("--show-steps")
            if rng.random() < 0.5:
                argv.append("--format=json")
        elif slot in (2, 7):
            info = {"expr": random_expr(rng)}
            argv = ["normalize", "--", info["expr"]]  # "--": an expression may start with "-"
        elif slot in (3, 8):
            info = {"a": random_expr(rng), "b": random_expr(rng)}
            argv = ["commutator", "--", info["a"], info["b"]]
        elif slot in (4, 5):
            both = slot == 5
            tau, xi = point(0.05, 3.0) if both else point(0.05, 40.0)
            method = "both" if both else "bessel"
            argv = ["propagator", f"--t={tau!r}", f"--x={xi!r}", f"--method={method}"]
            info = {"tau": tau, "xi": xi, "method": method}
        else:
            argv, info = scan_args("json" if slot == 9 else "csv")
        ops.append({"argv": argv})
        meta.append(info)
    return ops, meta


GENERATORS = {"cli": cli_ops, "algebra": algebra_ops, "scan": scan_ops, "crosscheck": crosscheck_ops}


def generate(workload: str, seed: int):
    return GENERATORS[workload](seed)
