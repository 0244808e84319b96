"""Spans around calls into qlorentz's public functions, from outside it.

``install`` swaps each target function (or method) for a wrapper that
opens a span, calls the original and closes the span, in every loaded
qlorentz module that holds a reference to it; ``uninstall`` puts the
originals back.  Spans stay in memory: per-name call counts and times
are folded in as each span closes, and the first ``keep`` spans are kept
whole for reading.  Observers keep the arguments and results of the
first ``KEEP_RECORDS`` calls of a few functions for the per-layer
checks.  Nothing in the package changes.

A span's self time is its duration minus the durations of its direct
child spans.  ``outer`` time counts a span only when no span of the same
name encloses it, so recursion (``normal_form``) is not counted twice.
"""

from __future__ import annotations

import sys
import time

KEEP_RECORDS = 100_000  # observed calls kept per function


class Tracer:
    def __init__(self, clock=time.perf_counter, keep: int = 20_000):
        self.clock = clock
        self.keep = keep
        self.op = None  # index of the workload operation in progress
        self.stats: dict[str, list] = {}  # name -> [calls, outer_s, self_s]
        self.spans: list[tuple] = []  # (op, id, parent id, name, start, end)
        self.records: dict[str, list] = {}  # name -> observed arguments/results
        self.counts: dict[str, int] = {}  # name -> observed events
        self._stack: list[list] = []  # open spans: [name, start, child_s, id]
        self._open: dict[str, int] = {}
        self._next_id = 0

    def enter(self, name: str) -> list:
        self._next_id += 1
        self._open[name] = self._open.get(name, 0) + 1
        frame = [name, self.clock(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        name, start, child, sid = frame
        self._stack.pop()  # spans close in the order they opened
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[2] += dur - child
        self._open[name] -= 1
        if not self._open[name]:
            st[1] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < self.keep:
            self.spans.append((self.op, sid, parent[3] if parent else 0, name, start, end))

    def record(self, name: str, *values) -> None:
        """Keep observed arguments/results of the first ``KEEP_RECORDS`` calls."""
        rows = self.records.setdefault(name, [])
        if len(rows) < KEEP_RECORDS:
            rows.append(values)

    def tally(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def outer_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def merge(self, other: dict) -> None:
        """Add another tracer's ``payload()`` (from a traced child process)."""
        for name, (calls, outer, own) in other["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += outer
            st[2] += own
        for name, n in other["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        for name, rows in other["records"].items():
            for row in rows:
                self.record(name, *row)

    def payload(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "records": self.records, "spans": self.spans}


def _wrap(tracer: Tracer, name: str, fn, observe):
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.exit(frame)
            if observe is not None:
                observe(tracer, args, None, exc)
            raise
        tracer.exit(frame)
        if observe is not None:
            observe(tracer, args, result, None)
        return result

    traced.__wrapped__ = fn
    return traced


# --- observers: keep what the per-layer checks need -----------------------


def _obs_k0(tracer, args, result, exc):
    if exc is None:
        z = float(args[0])
        kernels = sys.modules["qlorentz._kernels"]
        branch = "series" if z <= kernels.Z_SERIES_MAX else "bridge" if z < kernels.Z_ASYM_MIN else "asymptotic"
        tracer.tally("kernels." + branch)  # the kernel's own split points
        tracer.record("kernels.k0", z, result)


def _obs_classify(tracer, args, result, exc):
    if exc is None:
        tracer.record("propagator.classify_interval", float(args[0]), float(args[1]), args[2].value, result.value)


def _obs_oscillatory(tracer, args, result, exc):
    tracer.record("propagator.k0_oscillatory", float(args[0]), result, type(exc).__name__ if exc else None)


def _obs_spacelike(tracer, args, result, exc):
    tracer.record("propagator.spacelike_z", float(args[0]), float(args[1]), result)


def _obs_theorem(tracer, args, result, exc):
    tracer.record("theorems.run_theorem", result.status if exc is None else "raised")


def _obs_to_text(tracer, args, result, exc):
    tracer.record("algebra.to_text", len(args[0].terms))


# (module, attribute, span name, observer).  One entry per public function
# whose time or count a per-layer metric reports.
TARGETS = (
    ("qlorentz.cli", "main", "cli.main", None),
    ("qlorentz.expr", "parse", "expr.parse", None),
    ("qlorentz.theorems", "run_theorem", "theorems.run_theorem", _obs_theorem),
    ("qlorentz.algebra", "normal_form", "algebra.normal_form", None),
    ("qlorentz.algebra", "commutator", "algebra.commutator", None),
    ("qlorentz.algebra", "NormalForm.__mul__", "algebra.mul", None),
    ("qlorentz.algebra", "NormalForm.to_text", "algebra.to_text", _obs_to_text),
    ("qlorentz.rational", "Coeff.__add__", "rational.coeff_add", None),
    ("qlorentz.rational", "Coeff.__mul__", "rational.coeff_mul", None),
    ("qlorentz.rational", "Coeff.times_poly", "rational.coeff_mul", None),
    ("qlorentz.rational", "Coeff.scale", "rational.coeff_mul", None),
    ("qlorentz.rational", "Coeff.__neg__", "rational.coeff_other", None),
    ("qlorentz.rational", "Coeff.diff_p", "rational.coeff_other", None),
    ("qlorentz.rational", "Coeff.times_p_over_shell", "rational.coeff_other", None),
    ("qlorentz._kernels", "k0", "kernels.k0", _obs_k0),
    ("qlorentz.propagator", "k0", "propagator.k0", None),
    ("qlorentz.propagator", "spacelike_z", "propagator.spacelike_z", _obs_spacelike),
    ("qlorentz.propagator", "gamma_bessel", "propagator.gamma_bessel", None),
    ("qlorentz.propagator", "gamma_quadrature", "propagator.gamma_quadrature", None),
    ("qlorentz.propagator", "k0_oscillatory", "propagator.k0_oscillatory", _obs_oscillatory),
    ("qlorentz.propagator", "classify_interval", "propagator.classify_interval", _obs_classify),
    ("qlorentz.propagator", "point_at", "propagator.point_at", None),
    ("qlorentz.propagator", "scan", "propagator.scan", None),
    ("qlorentz.propagator", "falloff_fit", "propagator.falloff_fit", None),
)


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the undo list for ``uninstall``."""
    undo = []
    modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "qlorentz" or n.startswith("qlorentz."))]
    for modname, attr, name, observe in TARGETS:
        owner = sys.modules.get(modname)
        if owner is None:  # not imported by this workload
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, name, original, observe))
            undo.append((cls, meth, original))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, name, original, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
