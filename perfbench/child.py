"""The workload process: runs one workload's operations against qlorentz.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``.  It
reads one JSON line from stdin (the workload name, the run length and
the generated operations) and runs the operations in a closed loop, one
client, timing each one.  After each operation it writes the output as a
JSON line and waits for ``run.py`` to check it and answer, so checking
never overlaps a timed region.  It stops at the end of the first whole
block of operations (see workloads.BLOCK) by which the timed total has
reached the run length and the workload's minimum sample count is met,
after the workload's maximum number of blocks (workloads.MAX_BLOCKS), or
at ``CAP`` times the run length, whichever comes first.

With tracing on, it then runs the same operations again with spans
installed (see spans.py), for at most the same timed total, and once
more without, and reports per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120
CAP = 3  # a slow program ends the untraced pass at CAP * run length


class Channel:
    """JSON lines to run.py on the original stdout, answers from stdin.

    Whatever the program itself prints to stdout goes to stderr instead,
    so it cannot corrupt the protocol.
    """

    def __init__(self):
        sys.stdout.flush()
        self.out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
        os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    def send(self, msg: dict) -> None:
        self.out.write(json.dumps(msg) + "\n")
        self.out.flush()

    def wait_ack(self) -> None:
        if sys.stdin.readline().strip() != "ok":
            raise SystemExit("perfbench child: lost the checker")


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_process(argv, timeout: float, capture: bool = False, **popen_kw) -> subprocess.CompletedProcess:
    """Run a process to its end, timed by the caller.

    ``subprocess.run(timeout=...)`` polls for the exit with sleeps of up
    to 50 ms, which shows up as 50 ms steps in the timings.  Here the
    wait blocks, and a timer kills a process that outlives ``timeout``.
    """
    pipe = subprocess.PIPE if capture else None
    with subprocess.Popen(argv, stdout=pipe, stderr=pipe, text=True, **popen_kw) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


# ---------------------------------------------------------------------------
# One runner per workload.  run(spec) is the timed operation; describe(spec,
# raw) turns its result into JSON for the checks, outside the timed region;
# points(spec) is the number of operations one call counts for.


class Runner:
    @staticmethod
    def points(spec) -> int:
        return 1


class CliRunner(Runner):
    def __init__(self, traced: bool = False):
        self.traced = traced
        self._roundtrip: dict[str, bool] = {}

    def run(self, spec):
        head = [str(HERE / "tracecli.py")] if self.traced else ["-m", "qlorentz.cli"]
        return run_process([sys.executable, *head, *spec["argv"]], CLI_TIMEOUT_S, capture=True)

    def describe(self, spec, proc):
        out = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}
        if spec["argv"][0] in ("normalize", "commutator") and proc.returncode == 0:
            out["roundtrip"] = roundtrip(proc.stdout.strip(), self._roundtrip)
        return out


def roundtrip(text: str, cache: dict) -> bool:
    """to_text -> parse -> normal_form -> to_text reproduces the text."""
    if text not in cache:
        import qlorentz

        try:
            cache[text] = qlorentz.normal_form(qlorentz.parse(text)).to_text() == text
        except qlorentz.QLorentzError:
            cache[text] = False
    return cache[text]


class AlgebraRunner(Runner):
    def __init__(self):
        import qlorentz

        self.ql = qlorentz
        self._roundtrip: dict[str, bool] = {}

    def run(self, spec):
        ql = self.ql
        kind = spec["kind"]
        if kind == "theorem":
            rec = ql.run_theorem(spec["id"])
            return rec, rec.residual.to_text()
        if kind == "normalize":
            return None, ql.normal_form(ql.parse(spec["expr"])).to_text()
        return None, ql.commutator(ql.parse(spec["a"]), ql.parse(spec["b"])).to_text()

    def describe(self, spec, raw):
        rec, text = raw
        out = {"text": text, "roundtrip": roundtrip(text, self._roundtrip)}
        if rec is not None:
            out.update(status=rec.status, lhs=self.ql.print_expr(rec.lhs), rhs=self.ql.print_expr(rec.rhs))
        return out


class ScanRunner(Runner):
    def __init__(self):
        import qlorentz
        import qlorentz.cli

        self.ql = qlorentz

    @staticmethod
    def points(spec) -> int:
        return spec["steps"] + spec["falloff"][2]

    def run(self, spec):
        buf = io.StringIO()
        argv = ["scan", f"--z-min={spec['z_min']!r}", f"--z-max={spec['z_max']!r}", f"--steps={spec['steps']}"]
        with contextlib.redirect_stdout(buf):
            rc = self.ql.cli.main(argv)
        slope = self.ql.falloff_fit(*spec["falloff"])
        return rc, buf, slope

    def describe(self, spec, raw):
        rc, buf, slope = raw
        return {"rc": rc, "stdout": buf.getvalue(), "slope": slope}


class CrosscheckRunner(Runner):
    def __init__(self):
        import qlorentz

        self.ql = qlorentz

    def run(self, spec):
        ql = self.ql
        tau, xi = spec["tau"], spec["xi"]
        out = {}
        # each part runs even when another raised: one failure must not
        # hide another, and a refusal is an outcome to record
        for key, fn in (("bessel", ql.gamma_bessel), ("quad", ql.gamma_quadrature)):
            try:
                g = fn(tau, xi)
                out[key], out[key + "_imag"] = g.real, g.imag
            except Exception as exc:  # the op's outcome, counted as failed
                out[key + "_error"] = _error(exc)
        for key, crit in (("eq2", ql.ThresholdCriterion.AMPLITUDE_EQ2), ("eq13", ql.ThresholdCriterion.PROBABILITY_EQ13)):
            try:
                out[key] = ql.classify_interval(tau, xi, crit).value
            except Exception as exc:  # the op's outcome, counted as failed
                out[key + "_error"] = _error(exc)
        return out

    def describe(self, spec, raw):
        return raw


RUNNERS = {"cli": CliRunner, "algebra": AlgebraRunner, "scan": ScanRunner, "crosscheck": CrosscheckRunner}


def run_untraced(channel, runner, ops, seconds, min_samples, block, max_ops) -> list[float]:
    lat = []
    timed = 0.0
    while (
        (timed < seconds or len(lat) < min_samples or len(lat) % block)
        and timed < CAP * seconds
        and not (max_ops and len(lat) >= max_ops)
    ):
        i = len(lat)
        spec = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            raw = runner.run(spec)
            dt = time.perf_counter() - t0
            out = runner.describe(spec, raw)
        except Exception as exc:  # an op that raised is a failed op, not a crash
            dt = time.perf_counter() - t0
            out = {"error": _error(exc)}
        lat.append(dt)
        timed += dt
        channel.send({"i": i, "lat": dt, "points": runner.points(spec), "out": out})
        channel.wait_ack()
    return lat


def run_traced(workload, ops, n_untraced, seconds):
    """Rerun the untraced pass's operations with spans, for at most
    ``seconds`` of timed work, then the same operations once more without
    spans.  Both passes meet warm caches, so the overhead compares like
    with like.  Returns the tracer, the operations and points covered,
    and the tracing overhead."""
    import spans

    tracer = spans.Tracer()
    if workload == "cli":
        runner = CliRunner(traced=True)  # each process installs its own spans
        undo = []
    else:
        runner = RUNNERS[workload]()
        undo = spans.install(tracer)
    traced, points = [], 0
    try:
        for i in range(n_untraced):
            if sum(traced) >= seconds:
                break
            spec = ops[i % len(ops)]
            tracer.op = i
            t0 = time.perf_counter()
            try:
                raw = runner.run(spec)
            except Exception:  # failures were counted in the untraced pass
                raw = None
            traced.append(time.perf_counter() - t0)
            points += runner.points(spec)
            if workload == "cli" and raw is not None:
                _merge_child_trace(tracer, i, raw.stderr)
    finally:
        spans.uninstall(undo)
    plain = RUNNERS[workload]()
    again = 0.0
    for i in range(len(traced)):
        t0 = time.perf_counter()
        try:
            plain.run(ops[i % len(ops)])
        except Exception:  # failures were counted in the untraced pass
            pass
        again += time.perf_counter() - t0
    return tracer, len(traced), points, sum(traced) / again - 1.0


def _merge_child_trace(tracer, op: int, stderr: str) -> None:
    marker = "PERFBENCH_TRACE "
    for line in reversed(stderr.splitlines()):
        if line.startswith(marker):
            child = json.loads(line[len(marker):])
            tracer.merge(child)
            room = max(tracer.keep - len(tracer.spans), 0)
            tracer.spans.extend((op, *s[1:]) for s in child["spans"][:room])
            return


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main() -> None:
    channel = Channel()
    cfg = json.loads(sys.stdin.readline())
    workload, ops = cfg["workload"], cfg["ops"]
    lat = run_untraced(
        channel, RUNNERS[workload](), ops, cfg["seconds"], cfg["min_samples"], cfg["block"], cfg["max_ops"]
    )
    end = {"end": True, "peak_rss_mb": peak_rss_mb(workload)}
    if cfg["trace"]:
        import metrics

        tracer, n, points, overhead = run_traced(workload, ops, len(lat), cfg["seconds"])
        layers = metrics.per_layer(tracer, points)
        layers.update({"trace.overhead_share": overhead, "trace.ops": n})
        end.update(layers=layers, spans=tracer.spans, span_stats=tracer.stats)
    channel.send(end)


if __name__ == "__main__":
    main()
