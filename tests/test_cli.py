"""Command-line surface: goldens, exit codes, schemas, determinism."""

import doctest
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlorentz
from qlorentz import cli, errors, propagator

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def _child_env():
    """The environment of a fresh interpreter that imports the same qlorentz as this process."""
    src = os.path.dirname(os.path.dirname(qlorentz.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*argv, timeout=120):
    """A fresh interpreter that imports the same qlorentz as this process, installed or not."""
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_child_env(),
    )


def run_process(*args):
    """Subprocess invocation, for argparse-level and byte-level checks."""
    return run_python("-m", "qlorentz.cli", *args)


# Runs each argv in sys.argv[2:] (JSON lists) through cli.main in one fresh
# interpreter, numpy blocked if sys.argv[1] == "block", and prints the
# outputs and the heavy numeric libraries left loaded, as JSON.
_CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import qlorentz, qlorentz.cli
runs = []
for argv in map(json.loads, sys.argv[2:]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qlorentz.cli.main(argv)
    runs.append([code, out.getvalue()])
loaded = [m for m in ("numpy", "mpmath") if sys.modules.get(m) is not None]
print(json.dumps({"runs": runs, "loaded": loaded}))
"""

_LIGHT_COMMANDS = [
    ["normalize", "x"],
    ["commutator", "x", "t"],
    ["verify"],
    ["propagator", "--t", "0.3", "--x", "2.5", "--method", "bessel"],
    ["scan", "--z-min", "0.1", "--z-max", "5", "--steps", "5"],
    ["scan", "--z-min", "0.1", "--z-max", "5", "--steps", "5", "--format", "json"],
]


def run_child(mode, commands):
    proc = run_python("-c", _CHILD, mode, *map(json.dumps, commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportDiet:
    """numpy is not a runtime dependency; mpmath loads only for the quadrature."""

    def test_light_commands_load_neither(self):
        child = run_child("open", _LIGHT_COMMANDS)
        assert [code for code, _ in child["runs"]] == [0] * len(_LIGHT_COMMANDS)
        assert child["loaded"] == []

    def test_every_command_runs_without_numpy(self):
        commands = _LIGHT_COMMANDS + [
            ["propagator", "--t", "0.3", "--x", "2.5", "--method", "both"],
            ["propagator", "--t", "0", "--x", "1", "--method", "quadrature"],
        ]
        blocked = run_child("block", commands)
        assert blocked["runs"] == run_child("open", commands)["runs"]
        assert blocked["loaded"] == ["mpmath"]

    def test_cli_import_loads_no_dataclasses(self):
        # against a bare interpreter, so that the environment's own .pth imports do not count
        listing = "import sys{}; print(*sys.modules)"
        bare = set(run_python("-c", listing.format("")).stdout.split())
        loaded = set(run_python("-c", listing.format(", qlorentz.cli")).stdout.split())
        assert "qlorentz.cli" in loaded
        assert not {"dataclasses", "inspect"} & (loaded - bare)

    @staticmethod
    def _loaded_by_light_commands():
        """The modules the light commands load past a bare interpreter's."""
        bare = set(run_python("-c", "import sys; print(*sys.modules)").stdout.split())
        code = (
            "import contextlib, io, sys, qlorentz.cli\n"
            f"for argv in {_LIGHT_COMMANDS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert qlorentz.cli.main(argv) == 0\n"
            "print(*sys.modules)\n"
        )
        got = run_python("-c", code)
        assert got.returncode == 0, got.stderr
        loaded = set(got.stdout.split())
        assert "qlorentz.propagator" in loaded
        return loaded - bare

    def test_only_json_output_loads_json(self):
        # json and statistics load where they are used: verify --format json
        # and falloff_fit; scan writes its JSON text itself
        assert not {"json", "statistics"} & self._loaded_by_light_commands()

    def test_light_commands_load_no_fractions(self):
        # exact rationals are ints and expr.Rational; only the quadrature's
        # node tables import fractions (and with it decimal and numbers)
        assert not {"fractions", "decimal", "numbers"} & self._loaded_by_light_commands()


class TestVerify:
    def test_full_suite(self):
        code, out, _ = run_cli("verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "13/13 verified"
        assert len(lines) == 14
        assert lines[0].startswith("T_eq6")

    def test_single_theorem(self):
        code, out, _ = run_cli("verify", "--theorem", "T_eq9")
        assert code == 0
        assert out.strip().splitlines()[-1] == "1/1 verified"

    def test_show_steps_order(self):
        code, out, _ = run_cli("verify", "--theorem", "T_eq11", "--show-steps")
        assert code == 0
        ids = [ln.split()[0] for ln in out.strip().splitlines()[:-1]]
        assert ids == ["T_a2", "T_a5", "T_a6", "T_a7", "T_eq11"]

    def test_unknown_theorem(self):
        code, _, err = run_cli("verify", "--theorem", "bogus")
        assert code == 2
        assert "bogus" in err

    def test_json_format(self):
        code, out, _ = run_cli("verify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["status"] == 0
        assert len(payload["results"]) == 13
        assert all(r["status"] == "verified" for r in payload["results"])
        assert all(r["residual"] == "0" for r in payload["results"])


class TestNormalize:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("p*x", "x*p - i*hbar"),
            ("H*H", "p^2*c^2 + m^2*c^4"),
        ],
    )
    def test_goldens(self, expr, expected):
        code, out, _ = run_cli("normalize", expr)
        assert code == 0
        assert out.strip() == expected

    def test_parse_error(self):
        code, _, err = run_cli("normalize", "x*(")
        assert code == 2
        assert "offset 3" in err

    def test_deep_nesting_is_a_parse_error(self):
        code, out, err = run_cli("normalize", "(" * 400 + "x" + ")" * 400)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "expr",
        ["x^²", "9" * 5000, "10^5000", "2^20000", "p^-{0}*p^-{0}".format("9" * 4300)],
        ids=["superscript-digit", "5000-digit-literal", "10^5000", "2^20000", "4301-digit-exponent"],
    )
    def test_unreadable_or_unprintable_input_exits_2(self, expr):
        code, out, err = run_cli("normalize", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_exponent_is_refused_at_once(self):
        # a power of n takes n - 1 products; past the bound it takes none,
        # and the message does not echo the 3000-digit exponent
        result = run_python("-m", "qlorentz.cli", "normalize", "p^" + "9" * 3000, timeout=20)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "10000" in result.stderr and len(result.stderr) < 200


class TestCommutator:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("x", "p", "i*hbar"),
            ("H", "t", "0"),
            ("H^2", "x", "-2*i*hbar*c^2*p"),
        ],
    )
    def test_goldens(self, a, b, expected):
        code, out, _ = run_cli("commutator", a, b)
        assert code == 0
        assert out.strip() == expected


class TestPropagator:
    def test_both_methods(self):
        code, out, _ = run_cli(
            "propagator", "--t", "0", "--x", "1", "--lambda-bar", "1",
            "--method", "both",
        )
        assert code == 0
        fields = dict(
            ln.split(" = ", 1) for ln in out.strip().splitlines()
        )
        gamma_re = float(fields["gamma_bessel"].split(" + ")[0])
        assert abs(gamma_re - 0.067008120508) < 1e-9
        assert float(fields["rel_discrepancy"]) <= 1e-6
        assert fields["class_eq2"] == "spacelike_nonnegligible"
        assert fields["class_eq13"] == "spacelike_negligible"

    def test_eq13_boundary_point(self):
        code, out, _ = run_cli(
            "propagator", "--t", "0", "--x", "0.5", "--lambda-bar", "1"
        )
        assert code == 0
        assert "class_eq13 = spacelike_nonnegligible" in out

    def test_timelike_rejected(self):
        code, _, err = run_cli(
            "propagator", "--t", "2", "--x", "1", "--lambda-bar", "1"
        )
        assert code == 2
        assert "spacelike" in err

    @pytest.mark.parametrize("t,x", [("nan", "1"), ("1", "nan"), ("inf", "inf")])
    def test_no_interval_refused(self, t, x):
        code, out, err = run_cli("propagator", "--t", t, "--x", x)
        assert code == 2
        assert out == ""
        assert "has no interval" in err

    @pytest.mark.parametrize("lambda_bar", ["0", "-1", "nan"])
    def test_lambda_bar_must_be_positive(self, lambda_bar):
        code, _, err = run_cli(
            "propagator", "--t", "0", "--x", "1", "--lambda-bar", lambda_bar
        )
        assert code == 2
        assert "lambda-bar must be positive" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--units", "si", "--mass", "inf"), "error: mass must be positive and finite, got inf"),
            (("--lambda-bar", "inf"), "error: lambda-bar must be positive and finite, got inf"),
            # a lambda-bar past the normal doubles; a derived one names its mass, not a flag never given
            (
                ("--units", "si", "--mass", "5e-324"),
                "error: lambda-bar of the mass 5e-324 MeV/c^2 must be positive and finite, got inf",
            ),
            (
                ("--units", "si", "--mass", "1e300", "--x", "1e-310"),
                "error: lambda-bar of the mass 1e+300 MeV/c^2 must be a normal double, "
                "at least 2.2250738585072014e-308, got 1.973269804e-313",
            ),
            (
                ("--lambda-bar", "1e-320"),
                "error: lambda-bar must be a normal double, at least 2.2250738585072014e-308, got 1e-320",
            ),
        ],
        ids=["mass", "lambda-bar", "mass-overflows", "mass-subnormal", "lambda-bar-subnormal"],
    )
    def test_infinite_mass_or_lambda_bar_refused(self, flags, message):
        code, out, err = run_cli("propagator", "--t", "0", "--x", "1", *flags)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [message]

    def test_si_units_with_mass(self):
        code, out, _ = run_cli(
            "propagator", "--t", "0", "--x", "3.8615926796e-13",
            "--mass", "0.51099895069", "--units", "si",
        )
        assert code == 0
        fields = dict(ln.split(" = ", 1) for ln in out.strip().splitlines())
        # one electron Compton wavelength out: xi = 1
        assert abs(float(fields["xi"]) - 1.0) < 1e-7

    def test_unit_flag_conflicts(self):
        code, _, _ = run_cli(
            "propagator", "--t", "0", "--x", "1",
            "--lambda-bar", "1", "--mass", "1",
        )
        assert code == 2
        code, _, _ = run_cli("propagator", "--t", "0", "--x", "1", "--units", "si")
        assert code == 2
        code, _, _ = run_cli("propagator", "--t", "0", "--x", "1", "--mass", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "method,amplitude_line",
        [
            ("bessel", "gamma_bessel = 0.0101377765323 + 0*i"),
            ("quadrature", "gamma_quadrature = 0.0101377765323 + 0*i"),
        ],
    )
    def test_golden(self, method, amplitude_line):
        code, out, err = run_cli("propagator", "--t", "0.3", "--x", "2.5", "--method", method)
        assert (code, err) == (0, "")
        assert out == (
            "tau = 0.3\n"
            "xi = 2.5\n"
            "z = 2.4819347292\n"
            "interval_over_lambdabar2 = -6.16\n"
            f"{amplitude_line}\n"
            "prob = 0.000102774513019\n"
            "class_eq2 = spacelike_negligible\n"
            "class_eq13 = spacelike_negligible\n"
        )

    def test_golden_far_spacelike(self):
        # both routes agree to the last printed digit at e^-200
        code, out, err = run_cli("propagator", "--t", "0", "--x", "200", "--method", "both")
        assert (code, err) == (0, "")
        assert out == (
            "tau = 0\n"
            "xi = 200\n"
            "z = 200\n"
            "interval_over_lambdabar2 = -40000\n"
            "gamma_bessel = 1.9507334574e-89 + 0*i\n"
            "gamma_quadrature = 1.9507334574e-89 + 0*i\n"
            "rel_discrepancy = 0\n"
            "prob = 3.80536102182e-178\n"
            "class_eq2 = spacelike_negligible\n"
            "class_eq13 = spacelike_negligible\n"
        )

    @pytest.mark.parametrize(
        "method,refusal",
        [
            ("bessel", "k0(800)"),
            ("quadrature", "k0_oscillatory(800)"),
            ("both", "k0(800)"),
        ],
    )
    def test_refusal_names_the_first_route(self, method, refusal):
        code, out, err = run_cli("propagator", "--t", "0", "--x", "800", "--method", method)
        assert (code, out) == (2, "")
        assert err == f"error: {refusal} underflows double precision\n"

    def test_overflowing_squares_refused_as_underflow(self):
        code, out, err = run_cli("propagator", "--t", "1e200", "--x", "2e200")
        assert code == 2
        assert out == ""
        assert "underflows double precision" in err

    def test_nonconvergence_exit_code(self, monkeypatch):
        monkeypatch.setattr("qlorentz.propagator._CHECK_TOL", 0.0)
        code, _, err = run_cli(
            "propagator", "--t", "0", "--x", "1", "--method", "quadrature"
        )
        assert code == 3
        assert "self-check" in err

    def test_rule_check_refusal_names_its_drift(self, monkeypatch):
        monkeypatch.setattr("qlorentz.propagator._GAUSS_DEGREE", 2)
        code, out, err = run_cli(
            "propagator", "--t", "0", "--x", "200", "--method", "quadrature"
        )
        assert (code, out) == (3, "")
        assert "rule=G6K13" in err and "rule_drift=" in err


_ERRORS = [
    (errors.ParseError("bad", 0), 2),
    (errors.ExprError("bad"), 2),
    (errors.UnknownTheorem("bad"), 2),
    (errors.SpeedDomain("bad"), 2),
    (errors.InvalidFrame("bad"), 2),
    (errors.NonpositiveMass("bad"), 2),
    (errors.DomainError("bad"), 2),
    (errors.NotSpacelike("bad"), 2),
    (errors.UnderflowToZero("bad"), 2),
    (errors.NonConvergence("bad", z=1.0), 3),
]


class TestExitCodes:
    def test_table_covers_every_error_type(self):
        assert {type(exc) for exc, _ in _ERRORS} == set(errors.QLorentzError.__subclasses__())

    @pytest.mark.parametrize("exc,code", _ERRORS, ids=[type(e).__name__ for e, _ in _ERRORS])
    def test_error_maps_to_exit_code(self, monkeypatch, exc, code):
        def raise_it(*args):
            raise exc

        monkeypatch.setattr(cli, "parse", raise_it)
        got, out, err = run_cli("normalize", "x")
        assert (got, out) == (code, "")
        assert err == f"error: {exc}\n"


class TestScan:
    def test_csv_schema(self):
        code, out, _ = run_cli(
            "scan", "--z-min", "0.1", "--z-max", "3", "--steps", "30",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 31
        assert lines[0] == (
            "z,interval_over_lambdabar2,gamma_re,gamma_im,prob,class_eq2,class_eq13"
        )
        row_one = next(ln for ln in lines[1:] if ln.startswith("1,"))
        cells = row_one.split(",")
        assert cells[5] == "spacelike_nonnegligible"
        assert cells[6] == "spacelike_negligible"

    def test_json_matches_csv_records(self):
        kwargs = ("--z-min", "0.5", "--z-max", "1", "--steps", "2")
        _, csv_out, _ = run_cli("scan", *kwargs)
        _, json_out, _ = run_cli("scan", *kwargs, "--format", "json")
        records = json.loads(json_out)
        rows = [ln.split(",") for ln in csv_out.strip().splitlines()[1:]]
        assert len(records) == len(rows) == 2
        for rec, row in zip(records, rows):
            assert rec["z"] == float(row[0])
            assert rec["prob"] == float(row[4])
            assert rec["class_eq2"] == row[5]

    def test_json_golden(self):
        code, out, _ = run_cli("scan", "--z-min", "0.5", "--z-max", "1", "--steps", "2", "--format", "json")
        assert code == 0
        assert out == """[
  {
    "z": 0.5,
    "interval_over_lambdabar2": -0.25,
    "gamma_re": 0.147125864674,
    "gamma_im": 0.0,
    "prob": 0.0216460200562,
    "class_eq2": "spacelike_nonnegligible",
    "class_eq13": "spacelike_nonnegligible"
  },
  {
    "z": 1.0,
    "interval_over_lambdabar2": -1.0,
    "gamma_re": 0.0670081205085,
    "gamma_im": 0.0,
    "prob": 0.00449008821408,
    "class_eq2": "spacelike_nonnegligible",
    "class_eq13": "spacelike_negligible"
  }
]
"""

    @staticmethod
    def assert_json_is_csv_dumped(*grid):
        """The JSON text is json.dumps of the CSV's records, the numbers as printed."""
        code, csv_out, _ = run_cli("scan", *grid)
        assert code == 0
        cells = [line.split(",") for line in csv_out.splitlines()[1:]]
        want = json.dumps([dict(zip(cli._FIELDS, (*map(float, c[:5]), *c[5:]))) for c in cells], indent=2) + "\n"
        assert run_cli("scan", *grid, "--format", "json") == (0, want, "")
        return want

    @settings(max_examples=100, deadline=None)
    @given(
        ends=st.lists(
            st.floats(min_value=0.0, max_value=propagator.Z_UNDERFLOW, exclude_min=True),
            min_size=2,
            max_size=2,
            unique=True,
        ),
        steps=st.integers(2, 60),
    )
    def test_json_is_the_csv_dumped(self, ends, steps):
        z_min, z_max = sorted(ends)
        self.assert_json_is_csv_dumped("--z-min", repr(z_min), "--z-max", repr(z_max), "--steps", str(steps))

    @pytest.mark.parametrize(
        "z_min,z_max,steps,line",
        [
            ("1e-320", "2e-320", "500", '"interval_over_lambdabar2": 0.0,'),  # s is -0.0
            ("340", "400", "300", '"prob": 0.0,'),  # (K0/2pi)^2 underflows
            ("600", "700", "300", '"z": 700.0,'),
        ],
        ids=["subnormal", "prob-underflow", "domain-end"],
    )
    def test_json_is_the_csv_dumped_on_edge_grids(self, z_min, z_max, steps, line):
        want = self.assert_json_is_csv_dumped("--z-min", z_min, "--z-max", z_max, "--steps", steps)
        assert f"    {line}\n" in want

    def test_bad_range(self):
        code, _, _ = run_cli("scan", "--z-min", "3", "--z-max", "1", "--steps", "5")
        assert code == 2

    def test_infinite_range_refused(self):
        got = run_cli("scan", "--z-min", "1", "--z-max", "inf", "--steps", "3")
        assert got == (2, "", "error: need 0 < z_min < z_max, got [1.0, inf]\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_underflow_refused_before_any_output(self, fmt):
        got = run_cli("scan", "--z-min", "1", "--z-max", "800", "--steps", "1000", "--format", fmt)
        assert got == (2, "", "error: k0(700.025) underflows double precision\n")

    def test_underflow_refused_at_once_on_a_huge_grid(self):
        # a walk over 10^12 grid points to the first one past the bound
        # would take hours
        argv = ("scan", "--z-min", "1", "--z-max", "800", "--steps", "1000000000000")
        got = run_python("-m", "qlorentz.cli", *argv, timeout=20)
        assert (got.returncode, got.stdout) == (2, "")
        assert got.stderr == "error: k0(700) underflows double precision\n"

    @pytest.mark.parametrize("z_max", ["2", "800"])
    def test_steps_past_the_largest_double_refused(self, z_max):
        # 10^400 - 1 grid intervals do not convert to a float
        argv = ("scan", "--z-min", "1", "--z-max", z_max, "--steps", "1" + "0" * 400)
        got = run_python("-m", "qlorentz.cli", *argv, timeout=20)
        assert (got.returncode, got.stdout) == (2, "")
        assert got.stderr == "error: need steps - 1 <= 1.7976931348623157e+308, the largest double\n"

    @pytest.mark.parametrize(
        "argv,sha256",
        [
            (
                ["--z-min", "0.02", "--z-max", "400", "--steps", "25000"],
                "97540fb4024528fbb25753d2030314540f0016d891e529734b494840c14b2015",
            ),
            (
                ["--z-min", "0.02", "--z-max", "400", "--steps", "2500", "--format", "json"],
                "26258aae1f14c8fce044804576521e7e9e27ba0c50389c79f323722236add9c6",
            ),
            (
                ["--z-min", "1e-320", "--z-max", "2e-320", "--steps", "5000"],
                "b993b863e59701702afc7179e4700d90dfbf3a719cd05c6a381eaf1901edcb39",
            ),
        ],
        ids=["csv-25000", "json-2500", "csv-subnormal"],
    )
    def test_pinned_stdout(self, argv, sha256):
        code, out, _ = run_cli("scan", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestOnePassPerPoint:
    """Each amplitude subcommand forms the interval once per spacetime point."""

    @pytest.fixture
    def interval_calls(self, monkeypatch):
        calls = []
        real = propagator._interval

        def counted(tau, xi):
            calls.append((tau, xi))
            return real(tau, xi)

        monkeypatch.setattr(propagator, "_interval", counted)
        return calls

    def test_scan(self, interval_calls):
        for fmt in ("csv", "json"):
            interval_calls.clear()
            code, _, _ = run_cli("scan", "--z-min", "0.1", "--z-max", "3", "--steps", "30", "--format", fmt)
            assert code == 0
            assert len(interval_calls) == 30

    def test_propagator(self, interval_calls):
        code, _, _ = run_cli("propagator", "--t", "0.3", "--x", "2.5", "--method", "bessel")
        assert code == 0
        assert interval_calls == [(0.3, 2.5)]


def _readme_examples():
    """[argv, expected stdout] for every ``$ qlorentz ...`` line in README.md."""
    examples = []
    for block in README.read_text().split("```")[1::2]:
        in_example = False
        for line in block.splitlines(keepends=True):
            if line.startswith("$ "):
                examples.append([shlex.split(line[2:]), ""])
                in_example = True
            elif in_example:
                examples[-1][1] += line
    return examples


_README_EXAMPLES = _readme_examples()


class _FencedText(doctest.DocTestParser):
    """README's ``>>>`` examples; a closing code fence ends the expected output."""

    def parse(self, string, name="<string>"):
        return super().parse(re.sub(r"(?m)^```.*$", "", string), name)


class TestReadme:
    def test_library_examples(self):
        result = doctest.testfile(str(README), module_relative=False, parser=_FencedText())
        assert result == (0, 8)

    def test_examples_found(self):
        assert len(_README_EXAMPLES) == 5
        assert all(argv[0] == "qlorentz" for argv, _ in _README_EXAMPLES)

    @pytest.mark.parametrize(
        "argv,expected", _README_EXAMPLES, ids=[" ".join(argv[1:]) for argv, _ in _README_EXAMPLES]
    )
    def test_example_output(self, argv, expected):
        code, out, _ = run_cli(*argv[1:])
        assert code == 0
        assert out == expected


class TestProcessLevel:
    def test_byte_identical_runs(self):
        args = ("scan", "--z-min", "0.1", "--z-max", "3", "--steps", "30")
        first = run_process(*args)
        second = run_process(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_verify_byte_identical(self):
        first = run_process("verify")
        second = run_process("verify")
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_argparse_rejects_unknown_flag(self):
        proc = run_process("scan", "--bogus", "1")
        assert proc.returncode == 2

    def test_missing_subcommand(self):
        proc = run_process()
        assert proc.returncode == 2

    @pytest.mark.parametrize("fmt,first", [("csv", b"z,"), ("json", b"[\n")], ids=["csv", "json"])
    def test_closed_pipe_exits_quietly(self, fmt, first):
        """A reader that stops early gets 141 (128 + SIGPIPE) and no traceback."""
        argv = ["scan", "--z-min", "0.1", "--z-max", "5", "--steps", "20000", "--format", fmt]
        proc = subprocess.Popen(
            [sys.executable, "-m", "qlorentz.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        assert proc.stdout.readline().startswith(first)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_json_scan_streams(self):
        # VmHWM, not ru_maxrss: on Linux a child's ru_maxrss starts at the
        # high-water mark of the process that forked it, this test's included
        code = (
            "import contextlib, os, sys, qlorentz.cli\n"
            "argv = ['scan', '--z-min', '0.1', '--z-max', '5', '--steps', '200000', '--format', sys.argv[1]]\n"
            "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
            "    assert qlorentz.cli.main(argv) == 0\n"
            "with open('/proc/self/status') as status:\n"
            "    print(next(int(ln.split()[1]) for ln in status if ln.startswith('VmHWM:')))\n"
        )
        peak_kb = {}
        for fmt in ("csv", "json"):
            got = run_python("-c", code, fmt)
            assert got.returncode == 0, got.stderr
            peak_kb[fmt] = int(got.stdout)
        assert peak_kb["json"] - peak_kb["csv"] <= 5 * 1024, peak_kb

    def test_complex_formatting(self):
        proc = run_process(
            "propagator", "--t", "0.6", "--x", "1", "--lambda-bar", "1"
        )
        assert proc.returncode == 0
        gamma_line = next(
            ln for ln in proc.stdout.splitlines() if ln.startswith("gamma_bessel")
        )
        assert gamma_line.endswith(" + 0*i")
