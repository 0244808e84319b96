"""Identity suite and the classical transformation counterpart."""

import itertools
import math
import random
import sys

import pytest

from qlorentz.algebra import commutator, normal_form
from qlorentz.errors import (
    DomainError,
    InvalidFrame,
    NonpositiveMass,
    QLorentzError,
    SpeedDomain,
    UnknownTheorem,
)
from qlorentz.expr import parse
from qlorentz.theorems import (
    STEPS,
    SUITE,
    TPRIME,
    TPRIME_SYM,
    XPRIME,
    XPRIME_SYM,
    FrameState,
    lorentz_classical,
    lorentz_momentum_form,
    lorentz_operators,
    negative_branch_record,
    run_all,
    run_theorem,
    verify_identity,
)


class TestSuite:
    def test_all_thirteen_verify(self):
        records = run_all()
        assert [r.id for r in records] == list(SUITE)
        assert len(records) == 13
        assert all(r.status == "verified" for r in records)
        assert all(r.residual.is_zero() for r in records)

    def test_suite_order(self):
        assert SUITE == (
            "T_eq6",
            "T_eq8",
            "T_eq9",
            "T_eq10",
            "T_eq7",
            "T_velocity",
            "T_a2",
            "T_a5",
            "T_a6",
            "T_a7",
            "T_eq11",
            "T_eq19",
            "T_eq20",
        )

    def test_steps_reference_suite_members(self):
        for target, deps in STEPS.items():
            assert target in SUITE
            for d in deps:
                assert d in SUITE

    def test_unknown_id(self):
        with pytest.raises(UnknownTheorem):
            run_theorem("T_bogus")

    def test_perturbed_identity_reports_residual(self):
        # flip the sign of the expected side; residual doubles it
        status, residual = verify_identity(
            parse("H^2*x - x*H^2"), parse("2*i*hbar*p*c^2")
        )
        assert status == "failed"
        assert residual.to_text() == "-4*i*hbar*c^2*p"

    def test_negative_branch_also_verifies(self):
        rec = negative_branch_record()
        assert rec.id not in SUITE
        assert rec.status == "verified"

    def test_time_operator_forms_agree(self):
        # the primed time admits the same symmetrized rewrite as the
        # primed position does
        assert normal_form(parse(TPRIME)) == normal_form(parse(TPRIME_SYM))
        assert normal_form(parse(XPRIME)) == normal_form(parse(XPRIME_SYM))

    def test_primed_pair_commutator(self):
        xp, tp = lorentz_operators()
        got = commutator(xp, tp)
        want = normal_form(parse("-1/2*i*hbar*(H^-1*x + x*H^-1)"))
        assert got == want


# ---------------------------------------------------------------------------
# classical counterpart

_REL = 1e-12


def _rel_close(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale <= _REL


class TestClassical:
    def test_interval_preserved(self):
        rng = random.Random(2026)
        for _ in range(1000):
            t = rng.uniform(-5, 5)
            x = rng.uniform(-5, 5)
            v = rng.uniform(-0.99, 0.99)
            tp, xp = lorentz_classical(t, x, v)
            assert _rel_close(tp * tp - xp * xp, t * t - x * x)

    def test_momentum_form_matches_velocity_form(self):
        rng = random.Random(4091)
        for _ in range(1000):
            t = rng.uniform(-5, 5)
            x = rng.uniform(-5, 5)
            v = rng.uniform(-0.99, 0.99)
            m = rng.uniform(0.1, 10.0)
            frame = FrameState.from_velocity(m, v)
            t1, x1 = lorentz_classical(t, x, v)
            t2, x2 = lorentz_momentum_form(t, x, frame)
            assert _rel_close(t1, t2) and _rel_close(x1, x2)

    def test_frame_invariants(self):
        frame = FrameState.from_velocity(2.0, 0.6)
        gamma = 1.0 / math.sqrt(1 - 0.36)
        assert _rel_close(frame.E, 2.0 * gamma)
        assert _rel_close(frame.p, 2.0 * gamma * 0.6)

    def test_frame_is_a_value(self):
        frame = FrameState.from_velocity(2.0, 0.6)
        assert frame == FrameState.from_velocity(2.0, 0.6)
        assert frame == FrameState(*frame) == FrameState(**frame._asdict())
        assert hash(frame) == hash(FrameState.from_velocity(2.0, 0.6))
        assert frame != FrameState.from_velocity(2.0, 0.5)
        assert frame.c == 1.0
        assert frame._replace(m=4.0, E=2 * frame.E, p=2 * frame.p) == FrameState.from_velocity(4.0, 0.6)
        with pytest.raises(SpeedDomain):
            frame._replace(v=1.5)

    def test_speed_domain(self):
        with pytest.raises(SpeedDomain):
            lorentz_classical(0.0, 1.0, 1.0)
        with pytest.raises(SpeedDomain):
            FrameState.from_velocity(1.0, -1.5)

    def test_nonpositive_mass(self):
        with pytest.raises(NonpositiveMass):
            FrameState.from_velocity(0.0, 0.5)

    def test_inconsistent_frame(self):
        with pytest.raises(InvalidFrame):
            FrameState(v=0.5, E=1.0, p=0.9, m=1.0)

    def test_bad_light_speed(self):
        with pytest.raises(DomainError):
            FrameState.from_velocity(1.0, 0.0, c=0.0)

    @pytest.mark.parametrize(
        "field,error",
        [
            ("v", SpeedDomain),
            ("E", InvalidFrame),
            ("p", InvalidFrame),
            ("m", NonpositiveMass),
            ("c", DomainError),
        ],
    )
    def test_nan_field_is_refused(self, field, error):
        """Each check refuses NaN: it is written as "not valid", not as "invalid"."""
        fields = dict(v=0.0, E=1.0, p=0.0, m=1.0, c=1.0)
        fields[field] = math.nan
        with pytest.raises(error):
            FrameState(**fields)
        if field in ("v", "m", "c"):
            args = dict(m=1.0, v=0.5, c=1.0)
            args[field] = math.nan
            with pytest.raises(error):
                FrameState.from_velocity(**args)
        if field in ("v", "c"):
            with pytest.raises(error):
                lorentz_classical(1.0, 2.0, fields["v"], fields["c"])

    def test_galilean_limit_is_accepted(self):
        assert lorentz_classical(1.0, 2.0, 0.5, c=math.inf) == (1.0, 1.5)

    def test_rest_frame_is_identity(self):
        t, x = lorentz_classical(1.25, -0.75, 0.0)
        assert t == 1.25 and x == -0.75

    def test_extreme_scales_do_not_overflow(self):
        # E^2, p^2 c^2 and c^4 overflow here; the ratios the checks use do not
        frame = FrameState.from_velocity(1e160, 0.5)
        assert _rel_close(frame.E, 1e160 / math.sqrt(0.75))
        assert FrameState(0.0, 1e200, 0.0, 1e200).E == 1e200  # a rest frame
        frame = FrameState.from_velocity(1.0, 0.5e100, c=1e100)
        t, x = lorentz_momentum_form(1.0, 2.0, frame)
        assert _rel_close(t, 1.0 / math.sqrt(0.75)) and _rel_close(x, -0.5e100 / math.sqrt(0.75))
        # c^2 overflows: the finite Galilean limit, as for c = inf
        assert lorentz_classical(1.0, 1.0, 0.5, c=1e200) == (1.0, 0.5)
        # c^2 underflows to 0: v x / c^2 is (v / c) x / c
        t, x = lorentz_classical(1.0, 1.0, 0.5e-200, c=1e-200)
        assert _rel_close(t, (1.0 - 0.5e200) / math.sqrt(0.75)) and _rel_close(x, 1.0 / math.sqrt(0.75))

    def test_infinite_mass_or_energy_refused(self):
        with pytest.raises(NonpositiveMass, match="^mass must be positive and finite, got inf$"):
            FrameState.from_velocity(math.inf, 0.5)
        # an infinite E passed the shell check as inf <= inf
        with pytest.raises(InvalidFrame, match="off the mass shell"):
            FrameState(0.5, math.inf, 0.5, 1.0)
        with pytest.raises(InvalidFrame, match="off the mass shell"):
            FrameState.from_velocity(1.0, 0.5, c=1e200)  # m c^2 is past the doubles

    def test_boost_past_the_doubles_refused(self):
        with pytest.raises(DomainError, match="past the double range"):
            lorentz_classical(1e308, 0.0, 0.9)
        with pytest.raises(DomainError, match="past the double range"):
            lorentz_momentum_form(1e308, 0.0, FrameState.from_velocity(1.0, 0.9))

    def test_finite_inputs_give_finite_numbers_or_refuse(self):
        scales = [0.0, 5e-324, 1e-310, 1e-200, 0.5, 1.0, 3.0, 1e100, 1e160, 1e200, 1e300, sys.float_info.max]
        scales += [-s for s in scales]

        def outcome(f, *args):  # f's numbers, or () where it refuses
            try:
                return f(*args)
            except QLorentzError:
                return ()

        for m, c, frac in itertools.product(scales, scales, (0.0, -0.9, math.nextafter(1.0, 0.0))):
            v = frac * c
            frame = outcome(FrameState.from_velocity, m, v, c)
            numbers = list(frame)
            for t, x in ((1.0, 2.0), (1e300, -1e300)):
                numbers += outcome(lorentz_classical, t, x, v, c)
                if frame:
                    numbers += outcome(lorentz_momentum_form, t, x, frame)
            assert all(map(math.isfinite, numbers)), (m, v, c, numbers)
