"""Exact operator algebra for relativistic position/time operators, with a
numeric module for the spacelike propagation amplitude.

The symbolic side reduces words in x, t, p, H to a canonical normal form
under exact rational arithmetic; the numeric side evaluates the amplitude
two independent ways and classifies spacetime intervals against the
Compton-wavelength thresholds.
"""

from .algebra import (
    NormalForm,
    anticommutator,
    commutator,
    is_zero,
    normal_form,
    symmetrize,
)
from .errors import (
    DomainError,
    ExprError,
    InvalidFrame,
    NonConvergence,
    NonpositiveMass,
    NotSpacelike,
    ParseError,
    QLorentzError,
    SpeedDomain,
    UnderflowToZero,
    UnknownTheorem,
)
from .expr import Atom, Power, Product, Rational, Sum, parse, print_expr
from .propagator import (
    Classification,
    PropagatorPoint,
    ThresholdCriterion,
    classify_interval,
    compton_wavelength,
    falloff_fit,
    gamma_bessel,
    gamma_quadrature,
    hbound_check,
    k0,
    k0_oscillatory,
    lambda_bar_from_mev,
    point_at,
    scan,
)
from .theorems import (
    STEPS,
    SUITE,
    FrameState,
    TheoremRecord,
    lorentz_classical,
    lorentz_momentum_form,
    lorentz_operators,
    negative_branch_record,
    run_all,
    run_theorem,
    verify_identity,
)

__version__ = "0.1.0"

# Which K0 kernel runs; there is one, in plain Python (`_kernels.py`).
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "__version__",
    # errors
    "QLorentzError",
    "ParseError",
    "ExprError",
    "UnknownTheorem",
    "SpeedDomain",
    "InvalidFrame",
    "NonpositiveMass",
    "DomainError",
    "NotSpacelike",
    "NonConvergence",
    "UnderflowToZero",
    # expressions
    "Atom",
    "Rational",
    "Sum",
    "Product",
    "Power",
    "parse",
    "print_expr",
    # algebra
    "NormalForm",
    "normal_form",
    "commutator",
    "anticommutator",
    "symmetrize",
    "is_zero",
    # theorems
    "SUITE",
    "STEPS",
    "TheoremRecord",
    "run_theorem",
    "run_all",
    "verify_identity",
    "lorentz_operators",
    "negative_branch_record",
    "FrameState",
    "lorentz_classical",
    "lorentz_momentum_form",
    # propagator
    "k0",
    "k0_oscillatory",
    "gamma_bessel",
    "gamma_quadrature",
    "Classification",
    "ThresholdCriterion",
    "classify_interval",
    "PropagatorPoint",
    "point_at",
    "scan",
    "falloff_fit",
    "hbound_check",
    "compton_wavelength",
    "lambda_bar_from_mev",
]
