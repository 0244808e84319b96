"""Exception types shared across the package."""

import math


class QLorentzError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(QLorentzError):
    """Raised when expression text cannot be parsed.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += " (expected: " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class ExprError(QLorentzError):
    """Raised for structurally invalid expression trees built in code."""


class UnknownTheorem(QLorentzError):
    """Raised when a theorem id is not in the registry."""


class SpeedDomain(QLorentzError):
    """Raised for boost velocities with |v| >= c."""


class InvalidFrame(QLorentzError):
    """Raised when frame data violates E^2 = p^2 c^2 + m^2 c^4 or v = p c^2 / E."""


class NonpositiveMass(QLorentzError):
    """Raised for masses that are not positive and finite."""

    @classmethod
    def check(cls, mass):
        """mass, refused unless 0 < mass < inf: an infinite mass would give lambda-bar 0."""
        if not 0.0 < mass < math.inf:
            raise cls(f"mass must be positive and finite, got {mass!r}")
        return mass


class DomainError(QLorentzError):
    """Raised for numeric arguments outside a function's domain."""


class NotSpacelike(QLorentzError):
    """Raised when a propagator evaluation point is not at spacelike separation."""


class NonConvergence(QLorentzError):
    """Raised when an iterative numeric scheme fails its convergence check.

    ``diagnostics`` holds scheme-specific data (term counts, last deltas).
    """

    def __init__(self, message, **diagnostics):
        self.diagnostics = dict(diagnostics)
        if diagnostics:
            message += " [" + ", ".join(f"{k}={v}" for k, v in sorted(diagnostics.items())) + "]"
        super().__init__(message)


class UnderflowToZero(QLorentzError):
    """Raised when a result is too small to represent as a positive double."""
