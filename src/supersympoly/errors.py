"""Exception types shared across the package."""


class SuperPolyError(Exception):
    """Base class for all library specific errors."""


class RingMismatchError(SuperPolyError, ValueError):
    """Two values of different rings (polynomials of two rings, or
    generator expressions of two levels) were combined."""


class PolyParseError(SuperPolyError):
    """A polynomial or generator expression string failed to parse."""


class DivisibilityError(SuperPolyError):
    """Exact division was requested but does not hold."""


class NotSupersymmetricError(SuperPolyError):
    """A decomposition was requested for a polynomial outside the algebra."""


class InternalInvariantViolation(SuperPolyError):
    """An internal consistency assertion failed.

    Raised when a step of the decomposition or a validated constructor
    observes a state that the underlying theory rules out.  It signals a
    bug or a falsified assumption rather than bad user input.
    """
