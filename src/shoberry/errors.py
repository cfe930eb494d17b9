"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid parameters (representations
included), bad configs and reports that cannot be written exit 2,
mathematically undefined phases exit 3, numerical non-convergence exits 4.
"""


class InvalidParameterError(ValueError):
    """A value object was built from a field outside its domain."""


class InvalidRepresentationError(InvalidParameterError):
    """A representation violates a constraint required by the requested operation."""


class ConfigError(ValueError):
    """A run configuration could not be parsed or is internally inconsistent."""


class OutputError(Exception):
    """A report could not be written to its destination."""


class UndefinedPhaseError(ValueError):
    """The requested Berry phase does not exist for the given inputs."""


class NotCyclicError(UndefinedPhaseError):
    """The evolution time does not return the state to itself up to a phase."""


class ResonanceError(UndefinedPhaseError):
    """The driving force contains a mode resonant with the oscillator."""


class IncommensurateError(UndefinedPhaseError):
    """No rational p/N approximates the period ratio within tolerance."""


class ConditioningError(UndefinedPhaseError):
    """A mode denominator is too close to resonance for a trustworthy result."""


class ConvergenceError(RuntimeError):
    """An iterative numerical routine hit its refinement cap before converging."""


# What one point of a sweep may raise: its row reports the message and the run
# goes on.
POINT_ERRORS = (InvalidParameterError, UndefinedPhaseError, ConvergenceError,
                ArithmeticError)


def _attempt(compute):
    """compute(), or the point error it raised."""
    try:
        return compute()
    except POINT_ERRORS as exc:
        return exc


def _value(result):
    """result, raised if it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result
