"""Exception types shared across the package, and the integer check they share."""
import operator


class SizeLimitError(ValueError):
    """An argument exceeds a supported enumeration or grid size."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ValidationError(ValueError):
    """Structured input failed validation.

    The message starts with the name of the offending field.
    """


class QuadratureUnderflowError(ArithmeticError):
    """A posterior average over the quadrature grid is not finite.

    The pass reads signals only through their differences, so this
    means a signal sqrt(snr) * x, or a power of a coordinate that a
    posterior moment needs, overflows float64.
    """


def integer(value, error: type[ValueError], field: str) -> int:
    """value as an int, or error when it is not an integer or is a bool.

    Goes through operator.index, so numpy integers pass and floats and
    strings are refused instead of truncated or parsed.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{field}: expected an integer, got {value!r}")
