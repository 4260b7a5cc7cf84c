"""Exception types shared across the package, and the number checks they share."""
import numbers
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


def real(value, error: type[ValueError], field: str) -> float:
    """value as a float, or error when it is not a real number or is a bool.

    numpy numbers and Fractions pass; strings are refused instead of parsed.
    """
    # floats (numpy's included) first: the ABC check costs about a microsecond
    if isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        return float(value)
    raise error(f"{field}: expected a real number, got {value!r}")
