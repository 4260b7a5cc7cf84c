"""Exception types shared across the package."""


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
