"""Exception types, the two number rules (integer, and real), and the base of the exact half's values."""
import numbers
import operator
import sys


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


def _wide(value: int) -> str:
    # bits, not digits: a wide integer's digits may pass the int-to-str limit
    return f"got {'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def integer(value, error: type[ValueError], field: str) -> int:
    """value as an int, or error unless it is an integer in the signed 64-bit range and not a bool.

    Goes through operator.index, so numpy integers pass and floats and
    strings are refused instead of truncated or parsed.
    """
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if -(2**63) <= value < 2**63:
                return value
            raise error(f"{field}: expected an integer in the signed 64-bit range, {_wide(value)}")
    raise error(f"{field}: expected an integer, got {value!r}")


def real(value, error: type[ValueError], field: str) -> float:
    """value as a float, or error unless it is a finite real number and not a bool.

    numpy numbers and Fractions pass; strings are refused instead of parsed.
    """
    # floats (numpy's included) first: the ABC check costs about a microsecond
    if isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        # False for NaN and ±inf; exact on ints and Fractions float() overflows on
        if abs(value) <= sys.float_info.max:
            return float(value)
        got = _wide(value) if isinstance(value, int) else f"got {value!r}"
        raise error(f"{field}: expected a finite real number, {got}")
    raise error(f"{field}: expected a real number, got {value!r}")


class Frozen:
    """An immutable value in place of a frozen dataclass: its fields are the
    names its subclass annotates, which its __init__ sets by object.__setattr__;
    equal by class and fields, hashed as the field tuple, printed as
    Name(field=...), and closed to assignment and deletion."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
