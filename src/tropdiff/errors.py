"""Exception types shared across the library, and its input checks.

integers() turns a sequence into a tuple of ints without truncating; a bool,
which operator.index would read as 0 or 1, is refused like any non-integer.
exponent() is the one exponent check: every point of N^m that enters the
library (an exponent I of t^I, a multi-index J of x_{i,J} or of a derivative
d^J, a point of a weight) goes through it, so its sign and its width are
checked in one place.  A tuple of exact ints, the form every point takes
inside the library, is checked without a copy.
width() is the one check of a width: the number m of t-variables and the
number n of unknowns must each be an int from 1 to MAX_WIDTH wherever they
enter.
power() and direction() are the one checks of a power k in x ** k, for every
type that has one, and of the direction k of a derivative d/dt_k.
shown() renders an offending value for a message, so a refusal of a huge
input stays short.
"""

import operator
from collections.abc import Iterable

# Work grows with the width, and a named order's matrix with its square; at
# this cap a named order is built in a fraction of a second.
MAX_WIDTH = 1000
# A value whose repr is longer is shown by its start, its type and its length.
_SHOWN_LENGTH = 200
# The entry types of a tuple that exponent() takes as it is: int alone, not bool.
_INT_ONLY = frozenset({int})


def shown(value: object) -> str:
    """repr(value) when short; else its start, its type and its length (len(value),
    or the length of the repr for a value without one, such as an int).  A value
    that repr refuses, one nested too deep or one that holds an int with more
    digits than the interpreter writes as text, is shown by its type and its
    length alone; such an int itself by its type and its bit length."""
    try:
        text = repr(value)
    except (RecursionError, ValueError):
        text = ""
    else:
        if len(text) <= _SHOWN_LENGTH:
            return text
    if isinstance(value, int) and not text:
        return f"({type(value).__name__} of {value.bit_length()} bits)"
    size = len(value) if hasattr(value, "__len__") else len(text)
    start = f"{text[:_SHOWN_LENGTH]}... " if text else ""
    return f"{start}({type(value).__name__} of length {size})"


def integers(values: Iterable, what: str = "exponents") -> tuple[int, ...]:
    """values as a tuple of ints; a non-integer or bool entry raises, never truncates."""
    try:
        values = tuple(values)
        if bool not in map(type, values):
            return tuple(map(operator.index, values))
    except TypeError:
        pass
    raise ValueError(f"{what} must be integers, got {shown(values)}")


def exponent(values: Iterable, m: int | None = None, what: str = "exponents") -> tuple[int, ...]:
    """values as a point of N^m: nonnegative ints, exactly m of them when m is given.

    A tuple of entries of type int is checked and returned as it is; any
    other input is first rebuilt by integers()."""
    if type(values) is tuple and _INT_ONLY.issuperset(map(type, values)):
        e = values
    else:
        e = integers(values, what)
    if e and min(e) < 0:
        raise ValueError(f"{what} must be nonnegative, got {shown(e)}")
    if m is not None and len(e) != m:
        raise DimensionMismatch(f"{what}: {shown(e)} does not have {m} coordinates")
    return e


def width(m, what: str = "m") -> int:
    """m when it is an int from 1 to MAX_WIDTH; a bool, a float or a str is refused."""
    if type(m) is not int or m < 1:
        raise ValueError(f"{what} must be a positive integer, got {shown(m)}")
    if m > MAX_WIDTH:
        raise ValueError(f"{what} must be at most {MAX_WIDTH}, got {shown(m)}")
    return m


def power(k) -> None:
    """Refuse a power that is not an int: a bool, a float or a str."""
    if type(k) is not int:
        raise ValueError(f"power must be an integer, got {shown(k)}")


def direction(k, m: int) -> None:
    """Refuse a direction that is not an int in 0..m-1: a bool, a float, or one out of range."""
    if type(k) is not int or not 0 <= k < m:
        raise ValueError(f"direction must be an int in 0..{m - 1}, got {shown(k)}")


class TropdiffError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(TropdiffError):
    """Operands live over different numbers of t-variables."""


class ZeroDenominator(TropdiffError):
    """A fraction was constructed with, or divided by, zero."""


class NotAMonomialOrder(TropdiffError):
    """The weight matrix would sort some nonzero exponent below zero."""


class NotInUnitBall(TropdiffError):
    """The operation is only defined for elements of tropical value <= 1."""


class ZeroTropicalValue(TropdiffError):
    """The operation needs a nonzero tropical value to normalize against."""


class InconsistentOracle(TropdiffError):
    """Membership answers do not describe any total monomial order."""


class InternalInconsistency(TropdiffError):
    """A cross-check between two routes to the same answer failed."""


class SchemaError(TropdiffError):
    """Structured input (JSON problem file or value) does not match the schema."""


class PolyParseError(TropdiffError):
    """Syntax error in polynomial or rational-function text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(PolyParseError):
    pass


class NegativeExponent(PolyParseError):
    pass
