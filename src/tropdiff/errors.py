"""Exception types shared across the library."""


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
