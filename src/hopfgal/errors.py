"""Exception types shared across the package."""


class HopfgalError(Exception):
    """Base class for all package errors."""


class DivisionByZero(HopfgalError):
    pass


class FieldMismatch(HopfgalError):
    pass


class ZeroPolynomial(HopfgalError):
    pass


class ShapeMismatch(HopfgalError):
    pass


class NotAnExtension(HopfgalError):
    pass


class SplittingCapExceeded(HopfgalError):
    pass


class DimCapExceeded(HopfgalError):
    pass


class NotConvInvertible(HopfgalError):
    pass


class IntegralNotFound(HopfgalError):
    pass


class NotAGroup(HopfgalError):
    pass


class CocycleInvalid(HopfgalError):
    pass


class NotAlgebraMap(HopfgalError):
    pass


class ValueNotInvariant(HopfgalError):
    pass


class NotCocommutative(HopfgalError):
    pass


class PremiseFailed(HopfgalError):
    pass


class NoOneDimRep(HopfgalError):
    pass


class NotScalar(HopfgalError):
    pass


class BadPrime(HopfgalError):
    pass


class BadDegree(HopfgalError):
    pass


class BadLabel(HopfgalError):
    pass


class UnknownKind(HopfgalError):
    pass


class TooManyPoints(HopfgalError):
    pass


class RelationCheckFailed(HopfgalError):
    pass


class RadicalChainFailed(HopfgalError):
    """The generalized-trace chain for the radical broke an invariant it
    relies on: a trace not divisible, a space not an ideal, or an endpoint
    that is not nilpotent."""


class ConsistencyCheckFailed(HopfgalError):
    """A computed result contradicts a property the theory guarantees for
    it: block dimensions that do not add up, an idempotent lift that does
    not converge, a degenerate Frobenius form on a fiber.  It points at a
    defect in the computation, not at bad input."""
