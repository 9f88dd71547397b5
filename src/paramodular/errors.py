"""Exception hierarchy shared by all modules."""


class ParamodularError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(ParamodularError):
    pass


class DimensionMismatch(ParamodularError):
    pass


class InvalidLevel(ParamodularError):
    pass


class DegenerateForm(ParamodularError):
    pass


class NotPrimitive(ParamodularError):
    pass


class NotIsotropic(ParamodularError):
    pass


class NonSquareFreeLevel(ParamodularError):
    pass


class InvalidRank(ParamodularError):
    pass


class InadmissibleD(ParamodularError):
    pass


class NotElementary(ParamodularError):
    pass


class NotIsometric(ParamodularError):
    pass


class InvalidInvariant(ParamodularError):
    pass


class ScaleLimit(ParamodularError):
    """An enumeration exceeded its node or candidate budget."""


class IncompatibleLocals(ParamodularError):
    pass


class NotMaximal(ParamodularError):
    pass


class NotContainedInRadical(ParamodularError):
    pass


class NotStabilizing(ParamodularError):
    pass


class IntegralityViolation(ParamodularError):
    pass


class NotInHalfSpace(ParamodularError):
    pass


class TailTooLarge(ParamodularError):
    pass


class NotPositiveDefinite(ParamodularError):
    pass


class NotEven(ParamodularError):
    pass


class EmptyGenus(ParamodularError):
    pass


class NotApplicable(ParamodularError):
    pass


class NotSupported(ParamodularError):
    pass


class PrimalityUnproven(ParamodularError):
    """A number passed every primality test without a proof that it is prime."""
