"""Exception hierarchy shared by all solvers."""


class GwqapError(Exception):
    """Base class for all library errors."""


class ValidationError(GwqapError):
    """Input failed a structural precondition."""


class NegativeWeight(ValidationError):
    pass


class NonFinite(ValidationError):
    pass


class SumNotOne(ValidationError):
    pass


class AllZero(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NonSquare(ValidationError):
    pass


class NotPSD(ValidationError):
    pass


class AlphaOutOfRange(ValidationError):
    pass


class NonPositiveExact(ValidationError):
    pass


class InvalidInit(ValidationError):
    pass


class NonEmptyRequired(ValidationError):
    pass


class UnknownFormat(ValidationError):
    pass


class NoConvergence(GwqapError):
    """An iteration or node cap, or a failed LP, stopped a solver short of
    its result."""


class NumericalUnderflow(GwqapError):
    """Alternating scaling ended on a non-finite plan (epsilon too small)."""


class Infeasible(GwqapError):
    """No assignment satisfies the capacity/demand constraints."""


class GenerationFailed(GwqapError):
    """Instance generator exhausted its regeneration budget."""
