"""Exception hierarchy shared by all fuskit modules."""


class FuskitError(Exception):
    """Base class for every error raised by this package."""


# --- permutation groups ---------------------------------------------------

class NotAPermutation(FuskitError):
    pass


class OrderCapExceeded(FuskitError):
    pass


class NotASubgroup(FuskitError):
    pass


class ProductNotASubgroup(FuskitError):
    pass


class NotNormal(FuskitError):
    pass


class NotAHomomorphism(FuskitError):
    pass


class NotInjective(FuskitError):
    pass


class ImageEscapesCodomain(FuskitError):
    pass


class DoesNotGenerate(FuskitError):
    pass


class ConjugateEscapes(FuskitError):
    pass


class NotAnIsomorphism(FuskitError):
    pass


# --- fusion systems -------------------------------------------------------

class DifferentCarrier(FuskitError):
    pass


class MorphismNotInSystem(FuskitError):
    pass


class NotSaturated(FuskitError):
    pass


class DecompositionNotFound(FuskitError):
    pass


class NotASubgroupOfAut(FuskitError):
    pass


class CarrierNotStronglyClosed(FuskitError):
    pass


class NotStronglyClosed(FuskitError):
    pass


class NotNormalInP(NotNormal):
    pass


class ImageNotAFusionSystem(FuskitError):
    pass


class SylowMismatch(FuskitError):
    pass


# --- serialization --------------------------------------------------------

class ParseError(FuskitError):
    pass


class ValidationError(ParseError):
    pass


# --- internal invariants --------------------------------------------------

class InvariantViolation(FuskitError):
    """A result the algorithms guarantee did not hold: a defect, not bad input."""
