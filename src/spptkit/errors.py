"""Exception types raised by validation and factorization routines."""


class ValidationError(ValueError):
    """Base class for all input and contract violations."""


class NotSquare(ValidationError):
    pass


class NotHermitian(ValidationError):
    pass


class NotPsd(ValidationError):
    pass


class NotNormal(ValidationError):
    pass


class BadDimensions(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


class BadParameter(ValidationError):
    pass


class SingularTransform(ValidationError):
    pass


class NotPpt(ValidationError):
    pass


class NotSppt(ValidationError):
    pass


class SingularX1(ValidationError):
    pass


class InvalidDecomposition(ValidationError):
    pass


class ParseError(ValidationError):
    pass
